"""GPL: the pipelined query execution engine (the paper's contribution).

Each physical pipeline is a *segment*: its kernels are launched once,
connected by data channels, and executed concurrently while tiles of the
input stream through (Sections 3.3–3.5).  Intermediate results cross
kernels through channels — only segment outputs (hash tables, aggregates,
sorted results) are materialized in global memory.

``GPLConfig(concurrent=False)`` gives the paper's **GPL (w/o CE)**
variant: tiling is kept, but every kernel runs exclusively per tile and
materializes its output, which re-introduces kernel-launch overhead and
forfeits overlap — the variant the evaluation shows is *slower* than KBE.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ExecutionError
from ..gpu import DataLocation, DeviceSpec, KernelLaunch, Simulator, StageSpec
from ..gpu.occupancy import scheduling_contention
from ..plans import ExecutionContext, KernelTemplate, Pipeline
from ..plans.runtime import Batch, batch_rows
from ..relational import Database
from .base import EngineBase
from .config import GPLConfig
from .tiling import Tiler

__all__ = ["GPLEngine", "GPLWithoutCEEngine"]


class GPLEngine(EngineBase):
    """Tile-pipelined, channel-connected, concurrently executed."""

    name = "GPL"

    def __init__(
        self,
        database: Database,
        device: DeviceSpec,
        config: Optional[GPLConfig] = None,
        segment_configs: Optional[Dict[str, GPLConfig]] = None,
        partitioned_joins: bool = False,
        num_partitions: int = 16,
        adaptive_fact: bool = False,
    ):
        super().__init__(
            database, device,
            partitioned_joins=partitioned_joins,
            num_partitions=num_partitions,
            adaptive_fact=adaptive_fact,
        )
        self.config = config or GPLConfig()
        self.segment_configs = dict(segment_configs or {})
        if not self.config.concurrent:
            self.name = "GPL (w/o CE)"

        self._capture_trace = False
        self._traces: Dict[str, list] = {}

    def config_for(self, pipeline_id: str) -> GPLConfig:
        """The configuration used for one segment (model overrides win)."""
        return self.segment_configs.get(pipeline_id, self.config)

    def estimated_segment_footprint(
        self, pipeline: Pipeline, config: Optional[GPLConfig] = None
    ) -> float:
        """Pre-launch device-memory estimate for one segment, in bytes.

        Admission control (:mod:`repro.core.resilience`) compares this
        against the device budget *before* anything is launched.  The
        estimate covers the three live allocations of pipelined
        execution: the streamed tile, every interior channel binding at
        full capacity, and the segment's materialized output (hash table
        or aggregate) sized from the optimizer's cardinalities.
        """
        config = config or self.config_for(pipeline.pipeline_id)
        templates = self._templates(pipeline)
        footprint = float(config.tile_bytes)
        footprint += max(0, len(templates) - 1) * float(
            config.channel.capacity_bytes
        )
        rows = float(max(0.0, pipeline.est_source_rows))
        for op in pipeline.ops:
            rows *= max(0.0, op.est_selectivity)
        if templates:
            footprint += rows * float(templates[-1].out_width)
        return footprint

    def estimated_plan_footprint(
        self, plan, config: Optional[GPLConfig] = None
    ) -> float:
        """Pre-launch device-memory estimate for a whole plan, in bytes.

        The sum of every segment's live footprint — what admission
        control (both the resilience layer's and the serving layer's
        shared-budget partitioning) compares against the device budget.
        """
        return sum(
            self.estimated_segment_footprint(pipeline, config)
            for pipeline in plan.pipelines
        )

    def execute_with_trace(self, spec):
        """Execute a query and capture per-segment execution traces.

        Returns ``(result, traces)`` where ``traces`` maps pipeline ids to
        lists of :class:`~repro.gpu.trace.TraceEvent`; render them with
        :func:`repro.gpu.trace.render_gantt`.
        """
        self._capture_trace = True
        self._traces = {}
        try:
            result = self.execute(spec)
        finally:
            self._capture_trace = False
        return result, dict(self._traces)

    # ------------------------------------------------------------------

    def _run_pipeline(
        self,
        pipeline: Pipeline,
        simulator: Simulator,
        context: ExecutionContext,
    ) -> None:
        config = self.config_for(pipeline.pipeline_id)
        batch = self._source_batch(pipeline, context)
        row_width = max(1, pipeline.source_row_width)

        tiler = Tiler(config.tile_bytes)
        plan = tiler.plan(batch_rows(batch), row_width)
        templates = self._templates(pipeline)

        # ---- functional pass: real data, tile by tile -----------------
        output, rows_in, rows_out, sink_rows = self._functional_pass(
            pipeline, tiler.tiles(batch, row_width), context
        )
        # Sink kernels (possibly several, e.g. partition + build) all see
        # the full stream reaching the sink; interior ones pass it through
        # unchanged, and the terminal one either materializes everything
        # it consumed (build) or emits the finalized result (aggregate).
        sink_kernels = len(templates) - len(pipeline.ops)
        rows_in += [sink_rows] * sink_kernels
        rows_out += [sink_rows] * sink_kernels
        if sink_kernels and output is not None:
            rows_out[-1] = batch_rows(output)

        # ---- simulated execution --------------------------------------
        if not templates or plan.num_tiles == 0:
            return
        launches, contention = self._build_launches(
            pipeline, templates, rows_in, rows_out, config, context
        )
        if config.concurrent:
            self._simulate_pipelined(
                simulator, pipeline, templates, launches, plan, config,
                context, contention,
            )
        else:
            self._simulate_tile_serial(
                simulator, pipeline, templates, launches, plan, context
            )

    # ------------------------------------------------------------------

    @staticmethod
    def _templates(pipeline: Pipeline) -> List[KernelTemplate]:
        templates: List[KernelTemplate] = []
        for op in pipeline.ops:
            kernels = op.gpl_kernels()
            if len(kernels) != 1:
                raise ExecutionError(
                    f"GPL operators must lower to one kernel; {op!r} gave "
                    f"{len(kernels)}"
                )
            templates.extend(kernels)
        templates.extend(pipeline.sink.gpl_kernels())
        return templates

    def _build_launches(
        self,
        pipeline: Pipeline,
        templates: Sequence[KernelTemplate],
        rows_in: Sequence[int],
        rows_out: Sequence[int],
        config: GPLConfig,
        context: ExecutionContext,
    ) -> List[KernelLaunch]:
        last = len(templates) - 1
        launches: List[KernelLaunch] = []
        for index, template in enumerate(templates):
            selectivity = self._actual_selectivity(
                rows_in[index], rows_out[index]
            )
            launches.append(
                KernelLaunch(
                    spec=template.spec,
                    tuples=rows_in[index],
                    workgroups=config.workgroups_for_stage(index),
                    in_bytes_per_tuple=template.in_width,
                    out_bytes_per_tuple=template.out_width,
                    selectivity=selectivity,
                    input_location=(
                        DataLocation.GLOBAL
                        if index == 0
                        else DataLocation.CHANNEL
                    ),
                    output_location=(
                        DataLocation.GLOBAL
                        if index == last
                        else DataLocation.CHANNEL
                    ),
                    label=f"{template.spec.name}#{index}",
                )
            )
        fitted = config.fit_workgroups(launches, self.device)
        requested = sum(launch.workgroups for launch in launches)
        granted = sum(fitted.values())
        contention = scheduling_contention(requested, granted)
        return [
            launch.with_workgroups(fitted[index])
            for index, launch in enumerate(launches)
        ], contention

    def _stage_specs(
        self,
        templates: Sequence[KernelTemplate],
        launches: Sequence[KernelLaunch],
        context: ExecutionContext,
    ) -> List[StageSpec]:
        stages: List[StageSpec] = []
        for template, launch in zip(templates, launches):
            aux_ws = self._aux_working_set(context, template)
            stages.append(
                StageSpec(
                    launch=launch,
                    aux_reads_per_tuple=template.aux_reads_per_tuple,
                    aux_working_set_bytes=aux_ws,
                )
            )
        return stages

    def _simulate_pipelined(
        self,
        simulator: Simulator,
        pipeline: Pipeline,
        templates: Sequence[KernelTemplate],
        launches: List[KernelLaunch],
        plan,
        config: GPLConfig,
        context: ExecutionContext,
        contention: float = 1.0,
    ) -> None:
        """Concurrent kernels + channels: one launch set per segment."""
        stages = self._stage_specs(templates, launches, context)
        channels = self._size_channels(launches, plan, config)
        simulator.launch_overhead(len(stages))
        # The workload scheduler dispatches each tile into the resident
        # pipeline (Section 3.1); small tiles pay this often.
        simulator.counters.add_launch_overhead(
            plan.num_tiles * self.device.tile_dispatch_cycles, 0
        )
        result = simulator.run_pipeline(
            stages,
            channels,
            num_tiles=plan.num_tiles,
            tile_tuples=plan.average_tile_rows,
            tile_bytes=plan.average_tile_rows * max(1, pipeline.source_row_width),
            contention_factor=contention,
            trace=self._capture_trace,
        )
        if self._capture_trace:
            self._traces[pipeline.pipeline_id] = result.trace

    def _size_channels(
        self,
        launches: Sequence[KernelLaunch],
        plan,
        config: GPLConfig,
    ) -> List["ChannelConfig"]:
        """Per-edge channel configs, deepened where one producer
        work-group's burst would exceed the configured capacity (joins can
        *expand* data, so a fixed depth cannot fit every edge)."""
        from ..gpu import ChannelConfig

        channels: List[ChannelConfig] = []
        unit_tuples = plan.average_tile_rows / max(
            1, launches[0].workgroups
        )
        for launch in launches[:-1]:
            out_bytes = (
                unit_tuples * launch.selectivity * launch.out_bytes_per_tuple
            )
            base = config.channel
            packets = base.packets_for(out_bytes)
            # Capacity for two waves of bursts from every work-group: a
            # producer may run at most one wave ahead of its consumer
            # (real pipes drain incrementally; reserve-at-start must not
            # serialize the wave).
            waves = 2 * max(1, launch.workgroups)
            needed_depth = max(
                base.depth_packets,
                -(-waves * packets // base.num_channels),
            )
            channels.append(
                ChannelConfig(
                    num_channels=base.num_channels,
                    packet_bytes=base.packet_bytes,
                    depth_packets=needed_depth,
                )
            )
            unit_tuples *= launch.selectivity
        return channels

    def _simulate_tile_serial(
        self,
        simulator: Simulator,
        pipeline: Pipeline,
        templates: Sequence[KernelTemplate],
        launches: List[KernelLaunch],
        plan,
        context: ExecutionContext,
    ) -> None:
        """GPL (w/o CE): per tile, each kernel runs alone and materializes."""
        source_is_table = pipeline.source_table is not None
        # Every tile carries the same average row count through the same
        # chain, so each position's exclusive run is described once.
        runs = []
        flowing = plan.average_tile_rows
        for position, (template, launch) in enumerate(
            zip(templates, launches)
        ):
            tile_launch = KernelLaunch(
                spec=launch.spec,
                tuples=int(round(flowing)),
                workgroups=launch.workgroups,
                in_bytes_per_tuple=launch.in_bytes_per_tuple,
                out_bytes_per_tuple=launch.out_bytes_per_tuple,
                selectivity=launch.selectivity,
                input_location=DataLocation.GLOBAL,
                output_location=DataLocation.GLOBAL,
                label=launch.label,
            )
            runs.append(
                partial(
                    simulator.run_exclusive,
                    tile_launch,
                    input_working_set=flowing * launch.in_bytes_per_tuple,
                    aux_reads_per_tuple=template.aux_reads_per_tuple,
                    aux_working_set_bytes=self._aux_working_set(
                        context, template
                    ),
                    input_is_intermediate=(
                        position > 0 or not source_is_table
                    ),
                )
            )
            flowing *= launch.selectivity
        for _ in range(plan.num_tiles):
            for run_exclusive in runs:
                simulator.launch_overhead()
                run_exclusive()


class GPLWithoutCEEngine(GPLEngine):
    """Convenience subclass preconfigured as the paper's GPL (w/o CE)."""

    def __init__(
        self,
        database: Database,
        device: DeviceSpec,
        config: Optional[GPLConfig] = None,
        segment_configs: Optional[Dict[str, GPLConfig]] = None,
        partitioned_joins: bool = False,
        num_partitions: int = 16,
    ):
        base = (config or GPLConfig()).without_concurrency()
        super().__init__(
            database, device, base, segment_configs,
            partitioned_joins=partitioned_joins,
            num_partitions=num_partitions,
        )
