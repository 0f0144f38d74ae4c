"""The GPU simulator: exclusive (KBE) and pipelined (GPL) kernel execution.

Two execution modes mirror the two engines of the paper:

* :meth:`Simulator.run_exclusive` — one kernel owns the whole device, as in
  kernel-based execution.  Cost is the analytic two-resource model: vector
  ALU issue cycles and memory-unit cycles overlap only as far as the
  kernel's own occupancy allows latency hiding (few resident wavefronts =>
  additive costs, the under-utilization of Section 2.2).

* :meth:`Simulator.run_pipeline` — a segment's kernels run concurrently,
  connected by channels.  This is a discrete-event simulation at
  work-group granularity: producer work-groups reserve channel space
  before starting (backpressure), commit packets on completion, and the
  matching consumer work-group becomes ready immediately (the fine-grained
  coordination of Fig 9).  At most ``C`` kernels are resident at a time
  (2 on the AMD preset, 16 on NVIDIA); starvation and backpressure stalls
  accumulate into the *delay* counter, the measured twin of Eq. 8.

Both modes run on virtual cycles — no wall-clock, no randomness — so every
run is exactly reproducible.  :meth:`Simulator.run_pipeline` leans on that:
it is a *pure step* (request in, immutable :class:`_SegmentOutcome` out)
behind a bounded module-level memo, plus one *apply step* that folds an
outcome into the counters, the ambient tracer and the returned result, so
a segment shape seen before replays its result instead of re-running the
event loop (``docs/simulator.md``, "Pure step, apply step, memo").
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import astuple, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import (
    ChannelError,
    DeadlineExceededError,
    DeadlockSnapshot,
    PipelineDeadlockError,
    SimulationError,
    StageSnapshot,
)
from .channel import ChannelConfig, ChannelModel, ChannelState
from .counters import HardwareCounters, KernelRunStats
from .device import DeviceSpec
from .kernel import DataLocation, KernelLaunch
from .memory import MemoryModel
from .occupancy import (
    allocate_segment_occupancy,
    check_segment_feasible,
    exclusive_occupancy,
    max_active_wg_per_cu,
)
from .trace import TraceEvent
from ..core.store import BoundedStore
from ..obs.tracing import current_tracer

__all__ = [
    "StageSpec",
    "PipelineRunResult",
    "Simulator",
    "SIMULATION_MEMO_LIMIT",
    "simulation_memo_stats",
    "clear_simulation_memo",
]


@dataclass(frozen=True)
class StageSpec:
    """One kernel of a pipelined segment.

    ``aux_reads_per_tuple`` / ``aux_working_set_bytes`` describe side
    accesses to global structures (hash tables probed, dictionaries), which
    stay in global memory even in GPL.
    """

    launch: KernelLaunch
    aux_reads_per_tuple: float = 0.0
    aux_working_set_bytes: float = 0.0


@dataclass
class PipelineRunResult:
    """Outcome of one pipelined segment execution."""

    elapsed_cycles: float
    stage_stats: List[KernelRunStats]
    delay_cycles: float
    channel_bytes: float
    peak_channel_packets: Dict[int, int] = field(default_factory=dict)
    trace: List[TraceEvent] = field(default_factory=list)


@dataclass(frozen=True)
class _SegmentOutcome:
    """What the pure step of :meth:`Simulator.run_pipeline` produces.

    Immutable values only, so one instance can sit in the memo and be
    applied any number of times: ``stage_stats`` holds each stage's
    :class:`KernelRunStats` fields as a tuple (every apply builds fresh
    objects from them) and ``stage_windows`` each stage's ``(name, first
    unit start, last unit end, completed units)`` for the ``sim.stage``
    spans.
    """

    elapsed_cycles: float
    delay_cycles: float
    channel_bytes: float
    peak_channel_packets: Tuple[int, ...]
    stage_stats: Tuple[tuple, ...]
    stage_windows: Tuple[Tuple[str, float, float, int], ...]


#: Bound on memoized segment outcomes.  The largest working set any
#: benchmark workload shows is 328 distinct segment shapes (``plan_cold``);
#: an outcome is a few hundred bytes, so the cap is about memory hygiene
#: in a long-lived serving process, not about fitting a workload.
SIMULATION_MEMO_LIMIT = 1024

#: Memoized pure-step outcomes in LRU order, keyed by the simulator's
#: device and cost models plus the :meth:`Simulator.run_pipeline` request —
#: not by segment id: two segments of one shape share an entry.
_SIM_MEMO = BoundedStore(max_entries=SIMULATION_MEMO_LIMIT)


def simulation_memo_stats() -> Dict[str, int]:
    """Hit/miss/eviction counters and current size of the simulation memo."""
    return _SIM_MEMO.memo_counters()


def clear_simulation_memo() -> None:
    """Drop every memoized segment outcome and reset the counters."""
    _SIM_MEMO.clear()


class _StageRuntime:
    """Mutable per-stage state of the event simulation.

    A plain ``__slots__`` class (not a dataclass): one instance is
    touched on every event of the hot loop, and slot access skips the
    per-instance ``__dict__``.
    """

    __slots__ = (
        "index",
        "name",
        "service_cycles",
        "max_active",
        "total_units",
        "packets_in",
        "packets_out",
        "ready",
        "active",
        "completed",
        "busy_cycles",
        "delay_cycles",
        "idle_since",
        "first_start",
        "last_end",
    )

    def __init__(
        self,
        index: int,
        name: str,
        service_cycles: float,
        max_active: int,
        total_units: int,
        packets_in: int,
        packets_out: int,
    ):
        self.index = index
        self.name = name
        self.service_cycles = service_cycles
        self.max_active = max_active
        self.total_units = total_units
        self.packets_in = packets_in
        self.packets_out = packets_out
        self.ready = 0
        self.active = 0
        self.completed = 0
        self.busy_cycles = 0.0
        self.delay_cycles = 0.0
        self.idle_since: Optional[float] = 0.0  # stages start idle at t=0
        # Window of the stage's work-group units, for its ``sim.stage``
        # span: starts are monotone and service time is constant, so the
        # first start and the latest end are the min and the max.
        self.first_start: Optional[float] = None
        self.last_end = 0.0

    @property
    def finished(self) -> bool:
        return self.completed >= self.total_units


class Simulator:
    """Drives kernels over a :class:`DeviceSpec`, accumulating counters.

    An optional :class:`~repro.faults.FaultInjector` is consulted at the
    hook points of both execution modes (segment launch, kernel/unit
    completion, channel edges); without one, the hooks cost nothing.
    """

    def __init__(self, device: DeviceSpec, injector=None, cancellation=None):
        self.device = device
        self.memory = MemoryModel.for_device(device)
        self.channel_model = ChannelModel.for_device(device)
        self.counters = HardwareCounters(num_cus=device.num_cus)
        self.injector = injector
        #: Optional :class:`~repro.cancel.CancellationToken` consulted at
        #: segment boundaries and every event-loop step; ``None`` (the
        #: default) costs nothing on the hot path.
        self.cancellation = cancellation
        #: The pipeline/segment id currently executing (set by the engines
        #: via :meth:`begin_segment`); fault sites match against it.
        self.segment: str = ""

    def begin_segment(self, segment_id: str) -> None:
        """Mark segment entry: the launch point for segment-scoped faults."""
        self.segment = segment_id
        token = self.cancellation
        if token is not None and token.active:
            token.check(self.counters.elapsed_cycles, where=segment_id)
        if self.injector is not None:
            self.injector.on_segment_launch(
                segment_id, budget_bytes=float(self.device.global_mem_bytes)
            )

    def _watchdog(self, message: str, snapshot: DeadlockSnapshot) -> None:
        """Raise the right typed error for a pipeline that stopped.

        With no deadline armed a wedged pipeline is a
        :class:`PipelineDeadlockError` (retryable by fallback).  With a
        deadline armed the caller asked for a time bound, and a pipeline
        that can never finish *will* blow it — so the watchdog surfaces a
        deterministic :class:`DeadlineExceededError` instead of making
        the caller wait for the budget to drain.
        """
        token = self.cancellation
        if token is not None and token.deadline_cycles is not None:
            raise DeadlineExceededError(
                f"query {token.query or '?'}: pipeline stalled with a "
                f"deadline armed ({message})",
                query=token.query,
                deadline_cycles=token.deadline_cycles,
                elapsed_cycles=(
                    token.consumed_cycles
                    + self.counters.elapsed_cycles
                    + snapshot.cycle
                ),
                where=self.segment,
            )
        raise PipelineDeadlockError(message, snapshot)

    # ------------------------------------------------------------------
    # shared cost pieces
    # ------------------------------------------------------------------

    def _issue_cycles_per_tuple(self, launch: KernelLaunch) -> float:
        """VALU issue cycles contributed by one tuple (per paper Eq. 4)."""
        spec = launch.spec
        return (
            spec.instr_per_tuple
            * self.device.instruction_cycles
            / spec.workgroup_size
        )

    def _overlap_factor(self, active_per_cu: float) -> float:
        """How much memory latency resident wavefronts can hide.

        One resident work-group cannot overlap its own compute with its own
        outstanding loads (additive, Eq. 7's conservative form); each extra
        resident work-group hides more.
        """
        return 1.0 - 1.0 / max(1.0, active_per_cu)

    def _combine(self, compute: float, mem: float, overlap: float) -> float:
        """Wall cycles for overlapping compute and memory demand."""
        return max(compute, mem) + (1.0 - overlap) * min(compute, mem)

    # ------------------------------------------------------------------
    # exclusive (KBE) execution
    # ------------------------------------------------------------------

    def launch_overhead(self, launches: int = 1) -> None:
        """Charge fixed kernel-launch cost (host dispatch)."""
        self.counters.add_launch_overhead(
            self.device.launch_overhead_cycles * launches, launches
        )

    def run_exclusive(
        self,
        launch: KernelLaunch,
        input_working_set: Optional[float] = None,
        aux_reads_per_tuple: float = 0.0,
        aux_working_set_bytes: float = 0.0,
        count_materialization: bool = True,
        input_is_intermediate: bool = False,
    ) -> KernelRunStats:
        """Run one kernel with the whole device to itself (KBE mode).

        ``input_working_set`` drives the input cache-hit estimate; by
        default it is the launch's full input size (a fresh intermediate or
        base-table scan).  Engines pass the tile size for tiled variants.
        """
        occ = exclusive_occupancy(launch, self.device)
        cus_used = max(1, min(self.device.num_cus, launch.workgroups))
        tuples_per_cu = launch.tuples / cus_used

        compute_per_cu = tuples_per_cu * self._issue_cycles_per_tuple(launch)

        working_set = (
            launch.input_bytes if input_working_set is None else input_working_set
        )
        input_hit = self.memory.scan_hit_ratio(working_set)
        input_accesses = launch.spec.memory_instr * tuples_per_cu
        input_cost = self.memory.access_cycles(input_accesses, input_hit)
        mem_per_cu = input_cost
        # Communication stalls: intermediate ping-pong + aux structures.
        stall_per_cu = input_cost if input_is_intermediate else 0.0

        aux_hit = 1.0
        aux_accesses = 0.0
        if aux_reads_per_tuple > 0:
            # The streamed input competes with the probed structure for
            # cache capacity (same contention rule as the pipelined path).
            aux_hit = self.memory.cache.hit_ratio(
                aux_working_set_bytes
                + 0.5 * min(working_set, 4.0 * self.memory.cache.capacity_bytes)
            )
            aux_accesses = aux_reads_per_tuple * tuples_per_cu
            aux_cost = self.memory.access_cycles(aux_accesses, aux_hit)
            mem_per_cu += aux_cost
            stall_per_cu += aux_cost

        written = 0.0
        if launch.output_location is DataLocation.GLOBAL:
            written = float(launch.output_bytes)
            write_cost = self.memory.materialization_cycles(written / cus_used)
            mem_per_cu += write_cost
            stall_per_cu += write_cost

        active_per_cu = occ.active_workgroups / cus_used
        overlap = self._overlap_factor(active_per_cu)
        elapsed = self._combine(compute_per_cu, mem_per_cu, overlap)
        if launch.tuples > 0:
            elapsed = max(elapsed, 1.0)

        total_accesses = (input_accesses + aux_accesses) * cus_used
        total_hits = (
            input_accesses * input_hit + aux_accesses * aux_hit
        ) * cus_used

        stats = KernelRunStats(
            name=launch.display_name,
            elapsed_cycles=elapsed,
            compute_cycles=compute_per_cu * cus_used,
            memory_cycles=mem_per_cu * cus_used,
            stall_cycles=stall_per_cu * cus_used,
            tuples=launch.tuples,
            workgroups=launch.workgroups,
            active_workgroups=occ.active_workgroups,
            bytes_read=float(launch.input_bytes),
            bytes_written_global=written if count_materialization else 0.0,
            cache_hits=total_hits,
            cache_accesses=total_accesses,
        )
        if self.injector is not None:
            self.injector.on_kernel_complete(
                self.segment,
                launch.display_name,
                self.counters.elapsed_cycles + elapsed,
            )
        self.counters.record(stats)
        self.counters.add_elapsed(elapsed)
        token = self.cancellation
        if token is not None and token.active:
            token.check(
                self.counters.elapsed_cycles,
                where=self.segment or launch.display_name,
            )
        tracer = current_tracer()
        if tracer is not None:
            with tracer.span(
                "sim.kernel",
                category="simulator",
                kernel=launch.display_name,
                segment=self.segment or "?",
                tuples=launch.tuples,
            ):
                tracer.advance(elapsed)
        return stats

    # ------------------------------------------------------------------
    # pipelined (GPL) execution
    # ------------------------------------------------------------------

    def run_pipeline(
        self,
        stages: Sequence[StageSpec],
        channels: Sequence[ChannelConfig],
        num_tiles: int,
        tile_tuples: float,
        tile_bytes: float,
        contention_factor: float = 1.0,
        trace: bool = False,
    ) -> PipelineRunResult:
        """Simulate one segment: ``stages`` connected by ``channels``.

        ``num_tiles`` tiles of ``tile_tuples`` input tuples each stream
        through the chain.  ``len(channels)`` must be ``len(stages) - 1``.
        The unit of simulation is one work-group of the first stage and the
        corresponding work of every downstream stage (Fig 9's fine-grained
        producer/consumer coordination).

        A request this process has already simulated on an equal device
        is replayed from the memo rather than re-run — same result, same
        counters, same trace.  Runs under a fault injector, an active
        cancellation token or full work-group capture (``trace=True`` /
        ``Tracer(capture_kernels=True)``) always execute.
        """
        if not stages:
            raise SimulationError("pipeline needs at least one stage")
        if len(channels) != len(stages) - 1:
            raise SimulationError(
                f"{len(stages)} stages need {len(stages) - 1} channel "
                f"configs, got {len(channels)}"
            )
        if not check_segment_feasible(
            [stage.launch for stage in stages], self.device
        ):
            raise SimulationError(
                "segment violates device resource limits (Eq. 2); "
                "reduce per-kernel work-group counts"
            )
        if num_tiles <= 0 or tile_tuples <= 0:
            return PipelineRunResult(0.0, [], 0.0, 0.0)
        tracer = current_tracer()
        capture = trace or (tracer is not None and tracer.capture_kernels)
        trace_events: List[TraceEvent] = []
        request = (
            tuple(stages), tuple(channels), num_tiles, tile_tuples,
            tile_bytes, contention_factor,
        )
        token = self.cancellation
        if (
            capture
            or self.injector is not None
            or (token is not None and token.active)
        ):
            # Not a function of the request alone: faults and deadlines
            # act from outside it, and a work-group capture is too big to
            # keep.  Run live and leave the memo untouched.
            outcome = self._simulate_segment(
                *request, trace_events if capture else None
            )
        else:
            key = (self.device, self.memory, self.channel_model) + request
            outcome = _SIM_MEMO.get(key)
            if outcome is None:
                # Errors propagate from here, so only finished runs are
                # ever stored.
                outcome = self._simulate_segment(*request, None)
                _SIM_MEMO.put(key, outcome)
        return self._apply_outcome(outcome, tracer, num_tiles, trace_events)

    def _simulate_segment(
        self,
        stages: Tuple[StageSpec, ...],
        channels: Tuple[ChannelConfig, ...],
        num_tiles: int,
        tile_tuples: float,
        tile_bytes: float,
        contention_factor: float,
        trace_events: Optional[List[TraceEvent]],
    ) -> _SegmentOutcome:
        """The pure step: simulate one validated segment request.

        Reads the device and its cost models and writes nothing — not
        the counters, not the tracer.  The injector and the cancellation
        token are consulted only when attached / active, and those runs
        never reach the memo (see :meth:`run_pipeline`), so every stored
        outcome is a function of the memo key alone.  ``trace_events``,
        when given, collects one :class:`TraceEvent` per work-group unit.
        """
        launches = [stage.launch for stage in stages]
        shares = dict(allocate_segment_occupancy(launches, self.device))
        # Only C kernels are resident at a time; a kernel's share of the
        # device while resident is therefore larger than a naive split
        # across every stage of a long segment.
        resident = max(1, min(len(stages), self.device.concurrency))
        boost = len(stages) / resident
        for launch in launches:
            share = shares[launch.display_name]
            solo_cap = max_active_wg_per_cu(launch.spec, self.device) * (
                self.device.num_cus / resident
            )
            boosted = min(
                float(launch.workgroups),
                solo_cap,
                share.active_workgroups * boost,
            )
            shares[launch.display_name] = type(share)(
                active_workgroups=max(1, int(boosted)),
                active_cus=share.active_cus * boost,
            )
        total_active_per_cu = (
            sum(s.active_workgroups for s in shares.values())
            * (resident / len(stages))
            / self.device.num_cus
        )
        overlap = self._overlap_factor(total_active_per_cu)

        units_per_tile = max(1, launches[0].workgroups)
        total_units = num_tiles * units_per_tile

        runtimes, per_unit_costs = self._build_stage_runtimes(
            stages, channels, shares, units_per_tile, tile_tuples,
            tile_bytes, total_units, overlap, contention_factor,
        )
        channel_states = [ChannelState(config) for config in channels]

        if self.injector is not None:
            self._apply_pipeline_faults(runtimes)

        elapsed = self._event_loop(
            runtimes, channel_states, total_units, trace_events
        )

        # Device-level resource bound: however well the pipeline overlaps,
        # the device cannot retire more VALU work than its CUs issue nor
        # more memory/channel traffic than its memory units serve.
        total_compute = sum(
            costs["compute"] * runtime.completed
            for costs, runtime in zip(per_unit_costs, runtimes)
        )
        total_memory = sum(
            (costs["memory"] + costs["channel"]) * runtime.completed
            for costs, runtime in zip(per_unit_costs, runtimes)
        )
        resource_floor = (
            max(total_compute, total_memory)
            / self.device.num_cus
            * contention_factor
        )
        elapsed = max(elapsed, resource_floor)

        # Pipeline delay (Eq. 8's measured twin): elapsed time beyond what
        # a perfectly packed schedule of the same work would need,
        # expressed in device-cycles so it is commensurable with the busy
        # counters.
        delay_total = max(0.0, elapsed - resource_floor) * self.device.num_cus

        stage_stats, channel_bytes = self._collect_stats(
            stages, runtimes, per_unit_costs, channel_states, elapsed,
            delay_total,
        )
        return _SegmentOutcome(
            elapsed_cycles=elapsed,
            delay_cycles=delay_total,
            channel_bytes=channel_bytes,
            peak_channel_packets=tuple(
                state.peak_packets for state in channel_states
            ),
            stage_stats=tuple(astuple(stats) for stats in stage_stats),
            stage_windows=tuple(
                (r.name, r.first_start, r.last_end, r.completed)
                for r in runtimes
            ),
        )

    def _apply_outcome(
        self,
        outcome: _SegmentOutcome,
        tracer,
        num_tiles: int,
        trace_events: List[TraceEvent],
    ) -> PipelineRunResult:
        """The apply step: the only place a segment run has effects.

        Folds ``outcome`` into the counters, mirrors it into the ambient
        tracer and builds the caller's result.  Memo hits, misses and
        live runs all end here, so replayed and recomputed segments leave
        the same counters and the same trace bytes by construction.  The
        :class:`KernelRunStats` are built fresh on every call because
        ``HardwareCounters.kernel_stats`` keeps references to them.
        """
        stage_stats = [KernelRunStats(*row) for row in outcome.stage_stats]
        for stats in stage_stats:
            self.counters.record(stats)
        self.counters.add_elapsed(outcome.elapsed_cycles)
        if tracer is not None:
            self._trace_segment(tracer, outcome, trace_events, num_tiles)
        return PipelineRunResult(
            elapsed_cycles=outcome.elapsed_cycles,
            stage_stats=stage_stats,
            delay_cycles=outcome.delay_cycles,
            channel_bytes=outcome.channel_bytes,
            peak_channel_packets=dict(enumerate(outcome.peak_channel_packets)),
            trace=trace_events,
        )

    def _trace_segment(
        self,
        tracer,
        outcome: _SegmentOutcome,
        trace_events: List[TraceEvent],
        num_tiles: int,
    ) -> None:
        """Mirror one pipelined segment into the ambient span tracer.

        By default each kernel stage becomes a single child span covering
        its first unit start to its last unit end (a serve drain's trace
        stays small); ``Tracer(capture_kernels=True)`` emits every
        work-group unit instead, matching :func:`render_gantt` detail.
        """
        with tracer.span(
            "sim.segment",
            category="simulator",
            segment=self.segment or "?",
            stages=len(outcome.stage_windows),
            tiles=num_tiles,
        ) as segment_span:
            base = segment_span.start
            if tracer.capture_kernels:
                for event in trace_events:
                    tracer.add_span(
                        "sim.wg",
                        "simulator",
                        base + event.start,
                        base + event.end,
                        stage=event.label,
                    )
            else:
                for name, first, last, units in outcome.stage_windows:
                    tracer.add_span(
                        "sim.stage",
                        "simulator",
                        base + first,
                        base + last,
                        stage=name,
                        units=units,
                    )
            tracer.advance(outcome.elapsed_cycles)

    def _build_stage_runtimes(
        self,
        stages: Sequence[StageSpec],
        channels: Sequence[ChannelConfig],
        shares: Dict[str, "OccupancyShare"],
        units_per_tile: int,
        tile_tuples: float,
        tile_bytes: float,
        total_units: int,
        overlap: float,
        contention_factor: float = 1.0,
    ):
        """Precompute per-unit service times and packet counts per stage."""
        runtimes: List[_StageRuntime] = []
        per_unit_costs: List[dict] = []
        unit_tuples = tile_tuples / units_per_tile
        flow_bytes = tile_bytes  # bytes flowing per tile at current edge

        # The pipelined execution's working set: the tile plus every
        # channel flow alive at once (Section 3.3 — "the tile size
        # determines the working set size of performing the pipelined
        # execution").  It decides whether channel packets stay cached;
        # over-large tiles thrash here (Fig 12's right flank).
        working_set = tile_bytes
        probe_flow = tile_bytes
        for launch in [stage.launch for stage in stages][:-1]:
            probe_flow = max(
                1.0,
                probe_flow
                * launch.selectivity
                * (launch.out_bytes_per_tuple / max(1, launch.in_bytes_per_tuple)),
            )
            working_set += probe_flow

        for index, stage in enumerate(stages):
            launch = stage.launch
            share = shares[launch.display_name]

            compute = unit_tuples * self._issue_cycles_per_tuple(launch)

            mem = 0.0
            stall = 0.0
            channel_cost = 0.0
            packets_in = 0
            packets_out = 0
            accesses = 0.0
            hits = 0.0

            if index == 0:
                # First touch of a tile streams cold from global memory —
                # only spatial locality helps, regardless of tile size.
                # (Tile size influences *channel* traffic locality below.)
                hit = self.memory.cache.streaming_hit_ratio(8.0)
                input_accesses = launch.spec.memory_instr * unit_tuples
                mem += self.memory.access_cycles(input_accesses, hit)
                accesses += input_accesses
                hits += input_accesses * hit
            else:
                config = channels[index - 1]
                # A consumer work-group consumes exactly the packets its
                # producer committed, whatever widths either side declares.
                packets_in = runtimes[index - 1].packets_out
                stream = working_set
                # Reader reserves its read window once per work-group and
                # pays half the packet movement (the producer paid the
                # other half when writing).
                read_cost = self.channel_model.reservation_cycles(
                    config.num_channels
                ) + packets_in * (
                    self.channel_model.packet_transfer_cycles(config, stream)
                    / 2.0
                )
                channel_cost += read_cost

            if stage.aux_reads_per_tuple > 0:
                # The streamed tile and channel flows compete with the
                # probed structure for cache: big tiles evict hash tables.
                aux_hit = self.memory.cache.hit_ratio(
                    stage.aux_working_set_bytes + 0.5 * working_set
                )
                aux_accesses = stage.aux_reads_per_tuple * unit_tuples
                aux_cost = self.memory.access_cycles(aux_accesses, aux_hit)
                mem += aux_cost
                stall += aux_cost
                accesses += aux_accesses
                hits += aux_accesses * aux_hit

            out_tuples = unit_tuples * launch.selectivity
            out_bytes = out_tuples * launch.out_bytes_per_tuple
            if index < len(stages) - 1:
                config = channels[index]
                packets_out = config.packets_for(out_bytes)
                flow_out = flow_bytes * launch.selectivity * (
                    launch.out_bytes_per_tuple
                    / max(1, launch.in_bytes_per_tuple)
                )
                write_cost = self.channel_model.reservation_cycles(
                    config.num_channels
                ) + packets_out * (
                    self.channel_model.packet_transfer_cycles(
                        config, working_set
                    )
                    / 2.0
                )
                channel_cost += write_cost
                flow_bytes = max(1.0, flow_out)
            elif launch.output_location is DataLocation.GLOBAL:
                write_cost = self.memory.materialization_cycles(out_bytes)
                mem += write_cost
                stall += write_cost

            service = self._combine(compute, mem, overlap) + channel_cost
            service = max(service * contention_factor, 1.0)

            runtimes.append(
                _StageRuntime(
                    index=index,
                    name=launch.display_name,
                    service_cycles=service,
                    max_active=max(1, share.active_workgroups),
                    total_units=total_units,
                    packets_in=packets_in,
                    packets_out=packets_out,
                )
            )
            per_unit_costs.append(
                {
                    "compute": compute,
                    "memory": mem,
                    "stall": stall,
                    "channel": channel_cost,
                    "accesses": accesses,
                    "hits": hits,
                    "unit_tuples": unit_tuples,
                    "out_bytes": out_bytes,
                }
            )
            unit_tuples = out_tuples

        return runtimes, per_unit_costs

    def _apply_pipeline_faults(self, runtimes: List[_StageRuntime]) -> None:
        """Arm behavioural faults on this segment's stages.

        A *channel stall* wedges the matched stage — its consumer side
        never starts, so upstream producers fill the channel and block;
        the watchdog then reports the deadlock with a full snapshot.  A
        *channel overflow* rejects the matched producer's burst outright,
        as a real bounded pipe would when a reservation cannot ever fit.
        """
        for runtime in runtimes:
            if self.injector.stalls_stage(self.segment, runtime.name):
                runtime.max_active = 0
        for runtime in runtimes[:-1]:
            if self.injector.overflows_edge(self.segment, runtime.name):
                raise ChannelError(
                    f"injected channel overflow: stage {runtime.name!r} of "
                    f"segment {self.segment or '?'} cannot reserve "
                    f"{max(1, runtime.packets_out)} packets"
                )

    def _snapshot(
        self,
        runtimes: List[_StageRuntime],
        channel_states: List[ChannelState],
        now: float,
        last_progress: float,
    ) -> DeadlockSnapshot:
        return DeadlockSnapshot(
            segment=self.segment,
            cycle=now,
            last_progress_cycle=last_progress,
            stages=tuple(
                StageSnapshot(
                    index=r.index,
                    name=r.name,
                    completed=r.completed,
                    total=r.total_units,
                    ready=r.ready,
                    active=r.active,
                    max_active=r.max_active,
                    packets_out=r.packets_out,
                )
                for r in runtimes
            ),
            channels=tuple(
                state.snapshot(index)
                for index, state in enumerate(channel_states)
            ),
        )

    def _event_loop(
        self,
        runtimes: List[_StageRuntime],
        channel_states: List[ChannelState],
        total_units: int,
        trace_events: Optional[List[TraceEvent]] = None,
    ) -> float:
        """The discrete-event core: start/complete work-group units.

        Two watchdogs guard the loop: if the event heap drains with
        unfinished stages (producer/consumer deadlock: a full channel
        nobody drains, a wedged stage) a :class:`PipelineDeadlockError`
        with a diagnostic snapshot is raised, and a no-progress event
        budget bounds the loop so a buggy stage graph can never spin the
        simulator forever.

        **Fast path.**  Starting a work-group only *consumes* resources
        (a ready unit, an active slot, channel space, a residency slot),
        so one index-ordered greedy pass reaches the same fixpoint the
        historical repeat-until-no-progress loop did, and after a
        completion event at stage ``i`` the only stages whose blocking
        condition can have lifted are ``i - 1`` (channel space freed by
        the consume), ``i`` (active slot freed) and ``i + 1`` (new ready
        unit) — unless a residency slot was released, which can unblock
        any stage.  The loop therefore retries just that ready-set per
        event instead of re-scanning every stage, which also makes a
        burst of identical same-cycle completions cost O(1) scheduling
        work each.  True merging of same-cycle events would change which
        stage wins a contended residency slot (the greedy order is part
        of the model), so events stay individually ordered and the
        result — counters and trace alike — is bit-identical to the
        historical loop.
        """
        concurrency = self.device.concurrency
        last = len(runtimes) - 1
        for stage in runtimes[:-1]:
            capacity = channel_states[stage.index].capacity_packets
            if stage.packets_out > capacity:
                raise ChannelError(
                    f"stage {stage.name!r} emits {stage.packets_out} packets "
                    f"per work-group but the channel holds only {capacity}; "
                    "increase channel depth or work-group count"
                )
        runtimes[0].ready = total_units

        resident: set = set()
        heap: List = []
        sequence = itertools.count()
        now = 0.0
        heappush = heapq.heappush
        heappop = heapq.heappop

        def try_start(stage: _StageRuntime) -> bool:
            if stage.ready <= 0 or stage.active >= stage.max_active:
                return False
            index = stage.index
            if index not in resident and len(resident) >= concurrency:
                return False
            packets_out = stage.packets_out
            if (
                index < last
                and packets_out > 0
                and not channel_states[index].try_reserve(packets_out)
            ):
                return False
            if stage.idle_since is not None:
                stage.delay_cycles += now - stage.idle_since
                stage.idle_since = None
                if stage.first_start is None:
                    # Stages start idle, so the first unit passes here.
                    stage.first_start = now
            stage.ready -= 1
            stage.active += 1
            resident.add(index)
            end = stage.last_end = now + stage.service_cycles
            if trace_events is not None:
                trace_events.append(
                    TraceEvent(
                        stage=index,
                        label=stage.name,
                        start=now,
                        end=end,
                    )
                )
            heappush(heap, (end, next(sequence), index))
            return True

        def start_some(stages) -> None:
            # One ascending-index greedy pass; see the fast-path note.
            for stage in stages:
                if stage.ready <= 0 or stage.active >= stage.max_active:
                    continue
                while try_start(stage):
                    pass

        start_some(runtimes)
        if not heap:
            self._watchdog(
                "pipeline cannot start: no runnable work",
                self._snapshot(runtimes, channel_states, 0.0, 0.0),
            )

        # Cooperative cancellation: precompute the in-run cycle at which
        # the query's deadline lands so the per-event check is one float
        # comparison (and skipped entirely when no token is armed).
        token = self.cancellation
        deadline_now = None
        if token is not None and token.active:
            deadline_now = (
                -1.0
                if token.cancelled
                else token.remaining_cycles(self.counters.elapsed_cycles)
            )

        # No-progress budget: every event retires exactly one work-group
        # unit, so a healthy run processes at most stages x units events.
        # Anything beyond (with slack) means the loop is spinning.
        events_budget = 3 * total_units * len(runtimes) + 64
        events = 0
        last_progress = 0.0
        injector = self.injector

        while heap:
            now, _, index = heappop(heap)
            if deadline_now is not None and now > deadline_now:
                token.check(
                    self.counters.elapsed_cycles + now, where=self.segment
                )
            events += 1
            if events > events_budget:
                self._watchdog(
                    f"pipeline exceeded its no-progress budget "
                    f"({events_budget} events) without finishing",
                    self._snapshot(
                        runtimes, channel_states, now, last_progress
                    ),
                )
            last_progress = now
            stage = runtimes[index]
            stage.active -= 1
            stage.completed += 1
            stage.busy_cycles += stage.service_cycles
            if injector is not None:
                injector.on_kernel_complete(self.segment, stage.name, now)
            if index > 0 and stage.packets_in > 0:
                channel_states[index - 1].consume(stage.packets_in)
            if index < last:
                if stage.packets_out > 0:
                    channel_states[index].commit(stage.packets_out)
                runtimes[index + 1].ready += 1
            released_residency = False
            if stage.active == 0:
                if stage.completed >= stage.total_units:
                    resident.discard(index)
                    released_residency = True
                else:
                    stage.idle_since = now
            if released_residency:
                start_some(runtimes)
            else:
                start_some(runtimes[max(0, index - 1) : index + 2])
            # Any stage that still has no active unit after the greedy pass
            # is either out of work or blocked on a full channel; either way
            # it frees its residency slot so the ACE can swap in another
            # kernel (interleaved execution) — e.g. the consumer that must
            # drain the very channel blocking it.
            stalled = False
            for other in runtimes:
                if other.active == 0 and other.index in resident:
                    resident.discard(other.index)
                    stalled = True
            if stalled:
                start_some(runtimes)

        unfinished = [s.name for s in runtimes if not s.finished]
        if unfinished:
            self._watchdog(
                f"pipeline deadlocked with unfinished stages: {unfinished}",
                self._snapshot(runtimes, channel_states, now, last_progress),
            )
        return now

    def _collect_stats(
        self,
        stages: Sequence[StageSpec],
        runtimes: List[_StageRuntime],
        per_unit_costs: List[dict],
        channel_states: List[ChannelState],
        elapsed: float,
        delay_total: float,
    ):
        """Convert event-sim results into :class:`KernelRunStats`.

        The segment-level delay is attributed to stages in proportion to
        their raw starvation time (the event loop's per-stage idle
        accounting), so the most-starved kernels carry the imbalance.
        """
        stage_stats: List[KernelRunStats] = []
        channel_bytes = float(
            sum(state.total_bytes for state in channel_states)
        )
        total_idle = sum(runtime.delay_cycles for runtime in runtimes)
        for runtime in runtimes:
            share = (
                runtime.delay_cycles / total_idle if total_idle > 0 else 0.0
            )
            runtime.delay_cycles = delay_total * share
        last = len(runtimes) - 1
        for stage, runtime, costs in zip(stages, runtimes, per_unit_costs):
            launch = stage.launch
            units = runtime.completed
            written = 0.0
            if (
                runtime.index == last
                and launch.output_location is DataLocation.GLOBAL
            ):
                written = costs["out_bytes"] * units
            stage_stats.append(
                KernelRunStats(
                    name=launch.display_name,
                    elapsed_cycles=elapsed,
                    compute_cycles=costs["compute"] * units,
                    memory_cycles=costs["memory"] * units,
                    stall_cycles=costs["stall"] * units,
                    channel_cycles=costs["channel"] * units,
                    delay_cycles=runtime.delay_cycles,
                    tuples=int(costs["unit_tuples"] * units),
                    workgroups=launch.workgroups,
                    active_workgroups=runtime.max_active,
                    bytes_read=float(launch.input_bytes),
                    bytes_written_global=written,
                    bytes_channel=float(
                        channel_states[runtime.index].total_bytes
                        if runtime.index < last
                        else 0.0
                    ),
                    cache_hits=costs["hits"] * units,
                    cache_accesses=costs["accesses"] * units,
                )
            )
        return stage_stats, channel_bytes
