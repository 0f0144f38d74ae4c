"""Shared engine machinery: plan preparation, sources, results.

Every engine (KBE baseline, GPL, GPL w/o CE, Ocelot comparator) executes
the *same* physical pipelines functionally — real numpy data flows through
the operators in one shared pass (:meth:`EngineBase._functional_pass`),
so all engines produce identical, verifiable answers — and differs only
in how kernel work is *accounted* on the simulated device.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..cancel import CancellationToken
from ..errors import ExecutionError
from ..gpu import DeviceSpec, HardwareCounters, Profiler, ProfilerReport, Simulator
from ..obs.tracing import add_event, maybe_span
from ..plans import (
    ExecutionContext,
    PhysicalPlan,
    Pipeline,
    QuerySpec,
    SelingerOptimizer,
    lower,
)
from ..plans.runtime import Batch, batch_bytes, batch_rows
from ..relational import Database
from .checkpoint import SegmentCheckpoint

__all__ = ["QueryResult", "EngineBase", "workgroups_for"]

#: Input tuples one work-group covers when an engine sizes a KBE-style
#: grid: 64 work-items x 16 tuples per work-item.
TUPLES_PER_WORKGROUP = 1024


def workgroups_for(tuples: int, minimum: int = 1, maximum: int = 4096) -> int:
    """Grid size covering ``tuples`` at :data:`TUPLES_PER_WORKGROUP` each."""
    if tuples <= 0:
        return minimum
    return int(min(maximum, max(minimum, math.ceil(tuples / TUPLES_PER_WORKGROUP))))


@dataclass
class QueryResult:
    """Outcome of executing one query on one engine."""

    query: str
    engine: str
    device: str
    batch: Batch
    columns: Tuple[str, ...]
    elapsed_ms: float
    counters: HardwareCounters
    report: ProfilerReport
    dictionaries: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: Set by :class:`repro.core.resilience.ResilientExecutor`: the
    #: retry/fallback/fault accounting of the run that produced this
    #: result, surfaced next to the hardware counters.
    resilience: Optional["object"] = None
    #: Set by :class:`repro.shard.ShardedExecutor`: fan-out, partition,
    #: and merge accounting when this result was produced by
    #: scatter-gather execution across a device pool.
    shard: Optional["object"] = None

    @property
    def num_rows(self) -> int:
        return batch_rows(self.batch)

    def column(self, name: str) -> np.ndarray:
        try:
            return self.batch[name]
        except KeyError:
            raise ExecutionError(f"result has no column {name!r}") from None

    def rows(self) -> List[tuple]:
        """The result as row tuples in output-column order."""
        arrays = [self.batch[name] for name in self.columns]
        return [tuple(values) for values in zip(*arrays)] if arrays else []

    def sorted_rows(self) -> List[tuple]:
        """Rows under a canonical total order (for engine comparisons)."""
        return sorted(self.rows())

    def decoded_rows(self) -> List[tuple]:
        """Rows with dictionary codes decoded back to strings.

        Columns without a dictionary pass through unchanged; Q5's
        ``n_name`` codes become nation names, Q7's ``supp_nation`` /
        ``cust_nation`` likewise.
        """
        decoders = [self.dictionaries.get(name) for name in self.columns]
        decoded = []
        for row in self.rows():
            decoded.append(
                tuple(
                    decoder[int(value)] if decoder is not None else value
                    for decoder, value in zip(decoders, row)
                )
            )
        return decoded

    def approx_equals(
        self, other: "QueryResult", rel_tol: float = 1e-9
    ) -> bool:
        """Whether two results agree up to floating-point accumulation.

        Engines fold aggregates in different orders (per-tile partial
        sums vs one pass), so exact equality on floats is too strict.
        """
        mine, theirs = self.sorted_rows(), other.sorted_rows()
        if len(mine) != len(theirs):
            return False
        for row_a, row_b in zip(mine, theirs):
            if len(row_a) != len(row_b):
                return False
            for a, b in zip(row_a, row_b):
                if abs(float(a) - float(b)) > rel_tol * max(
                    1.0, abs(float(a)), abs(float(b))
                ):
                    return False
        return True


@dataclass
class _PreparedQuery:
    spec: QuerySpec
    plan: PhysicalPlan


class EngineBase:
    """Template-method base: optimize/lower once, then engine-specific run."""

    #: Engine display name; subclasses override.
    name = "base"

    def __init__(
        self,
        database: Database,
        device: DeviceSpec,
        partitioned_joins: bool = False,
        num_partitions: int = 16,
        adaptive_fact: bool = False,
    ):
        self.database = database
        self.device = device
        self.partitioned_joins = partitioned_joins
        self.num_partitions = num_partitions
        self.adaptive_fact = adaptive_fact
        #: Optional :class:`repro.faults.FaultInjector` threaded into every
        #: simulator this engine creates (set by the resilience layer or
        #: the CLI; ``None`` costs nothing).
        self.fault_injector = None
        #: Optional :class:`repro.serve.PlanCache`.  When set (by the
        #: serving layer or the resilience executor), :meth:`prepare`
        #: consults it and repeat queries skip optimization + lowering
        #: entirely; ``None`` costs nothing.
        self.plan_cache = None
        #: Optional :class:`repro.cancel.CancellationToken` threaded into
        #: every simulator this engine creates (set by the resilience
        #: layer or the serving loop; ``None`` costs nothing).  When no
        #: token is attached, :meth:`execute` arms one automatically for
        #: specs that carry ``deadline_cycles``.
        self.cancellation = None
        #: Optional :class:`repro.core.checkpoint.QueryCheckpoint`.  When
        #: set (by the resilience executor), :meth:`execute_plan` resumes
        #: completed segments from it and records newly completed ones.
        self.checkpoint = None
        #: Optional :class:`repro.core.checkpoint.SegmentCache` — the
        #: *cross-query* store (set by the serving layer).  Segments
        #: whose content keys hit the cache are spliced from it instead
        #: of executing; completed segments are stored back under their
        #: keys so later queries sharing the plan prefix can reuse them.
        self.segment_cache = None
        self._optimizer = SelingerOptimizer(
            database, choose_fact=adaptive_fact
        )

    # -- public API -------------------------------------------------------

    def prepare(self, spec: QuerySpec) -> PhysicalPlan:
        """Optimize and lower ``spec`` (exposed for inspection/tests).

        Routed through :attr:`plan_cache` when one is attached; cached
        plans are safe to re-execute because every stateful sink hands
        its state off in ``finalize()`` and all run state lives in the
        per-execution :class:`~repro.plans.ExecutionContext`.
        """
        with maybe_span(
            "plan.prepare", category="plan", query=spec.name, engine=self.name
        ) as span:
            if self.plan_cache is not None:
                plan, cache_hit = self.plan_cache.fetch_or_prepare(self, spec)
                if span is not None:
                    span.attrs["cache_hit"] = cache_hit
                return plan
            if span is not None:
                span.attrs["cache_hit"] = False
            return self.prepare_uncached(spec)

    def prepare_uncached(self, spec: QuerySpec) -> PhysicalPlan:
        """Optimize and lower ``spec``, bypassing any attached plan cache."""
        optimized = self._optimizer.optimize(spec)
        return lower(
            optimized,
            self.database,
            partitioned_joins=self.partitioned_joins,
            num_partitions=self.num_partitions,
        )

    def explain(self, spec: QuerySpec) -> str:
        """Human-readable plan report: join order, pipelines, estimates."""
        optimized = self._optimizer.optimize(spec)
        plan = lower(
            optimized,
            self.database,
            partitioned_joins=self.partitioned_joins,
            num_partitions=self.num_partitions,
        )
        lines = [f"== {spec.name} on {self.name} / {self.device.name} =="]
        if optimized.join_order:
            lines.append(
                "probe order: "
                + " -> ".join(optimized.join_order)
                + f"  (~{optimized.estimated_rows:,.0f} rows estimated)"
            )
        lines.append(plan.describe())
        lines.append("pipelines:")
        for pipeline in plan.pipelines:
            source = pipeline.source_table or f"@{pipeline.source_intermediate}"
            lines.append(
                f"  {pipeline.pipeline_id:20s} source={source:12s} "
                f"~{pipeline.est_source_rows:,.0f} rows x "
                f"{pipeline.source_row_width} B"
            )
            for op in pipeline.ops:
                lines.append(
                    f"      {op!r}  (sel~{op.est_selectivity:.4g}, "
                    f"{op.in_width}B -> {op.out_width}B)"
                )
        return "\n".join(lines)

    def execute(self, spec: QuerySpec) -> QueryResult:
        """Run a query end to end: real results plus simulated timing."""
        plan = self.prepare(spec)
        token = self.cancellation
        if token is None and spec.deadline_cycles is not None:
            token = CancellationToken(spec.deadline_cycles, query=spec.name)
        return self.execute_plan(spec.name, plan, cancellation=token)

    def execute_plan(
        self,
        query_name: str,
        plan: PhysicalPlan,
        cancellation=None,
    ) -> QueryResult:
        token = cancellation if cancellation is not None else self.cancellation
        simulator = Simulator(
            self.device, injector=self.fault_injector, cancellation=token
        )
        context = ExecutionContext()
        checkpoint = self.checkpoint
        if checkpoint is not None:
            checkpoint.begin_attempt(
                tuple(p.pipeline_id for p in plan.pipelines)
            )
        segment_cache = self.segment_cache
        segment_keys: Tuple[str, ...] = ()
        if segment_cache is not None:
            segment_keys = segment_cache.keys_for(
                plan,
                self.database,
                self.device.name,
                partitioned_joins=self.partitioned_joins,
                num_partitions=self.num_partitions,
                adaptive_fact=self.adaptive_fact,
            )
        # Keys already present before each segment runs, so a completed
        # segment's contribution (for the cross-query cache) is the diff.
        seen_intermediates: set = set()
        seen_hash_tables: set = set()

        def _segment_diff():
            new_i = {
                key: value
                for key, value in context.intermediates.items()
                if key not in seen_intermediates
            }
            new_h = {
                key: value
                for key, value in context.hash_tables.items()
                if key not in seen_hash_tables
            }
            seen_intermediates.update(new_i)
            seen_hash_tables.update(new_h)
            return new_i, new_h

        try:
            for index, pipeline in enumerate(plan.pipelines):
                if checkpoint is not None and checkpoint.restore(
                    pipeline.pipeline_id, context
                ):
                    _segment_diff()
                    continue
                if segment_cache is not None and segment_cache.restore(
                    segment_keys[index], context
                ):
                    new_i, new_h = _segment_diff()
                    if checkpoint is not None:
                        checkpoint.note_restored(new_i, new_h)
                    add_event(
                        "segment_cache.resume",
                        query=query_name,
                        segment=pipeline.pipeline_id,
                    )
                    continue
                simulator.begin_segment(pipeline.pipeline_id)
                self._run_pipeline(pipeline, simulator, context)
                if checkpoint is not None:
                    checkpoint.record(pipeline.pipeline_id, context)
                if segment_cache is not None:
                    new_i, new_h = _segment_diff()
                    segment_cache.store(
                        segment_keys[index],
                        SegmentCheckpoint.capture(
                            pipeline.pipeline_id, new_i, new_h
                        ),
                    )
        finally:
            # Charge even a failed run's completed-segment cycles to the
            # token: the deadline is cumulative across resilient retries.
            if token is not None:
                token.charge(simulator.counters.elapsed_cycles)
        output = context.intermediate(plan.output_pipeline)
        counters = simulator.counters
        profiler = Profiler(self.device)
        return QueryResult(
            query=query_name,
            engine=self.name,
            device=self.device.name,
            batch=output,
            columns=plan.output_columns,
            elapsed_ms=self.device.cycles_to_ms(counters.elapsed_cycles),
            counters=counters,
            report=profiler.report(counters),
            dictionaries=dict(plan.output_dictionaries),
        )

    # -- shared helpers ----------------------------------------------------

    def _source_batch(
        self, pipeline: Pipeline, context: ExecutionContext
    ) -> Batch:
        """Load the pipeline's input columns (renamed) as one batch."""
        if pipeline.source_table is not None:
            table = self.database.table(pipeline.source_table)
            reverse = {new: old for old, new in pipeline.source_rename.items()}
            return {
                name: table.column(reverse.get(name, name))
                for name in pipeline.source_columns
            }
        upstream = context.intermediate(pipeline.source_intermediate)
        return {name: upstream[name] for name in pipeline.source_columns}

    @staticmethod
    def _functional_pass(
        pipeline: Pipeline, batches: Iterable[Batch], context: ExecutionContext
    ) -> Tuple[Optional[Batch], List[int], List[int], int]:
        """Run the pipeline's operators over ``batches`` into its sink.

        The one place any engine moves real data: ``sink.start``, then
        per batch every op's ``apply`` and ``sink.consume``, then
        ``sink.finalize``.  The output is registered with its arrays
        made read-only, because checkpoints and segment/result caches
        hold them by reference.  Returns ``(output, rows_in, rows_out,
        sink_rows)``: per-op row totals and the rows that reached the
        sink, which do not depend on how the input is cut into batches.
        """
        sink = pipeline.sink
        rows_in = [0] * len(pipeline.ops)
        rows_out = [0] * len(pipeline.ops)
        sink_rows = 0
        sink.start(context)
        for batch in batches:
            for index, op in enumerate(pipeline.ops):
                rows_in[index] += batch_rows(batch)
                batch = op.apply(batch, context)
                rows_out[index] += batch_rows(batch)
            sink_rows += batch_rows(batch)
            sink.consume(batch, context)
        output = sink.finalize(context)
        if output is not None:
            for array in output.values():
                array.flags.writeable = False
            context.intermediates[pipeline.output_id] = output
        return output, rows_in, rows_out, sink_rows

    @staticmethod
    def _actual_selectivity(rows_in: int, rows_out: int) -> float:
        if rows_in <= 0:
            return 0.0
        return rows_out / rows_in

    @staticmethod
    def _aux_working_set(context: "ExecutionContext", template) -> float:
        """Bytes of auxiliary structure a kernel touches at a time.

        Partition-clustered probes of a partitioned hash table touch one
        partition's worth of it (``probe_working_set``); everything else
        touches the whole structure.
        """
        if template.aux_build_id is None:
            return 0.0
        table = context.hash_table(template.aux_build_id)
        if getattr(template, "aux_partitions", 1) > 1:
            return float(getattr(table, "probe_working_set", table.nbytes))
        return float(table.nbytes)

    # -- engine-specific ---------------------------------------------------

    def _run_pipeline(
        self,
        pipeline: Pipeline,
        simulator: Simulator,
        context: ExecutionContext,
    ) -> None:
        raise NotImplementedError
