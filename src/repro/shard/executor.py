"""The scatter-gather executor: one logical query across a device pool.

Execution lifecycle (see :mod:`repro.shard.planner` for the plan split):

1. **Partition** — the fact table is hash-partitioned (round-robin
   fallback) into one database per *active* pool device; partitions are
   cached per (table, key, shard-count) so repeated queries over the
   same pool width repartition nothing.  Devices quarantined by
   :class:`~repro.shard.health.PoolHealth` are excluded from the
   scatter, so serving continues at reduced width.
2. **Scatter** — the scatter spec runs once per non-empty shard, each on
   its own device through a per-shard :class:`ResilientExecutor`, so
   admission control, fault retries, Δ-halving, engine fallback,
   checkpoints, and deadlines all compose per device.  Empty shards are
   skipped (a shard with no fact rows contributes nothing to any merge;
   when *every* shard is empty, the lowest active shard runs alone to
   reproduce single-device empty-input semantics, including
   global-aggregate identity rows).
3. **Recover** — a shard whose whole resilience chain fails (or whose
   device a ``device_down`` fault marks lost) is *relocated*: re-run on
   the lowest-index healthy device not yet tried for that shard,
   bounded by ``max_relocations`` per query.  Outcomes feed the pool
   health tracker, which quarantines persistently bad slots.
4. **Gather** — partial results are concatenated into a synthetic
   ``_shard_partials`` table and the gather spec runs over it as a
   normal single-table query on the merge device (the lowest active
   slot), so merge work is simulated, traced, and costed like any other
   query.  Plans with no aggregates and no DISTINCT merge host-side
   (concatenation + the original ordering/limit) because there is
   nothing to re-reduce.

Every executed shard runs before any is gathered, and results, records,
and traces commit in shard order on the gather path, so counters and
traces are deterministic — with or without relocations.

The merged :class:`~repro.core.QueryResult` carries fleet-level
counters (work summed across shards, critical-path elapsed time: the
slowest shard plus the merge) and a :class:`ShardReport` on its
``shard`` attribute with per-device records, partition metadata, skew,
relocation and merge accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..core import GPLEngine, QueryResult, ResilientExecutor
from ..core.checkpoint import CheckpointStore
from ..core.config import GPLConfig
from ..core.parallel import PoolTask, WorkerPool
from ..core.resilience import ENGINE_CHAIN
from ..errors import (
    DeadlineExceededError,
    DeviceLostError,
    ReproError,
    SchemaError,
)
from ..faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from ..gpu import HardwareCounters
from ..obs.tracing import maybe_span
from ..plans import QuerySpec
from ..relational import (
    ColumnDef,
    Database,
    DataType,
    PartitionCache,
    PartitionMetadata,
    Table,
    TableSchema,
    partition_database,
)
from .health import PoolHealth
from .planner import PARTIALS_TABLE, ShardPlan, decompose
from .pool import DevicePool, DeviceSlot

__all__ = ["ShardRecord", "ShardReport", "ShardedExecutor"]


@dataclass(frozen=True)
class ShardRecord:
    """One device's share of a scatter phase."""

    index: int
    device: str  # slot label, e.g. "dev2"
    spec_name: str  # device preset name
    rows_in: int  # fact rows assigned to this shard
    rows_out: int  # partial rows produced
    elapsed_ms: float
    sim_cycles: float
    kernel_launches: int
    engine: str
    retries: int
    fallbacks: int
    skipped: bool
    #: Slot was quarantined by pool health and excluded from the scatter.
    quarantined: bool = False
    #: Shard failed on this device and was handed to the relocator.
    failed: bool = False
    #: Relocation attempts consumed to land this shard (relocated
    #: records only).
    relocations: int = 0
    #: Original device of a relocated shard (relocated records only).
    relocated_from: str = ""

    def describe(self) -> str:
        if self.quarantined:
            return f"{self.device}: quarantined"
        if self.skipped:
            return f"{self.device}: skipped (0 rows)"
        if self.failed:
            return f"{self.device}: failed ({self.rows_in} rows relocated)"
        line = (
            f"{self.device}: {self.rows_in} rows -> {self.rows_out} "
            f"partials in {self.elapsed_ms:.3f} ms [{self.engine}]"
        )
        if self.relocated_from:
            line += (
                f" (relocated from {self.relocated_from}, "
                f"attempts={self.relocations})"
            )
        return line


@dataclass(frozen=True)
class ShardReport:
    """Fan-out, partition, and merge accounting for one sharded query."""

    query: str
    devices: int
    partition: PartitionMetadata
    merge_kind: str  # "reaggregate" | "distinct" | "concat"
    records: Tuple[ShardRecord, ...]
    merge_ms: float
    merge_cycles: float
    merge_engine: str
    #: Slot the gather merge ran on (the lowest active device).
    merge_device: str = "dev0"
    #: One record per relocated shard: ``device`` is the slot that
    #: finally served it, ``relocated_from`` the slot that failed.
    relocated: Tuple[ShardRecord, ...] = ()
    #: ``device_down`` accounting for this query (scheduled only counts
    #: per-query plans; the executor-wide injector reports fired deltas).
    device_faults_scheduled: int = 0
    device_faults_fired: int = 0
    device_faults_unfired: Tuple[str, ...] = ()

    @property
    def fanout(self) -> int:
        """Shards that actually executed (non-empty, wherever they landed)."""
        in_place = sum(
            1 for record in self.records
            if not record.skipped and not record.failed
        )
        return in_place + len(self.relocated)

    @property
    def relocations(self) -> int:
        """Relocation attempts consumed by this query."""
        return sum(record.relocations for record in self.relocated)

    @property
    def quarantined_devices(self) -> Tuple[str, ...]:
        return tuple(r.device for r in self.records if r.quarantined)

    @property
    def skew(self) -> float:
        return self.partition.skew

    @property
    def makespan_ms(self) -> float:
        """Critical-path time: slowest shard plus the serial merge."""
        scatter = max(
            (
                record.elapsed_ms
                for record in self.records + self.relocated
            ),
            default=0.0,
        )
        return scatter + self.merge_ms

    def device_busy_ms(self) -> Dict[str, float]:
        """Per-device busy time (the utilization metric's raw material)."""
        busy: Dict[str, float] = {}
        for record in self.records:
            busy[record.device] = (
                busy.get(record.device, 0.0) + record.elapsed_ms
            )
        for record in self.relocated:
            busy[record.device] = (
                busy.get(record.device, 0.0) + record.elapsed_ms
            )
        busy[self.merge_device] = (
            busy.get(self.merge_device, 0.0) + self.merge_ms
        )
        return busy

    def describe(self) -> str:
        lines = [
            f"shard report for {self.query}: {self.fanout}/{self.devices} "
            f"devices, {self.partition.describe()}, merge={self.merge_kind} "
            f"({self.merge_ms:.3f} ms on {self.merge_engine})",
        ]
        lines.extend(f"  {record.describe()}" for record in self.records)
        lines.extend(f"  {record.describe()}" for record in self.relocated)
        return "\n".join(lines)


def _dtype_for(array: np.ndarray, dictionary: Optional[Tuple[str, ...]]) -> DataType:
    """Partials-schema type for one partial-result column."""
    if dictionary is not None:
        return DataType.DICT
    if array.dtype == np.float32:
        return DataType.FLOAT32
    if np.issubdtype(array.dtype, np.floating):
        return DataType.FLOAT64
    if array.dtype == np.int32:
        return DataType.INT32
    return DataType.INT64


def _split_device_specs(
    plan: Optional[FaultPlan],
) -> Tuple[Optional[FaultPlan], Tuple[FaultSpec, ...]]:
    """Split ``device_down`` specs out of a fault plan.

    The engines never see device-loss faults — they are whole-slot
    events consumed at the shard layer — so a plan is divided into the
    engine residue (everything else, ``None`` when empty) and the
    device specs.
    """
    if plan is None:
        return None, ()
    device = tuple(
        spec for spec in plan.faults if spec.kind is FaultKind.DEVICE_LOST
    )
    if not device:
        return plan, ()
    engine = tuple(
        spec for spec in plan.faults if spec.kind is not FaultKind.DEVICE_LOST
    )
    residue = (
        FaultPlan(faults=engine, seed=plan.seed) if engine else None
    )
    return residue, device


class ShardedExecutor:
    """Run logical queries across a :class:`DevicePool` (see module doc)."""

    def __init__(
        self,
        database: Database,
        pool: DevicePool,
        config: Optional[GPLConfig] = None,
        resilient: bool = True,
        fault_plans: Union[None, FaultPlan, Sequence[Optional[FaultPlan]]] = None,
        memory_budget_bytes: Optional[float] = None,
        max_retries: int = 2,
        engines: Sequence[str] = ENGINE_CHAIN,
        partitioned_joins: bool = False,
        plan_cache=None,
        deadline_cycles: Optional[float] = None,
        checkpoint_store: Optional[CheckpointStore] = None,
        checkpoints: bool = True,
        segment_cache=None,
        max_relocations: int = 2,
        quarantine_threshold: int = 2,
        quarantine_cooldown: int = 2,
        quarantine_probes: int = 1,
    ) -> None:
        self.database = database
        self.pool = pool
        self.config = config or GPLConfig()
        self.resilient = resilient
        if fault_plans is not None and not isinstance(fault_plans, FaultPlan):
            fault_plans = tuple(fault_plans)
            if len(fault_plans) != len(pool):
                raise SchemaError(
                    f"fault_plans sequence has {len(fault_plans)} entries "
                    f"for a {len(pool)}-device pool; pass one plan per "
                    "slot (None for no injection)"
                )
        self.fault_plans = fault_plans
        #: Uniform per-device budget override; ``None`` defers to each
        #: slot's own budget (which defaults to full device memory).
        self.memory_budget_bytes = memory_budget_bytes
        self.max_retries = max_retries
        self.engines = tuple(engines)
        self.partitioned_joins = partitioned_joins
        if plan_cache is None:
            # Deferred: repro.serve imports this module.
            from ..serve.caches import PlanCache

            plan_cache = PlanCache()
        #: Shared by every shard and the gather merge, so a repeated
        #: scatter skips optimization, lowering and gather statistics.
        #: Keys cover each shard database's row counts and bytes, so
        #: shards keep their own plans rather than one rebound plan.
        self.plan_cache = plan_cache
        self.deadline_cycles = deadline_cycles
        self.checkpoint_store = checkpoint_store
        self.checkpoints = checkpoints
        #: Optional cross-query :class:`repro.core.checkpoint.SegmentCache`
        #: shared across shards and the gather merge.  Shard databases have
        #: distinct fingerprints, so shard entries never alias whole-table
        #: entries — the cache pays off when the same shard recurs.
        self.segment_cache = segment_cache
        #: Runs each scatter task inline under a private tracer.
        self.worker_pool = WorkerPool()
        #: Per-query relocation budget for failed shards.
        self.max_relocations = max_relocations
        #: Device failure domains: per-slot health driven by shard
        #: outcomes.  ``quarantine_threshold=0`` disables tracking.
        self.health = PoolHealth(
            len(pool),
            threshold=quarantine_threshold,
            cooldown=quarantine_cooldown,
            probe_budget=quarantine_probes,
        )
        # Split executor-wide plans once: engines get the residue, the
        # persistent device injector eats every device_down spec.  A
        # per-slot entry with segment "*" is pinned to that slot's name
        # so "kill whatever runs on slot 2" means slot 2, not "first
        # slot consulted".
        self._engine_fault_plans: Union[
            None, FaultPlan, Tuple[Optional[FaultPlan], ...]
        ]
        device_specs: List[FaultSpec] = []
        if self.fault_plans is None:
            self._engine_fault_plans = None
        elif isinstance(self.fault_plans, FaultPlan):
            residue, specs = _split_device_specs(self.fault_plans)
            self._engine_fault_plans = residue
            device_specs.extend(specs)
        else:
            residues: List[Optional[FaultPlan]] = []
            for index, entry in enumerate(self.fault_plans):
                residue, specs = _split_device_specs(entry)
                residues.append(residue)
                for spec in specs:
                    if spec.segment == "*":
                        spec = FaultSpec(
                            kind=spec.kind,
                            segment=f"dev{index}",
                            kernel=spec.kernel,
                            after_cycle=spec.after_cycle,
                            before_cycle=spec.before_cycle,
                            times=spec.times,
                        )
                    device_specs.append(spec)
            self._engine_fault_plans = tuple(residues)
        self._device_injector: Optional[FaultInjector] = (
            FaultInjector(FaultPlan(faults=tuple(device_specs)))
            if device_specs
            else None
        )
        self._partition_cache = PartitionCache()

    # -- partitioning -----------------------------------------------------

    def _partitions(
        self, plan: ShardPlan, num_shards: int
    ) -> Tuple[List[Database], PartitionMetadata]:
        key = (
            plan.partition_table,
            plan.partition_key,
            num_shards,
            self.database.fingerprint,
        )
        return self._partition_cache.get_or_compute(
            key,
            lambda: partition_database(
                self.database,
                num_shards,
                plan.partition_table,
                key=plan.partition_key,
            ),
        )

    def _engine_fault_plan_for(self, slot: DeviceSlot) -> Optional[FaultPlan]:
        plans = self._engine_fault_plans
        if plans is None or isinstance(plans, FaultPlan):
            return plans
        return plans[slot.index]

    # -- execution --------------------------------------------------------

    def execute(
        self,
        spec: QuerySpec,
        engines: Optional[Sequence[str]] = None,
        share: int = 1,
        engines_by_device: Optional[Dict[int, Sequence[str]]] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> QueryResult:
        """Scatter ``spec`` across the active pool and merge the partials.

        The serving layer uses the overrides: ``share`` is how many
        concurrent queries split each device (every shard gets
        ``concurrency // share`` kernel slots and ``budget / share``
        memory on its device), ``engines`` replaces the fallback chain
        for every shard, ``engines_by_device`` overrides it per device
        index (per-device breaker degradation), and ``fault_plan``
        overrides the executor-wide fault plans for this query.
        """
        try:
            return self._execute(
                spec,
                engines=engines,
                share=share,
                engines_by_device=engines_by_device,
                fault_plan=fault_plan,
            )
        finally:
            # Cooldowns are counted in *completed* queries — success or
            # failure, the pool served one more query.
            self.health.on_query_complete()

    def _execute(
        self,
        spec: QuerySpec,
        engines: Optional[Sequence[str]],
        share: int,
        engines_by_device: Optional[Dict[int, Sequence[str]]],
        fault_plan: Optional[FaultPlan],
    ) -> QueryResult:
        plan = decompose(spec, self.database)
        # Quarantined slots are excluded from the scatter: the pool
        # repartitions over the active width (cached per shard count).
        active = self.health.active_indices()
        active_set = set(active)
        shard_dbs, metadata = self._partitions(plan, len(active))
        executed = [
            position
            for position in range(len(active))
            if metadata.shard_rows[position] > 0
        ]
        if not executed:
            # Every shard is empty: run the lowest active shard alone so
            # empty-input semantics (including global-aggregate identity
            # rows) match single-device execution exactly.
            executed = [0]

        # A per-query fault-plan override replaces the executor-wide
        # plans entirely: split off its device_down specs into a fresh
        # injector and hand the engines only the residue.
        override = fault_plan is not None
        query_residue, query_device_specs = _split_device_specs(fault_plan)
        query_injector = (
            FaultInjector(FaultPlan(faults=query_device_specs))
            if query_device_specs
            else None
        )
        injector = query_injector if override else self._device_injector
        persistent_fired_before = (
            len(self._device_injector.fired)
            if injector is self._device_injector and injector is not None
            else 0
        )

        with maybe_span(
            "shard.execute",
            "shard",
            query=spec.name,
            devices=len(self.pool),
            fanout=len(executed),
            scheme=metadata.scheme,
        ):
            # Scatter: run every executed shard (each under a private
            # tracer), then gather **in shard order** — each task's
            # trace grafts back at its ordered position.  Recovery
            # (device-loss checks, relocation) happens on the ordered
            # gather path.  On an unrecoverable failure the lowest shard
            # position wins; traces of later shards are discarded, so
            # the export reads as a scatter that stopped there.
            records: List[Optional[ShardRecord]] = [None] * len(self.pool)
            for index in range(len(self.pool)):
                if index in active_set:
                    continue
                slot = self.pool.slot(index)
                records[index] = ShardRecord(
                    index=index,
                    device=slot.name,
                    spec_name=slot.spec.name,
                    rows_in=0,
                    rows_out=0,
                    elapsed_ms=0.0,
                    sim_cycles=0.0,
                    kernel_launches=0,
                    engine="",
                    retries=0,
                    fallbacks=0,
                    skipped=True,
                    quarantined=True,
                )
            tasks: List[Optional[PoolTask]] = [None] * len(active)
            for position, index in enumerate(active):
                slot = self.pool.slot(index)
                if position not in executed:
                    records[index] = ShardRecord(
                        index=index,
                        device=slot.name,
                        spec_name=slot.spec.name,
                        rows_in=0,
                        rows_out=0,
                        elapsed_ms=0.0,
                        sim_cycles=0.0,
                        kernel_launches=0,
                        engine="",
                        retries=0,
                        fallbacks=0,
                        skipped=True,
                    )
                    continue
                shard_engines = engines
                if engines_by_device and index in engines_by_device:
                    shard_engines = engines_by_device[index]
                shard_plan = (
                    query_residue if override
                    else self._engine_fault_plan_for(slot)
                )
                tasks[position] = self.worker_pool.submit(
                    lambda: self._run_shard(
                        plan.scatter_spec,
                        shard_dbs[position],
                        slot,
                        engines=shard_engines,
                        share=max(1, share),
                        fault_plan=shard_plan,
                    )
                )

            partials: List[QueryResult] = []
            relocated: List[ShardRecord] = []
            relocations_left = self.max_relocations
            failure: Optional[Exception] = None
            for position, index in enumerate(active):
                task = tasks[position]
                if task is None:
                    continue
                slot = self.pool.slot(index)
                if failure is not None:
                    continue  # trace dropped: the scatter stopped earlier
                error = task.error
                task.merge_trace()
                if error is None and injector is not None \
                        and injector.takes_device(slot.name):
                    # The whole slot died: the shard's work is lost even
                    # though its chain succeeded.
                    error = DeviceLostError(
                        f"device {slot.name} lost while serving shard "
                        f"{position} of {spec.name}",
                        device=slot.name,
                        injected=True,
                    )
                if error is None:
                    result = task.result
                    self.health.record_success(index)
                    partials.append(result)
                    resilience = result.resilience
                    records[index] = ShardRecord(
                        index=index,
                        device=slot.name,
                        spec_name=slot.spec.name,
                        rows_in=metadata.shard_rows[position],
                        rows_out=result.num_rows,
                        elapsed_ms=result.elapsed_ms,
                        sim_cycles=result.counters.elapsed_cycles,
                        kernel_launches=result.counters.kernel_launches,
                        engine=result.engine,
                        retries=getattr(resilience, "retries", 0),
                        fallbacks=getattr(resilience, "fallbacks", 0),
                        skipped=False,
                    )
                    continue
                if isinstance(error, DeadlineExceededError) \
                        or not isinstance(error, ReproError):
                    # Deadlines are the caller's time budget, not a
                    # device fault: never relocated, never blamed on
                    # the slot.  Non-library errors are bugs.
                    failure = error
                    continue
                self.health.record_failure(index)
                records[index] = ShardRecord(
                    index=index,
                    device=slot.name,
                    spec_name=slot.spec.name,
                    rows_in=metadata.shard_rows[position],
                    rows_out=0,
                    elapsed_ms=0.0,
                    sim_cycles=0.0,
                    kernel_launches=0,
                    engine="",
                    retries=0,
                    fallbacks=0,
                    skipped=False,
                    failed=True,
                )
                landed, attempts, relocations_left, relocation_failure = \
                    self._relocate(
                        plan,
                        spec,
                        shard_dbs[position],
                        position,
                        slot,
                        engines=engines,
                        engines_by_device=engines_by_device,
                        share=share,
                        override=override,
                        query_residue=query_residue,
                        injector=injector,
                        failed_devices={index},
                        relocations_left=relocations_left,
                    )
                if landed is None:
                    failure = relocation_failure or error
                    continue
                result, target_slot = landed
                partials.append(result)
                resilience = result.resilience
                relocated.append(
                    ShardRecord(
                        index=index,
                        device=target_slot.name,
                        spec_name=target_slot.spec.name,
                        rows_in=metadata.shard_rows[position],
                        rows_out=result.num_rows,
                        elapsed_ms=result.elapsed_ms,
                        sim_cycles=result.counters.elapsed_cycles,
                        kernel_launches=result.counters.kernel_launches,
                        engine=result.engine,
                        retries=getattr(resilience, "retries", 0),
                        fallbacks=getattr(resilience, "fallbacks", 0),
                        skipped=False,
                        relocations=attempts,
                        relocated_from=slot.name,
                    )
                )
            if failure is not None:
                raise failure

            merge_slot = self.pool.slot(active[0])
            merged = self._merge(spec, plan, partials, merge_slot)
            if injector is not None and injector is self._device_injector:
                fired_delta = len(injector.fired) - persistent_fired_before
                faults_scheduled = fired_delta
                faults_fired = fired_delta
                faults_unfired: Tuple[str, ...] = ()
            elif injector is not None:
                faults_scheduled = injector.scheduled_total
                faults_fired = len(injector.fired)
                faults_unfired = tuple(injector.unfired_specs())
            else:
                faults_scheduled = 0
                faults_fired = 0
                faults_unfired = ()
            report = ShardReport(
                query=spec.name,
                devices=len(self.pool),
                partition=metadata,
                merge_kind=plan.merge_kind,
                records=tuple(records),
                merge_ms=merged.elapsed_ms,
                merge_cycles=merged.counters.elapsed_cycles,
                merge_engine=merged.engine,
                merge_device=merge_slot.name,
                relocated=tuple(relocated),
                device_faults_scheduled=faults_scheduled,
                device_faults_fired=faults_fired,
                device_faults_unfired=faults_unfired,
            )
            return self._assemble(spec, partials, merged, report)

    def _relocate(
        self,
        plan: ShardPlan,
        spec: QuerySpec,
        shard_db: Database,
        position: int,
        source_slot: DeviceSlot,
        engines: Optional[Sequence[str]],
        engines_by_device: Optional[Dict[int, Sequence[str]]],
        share: int,
        override: bool,
        query_residue: Optional[FaultPlan],
        injector: Optional[FaultInjector],
        failed_devices: Set[int],
        relocations_left: int,
    ) -> Tuple[
        Optional[Tuple[QueryResult, DeviceSlot]],
        int,
        int,
        Optional[Exception],
    ]:
        """Re-run a failed shard on healthy devices, lowest index first.

        Returns ``(landed, attempts, relocations_left, failure)`` where
        ``landed`` is ``(result, target_slot)`` on success and ``None``
        when the budget or the candidate list ran out (or a deadline
        fired — ``failure`` carries it).  Every attempt — including one
        whose target a ``device_down`` fault kills before the run —
        consumes relocation budget.
        """
        attempts = 0
        while relocations_left > 0:
            candidates = [
                index
                for index in range(len(self.pool))
                if self.health.available(index)
                and index not in failed_devices
            ]
            if not candidates:
                break
            target = candidates[0]
            target_slot = self.pool.slot(target)
            relocations_left -= 1
            attempts += 1
            with maybe_span(
                "shard.relocate",
                "shard",
                query=spec.name,
                shard=position,
                source=source_slot.name,
                target=target_slot.name,
            ):
                if injector is not None \
                        and injector.takes_device(target_slot.name):
                    self.health.record_failure(target)
                    failed_devices.add(target)
                    continue
                shard_engines = engines
                if engines_by_device and target in engines_by_device:
                    shard_engines = engines_by_device[target]
                shard_plan = (
                    query_residue if override
                    else self._engine_fault_plan_for(target_slot)
                )
                try:
                    result = self._run_shard(
                        plan.scatter_spec,
                        shard_db,
                        target_slot,
                        engines=shard_engines,
                        share=max(1, share),
                        fault_plan=shard_plan,
                    )
                except DeadlineExceededError as exc:
                    return None, attempts, relocations_left, exc
                except ReproError:
                    self.health.record_failure(target)
                    failed_devices.add(target)
                    continue
                self.health.record_success(target)
                return (
                    (result, target_slot),
                    attempts,
                    relocations_left,
                    None,
                )
        return None, attempts, relocations_left, None

    def _run_shard(
        self,
        scatter_spec: QuerySpec,
        shard_db: Database,
        slot: DeviceSlot,
        engines: Optional[Sequence[str]],
        share: int,
        fault_plan: Optional[FaultPlan],
    ) -> QueryResult:
        device = slot.spec
        if share > 1:
            device = device.with_overrides(
                concurrency=max(1, device.concurrency // share)
            )
        budget = self.memory_budget_bytes
        if budget is None:
            budget = slot.memory_budget_bytes
        if budget is None and share > 1:
            # Sharing an unbounded device still splits its real memory.
            budget = slot.effective_budget_bytes
        if budget is not None:
            budget = budget / share
        with maybe_span(
            "shard.scatter",
            "shard",
            query=scatter_spec.name,
            device=slot.name,
            rows=shard_db.table(
                scatter_spec.table_ref(scatter_spec.fact).table
            ).num_rows,
        ):
            if not self.resilient:
                engine = GPLEngine(
                    shard_db,
                    device,
                    config=self.config,
                    partitioned_joins=self.partitioned_joins,
                )
                engine.plan_cache = self.plan_cache
                engine.segment_cache = self.segment_cache
                return engine.execute(scatter_spec)
            executor = ResilientExecutor(
                shard_db,
                device,
                config=self.config,
                fault_plan=fault_plan,
                memory_budget_bytes=budget,
                max_retries=self.max_retries,
                engines=engines or self.engines,
                partitioned_joins=self.partitioned_joins,
                plan_cache=self.plan_cache,
                deadline_cycles=self.deadline_cycles,
                checkpoint_store=self.checkpoint_store,
                checkpoints=self.checkpoints,
                segment_cache=self.segment_cache,
            )
            return executor.execute(scatter_spec)

    # -- merge ------------------------------------------------------------

    def _partials_table(self, partials: Sequence[QueryResult]) -> Table:
        """Concatenate partial batches into one deterministic table.

        Shards are concatenated in shard order; within a shard the
        engine's output order is deterministic, so two runs build
        byte-identical partials tables.
        """
        first = partials[0]
        columns: Dict[str, np.ndarray] = {}
        defs: List[ColumnDef] = []
        for name in first.columns:
            arrays = [partial.batch[name] for partial in partials]
            merged = np.concatenate(arrays) if len(arrays) > 1 else arrays[0]
            dictionary = first.dictionaries.get(name)
            defs.append(
                ColumnDef(name, _dtype_for(merged, dictionary), dictionary)
            )
            columns[name] = merged
        return Table(TableSchema(tuple(defs)), columns)

    def _merge(
        self,
        spec: QuerySpec,
        plan: ShardPlan,
        partials: Sequence[QueryResult],
        merge_slot: DeviceSlot,
    ) -> QueryResult:
        table = self._partials_table(partials)
        with maybe_span(
            "shard.gather",
            "shard",
            query=spec.name,
            partial_rows=table.num_rows,
            kind=plan.merge_kind,
        ):
            if plan.gather_spec is None:
                return self._concat_merge(spec, table, partials[0], merge_slot)
            gather_db = Database()
            gather_db.add(PARTIALS_TABLE, table)
            if not self.resilient:
                engine = GPLEngine(
                    gather_db, merge_slot.spec, config=self.config
                )
                engine.plan_cache = self.plan_cache
                engine.segment_cache = self.segment_cache
                return engine.execute(plan.gather_spec)
            # The merge runs resiliently (admission + fallback) but
            # without fault injection: fault schedules target shard
            # work, and a deterministic merge keeps soak invariants
            # anchored to the scatter phase.
            executor = ResilientExecutor(
                gather_db,
                merge_slot.spec,
                config=self.config,
                memory_budget_bytes=merge_slot.memory_budget_bytes,
                max_retries=self.max_retries,
                engines=self.engines,
                plan_cache=self.plan_cache,
                checkpoint_store=self.checkpoint_store,
                checkpoints=self.checkpoints,
                segment_cache=self.segment_cache,
            )
            return executor.execute(plan.gather_spec)

    def _concat_merge(
        self,
        spec: QuerySpec,
        table: Table,
        first: QueryResult,
        merge_slot: DeviceSlot,
    ) -> QueryResult:
        """Host-side merge for plain selections: concat + order + limit."""
        if spec.order_by:
            table = table.sort_by(spec.order_by, spec.order_desc)
        batch = {
            name: table.column(name)[: spec.limit]
            if spec.limit is not None
            else table.column(name)
            for name in table.schema.names
        }
        return QueryResult(
            query=spec.name,
            engine="host-concat",
            device=merge_slot.spec.name,
            batch=batch,
            columns=tuple(table.schema.names),
            elapsed_ms=0.0,
            counters=HardwareCounters(num_cus=0),
            report=first.report,
            dictionaries=dict(first.dictionaries),
        )

    # -- assembly ---------------------------------------------------------

    def _assemble(
        self,
        spec: QuerySpec,
        partials: Sequence[QueryResult],
        merged: QueryResult,
        report: ShardReport,
    ) -> QueryResult:
        counters = self._fleet_counters(partials, merged)
        engines = {partial.engine for partial in partials}
        engine = engines.pop() if len(engines) == 1 else "mixed"
        names = sorted({slot.spec.name for slot in self.pool})
        result = QueryResult(
            query=spec.name,
            engine=f"sharded:{engine}x{report.fanout}",
            device=f"pool[{len(self.pool)}: {' + '.join(names)}]",
            batch=merged.batch,
            columns=merged.columns,
            elapsed_ms=report.makespan_ms,
            counters=counters,
            report=merged.report,
            dictionaries=dict(merged.dictionaries),
            resilience=merged.resilience,
            shard=report,
        )
        return result

    def _fleet_counters(
        self, partials: Sequence[QueryResult], merged: QueryResult
    ) -> HardwareCounters:
        """Fleet-level counters: work summed, elapsed on the critical path.

        ``elapsed_cycles`` adds the slowest shard's device-local cycles
        to the merge cycles — the simulated makespan in cycles (exact
        for homogeneous pools; for mixed pools the per-device clocks
        differ and :attr:`ShardReport.makespan_ms` is the comparable
        measure).
        """
        counters = HardwareCounters(
            num_cus=sum(partial.counters.num_cus for partial in partials)
        )
        sources = list(partials) + [merged]
        for source in sources:
            other = source.counters
            counters.compute_cycles += other.compute_cycles
            counters.memory_cycles += other.memory_cycles
            counters.stall_cycles += other.stall_cycles
            counters.channel_cycles += other.channel_cycles
            counters.delay_cycles += other.delay_cycles
            counters.launch_overhead_cycles += other.launch_overhead_cycles
            counters.bytes_materialized += other.bytes_materialized
            counters.bytes_channel += other.bytes_channel
            counters.cache_hits += other.cache_hits
            counters.cache_accesses += other.cache_accesses
            counters.kernel_launches += other.kernel_launches
            counters.kernel_stats.extend(other.kernel_stats)
        scatter_cycles = max(
            (partial.counters.elapsed_cycles for partial in partials),
            default=0.0,
        )
        counters.elapsed_cycles = (
            scatter_cycles + merged.counters.elapsed_cycles
        )
        return counters
