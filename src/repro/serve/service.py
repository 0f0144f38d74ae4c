"""QueryService: many queries, one simulated device.

The serving model extends the paper's resource-sharing story one level
up.  Within a query, GPL's kernels share the device's concurrent-kernel
slots (Section 5's C) and its memory; across queries, the service
partitions exactly those two resources between the members of each
admission round:

* every query in a round of ``k`` gets ``max(1, C // k)`` kernel slots —
  its segments pipeline within the partition, and the per-query slowdown
  from losing slots is the simulated cost of co-residency;
* the shared memory budget is split evenly, and each partition is
  enforced by the *per-query* admission control of
  :class:`~repro.core.ResilientExecutor` (shrink down the Δ ladder,
  typed rejection at the floor).

A round's simulated makespan is the maximum of its members' execution
times — members run concurrently — and rounds execute in sequence, so a
query's service latency is the virtual time spent waiting for its round
plus its own execution time.

Repeat traffic is fast because planning is cached at three levels: the
plan cache (optimization + lowering, keyed by query/database/device/
config), the memoized configuration search, and the per-device Γ table
(:mod:`repro.model`).  All three expose hit/miss counters, reported
per drain on the :class:`~repro.serve.report.ServiceReport`.

Two further levels cache *executed* work (both opt-in; the serve CLI
enables them by default):

* a :class:`~repro.serve.caches.ResultCache` consulted before
  admission — a hit answers the query with outcome ``cached`` at zero
  admission cost, bypassing scheduling and execution entirely;
* a cross-query :class:`~repro.core.checkpoint.SegmentCache` attached
  to every engine the service builds, so distinct queries sharing a
  lowered segment prefix resume from materialized segment outputs.

``batch_dedupe=True`` adds shared-scan batched admission: each drain
executes one representative of every set of identical pending specs
(fanning the result out to the duplicates, marked ``deduped``) and
groups same-fact-table queries into admission rounds so a round
amortizes one scan of the fact across its members.

Everything is deterministic: same database seed, same trace, same fault
plan => identical schedule, identical results, identical report
counters (given the same starting cache state; see ``docs/serving.md``).
"""

from __future__ import annotations

from collections import Counter as _Counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..cancel import CancellationToken
from ..core import (
    CheckpointStore,
    GPLConfig,
    GPLEngine,
    QueryResult,
    ResilientExecutor,
    WorkerPool,
)
from ..core.store import counters_delta
from ..errors import DeadlineExceededError, ExecutionError, ReproError
from ..faults import FaultInjector, FaultPlan
from ..gpu import DeviceSpec
from ..model import (
    ConfigurationSearch,
    calibrate_channels,
    calibration_cache_stats,
    plan_cost_inputs,
    search_cache_stats,
)
from ..obs import DriftRecorder, MetricsRegistry
from ..obs.tracing import add_event, maybe_span
from ..plans import QuerySpec
from ..relational import Database
from ..shard import DevicePool, ShardedExecutor
from .breaker import CircuitBreaker, breaker_states
from .caches import PlanCache, ResultCache, SegmentCache
from .report import QueryRecord, ServiceReport
from .scheduler import ScheduledQuery, Scheduler

__all__ = ["QueryService", "QUEUE_POLICIES"]

#: Backpressure policies for the bounded admission queue: ``reject``
#: sheds the *arriving* query, ``shed-oldest`` drops the oldest queued
#: ticket to make room (freshness-biased serving).
QUEUE_POLICIES: Tuple[str, ...] = ("reject", "shed-oldest")


#: Report fields that carry only some of their store's counters.
_REPORTED = {
    "plan_cache": ("hits", "misses", "evictions"),
    "checkpoint": ("recorded", "resumed", "evicted", "invalidated"),
}


class QueryService:
    """Accepts many queries and serves them from one simulated device.

    Two submission paths share the same machinery:

    * :meth:`submit` — synchronous: execute now (a round of one, full
      slots and budget) and return the :class:`QueryResult`;
    * :meth:`enqueue` + :meth:`drain` — asynchronous: queue tickets, then
      schedule and execute the whole backlog concurrently and return a
      :class:`ServiceReport`.  Results stay retrievable by ticket via
      :meth:`result_for`.
    """

    def __init__(
        self,
        database: Database,
        device: DeviceSpec,
        config: Optional[GPLConfig] = None,
        policy: str = "fifo",
        max_concurrent: int = 4,
        memory_budget_bytes: Optional[float] = None,
        resilient: bool = True,
        fault_plan: Optional[FaultPlan] = None,
        max_retries: int = 2,
        partitioned_joins: bool = False,
        plan_cache: Optional[PlanCache] = None,
        tuned: bool = False,
        registry: Optional[MetricsRegistry] = None,
        default_deadline_cycles: Optional[float] = None,
        breaker_threshold: Optional[int] = 3,
        breaker_cooldown: int = 2,
        breaker_probes: int = 1,
        max_pending: Optional[int] = None,
        queue_policy: str = "reject",
        checkpoint_store: Optional[CheckpointStore] = None,
        pool: Optional[DevicePool] = None,
        result_cache: Optional[ResultCache] = None,
        result_cache_bytes: Optional[int] = None,
        segment_cache: Optional[SegmentCache] = None,
        segment_cache_bytes: Optional[int] = None,
        batch_dedupe: bool = False,
        max_relocations: int = 2,
        quarantine_threshold: int = 2,
        quarantine_cooldown: int = 2,
        quarantine_probes: int = 1,
    ):
        if queue_policy not in QUEUE_POLICIES:
            raise ExecutionError(
                f"unknown queue policy {queue_policy!r}; "
                f"expected one of {QUEUE_POLICIES}"
            )
        if max_pending is not None and max_pending < 1:
            raise ExecutionError("max_pending must be at least 1")
        if pool is not None and tuned:
            raise ExecutionError(
                "tuned mode is single-device: per-segment configs are "
                "searched against one device, not a pool"
            )
        self.database = database
        self.device = device
        self.config = config or GPLConfig()
        self.scheduler = Scheduler(policy)
        self.max_concurrent = max(1, max_concurrent)
        #: Multi-device mode: when a :class:`~repro.shard.DevicePool` is
        #: attached, every query scatter-gathers across it instead of
        #: running on ``device`` (which remains the planning/estimation
        #: device).  Admission rounds are then sized by the *tightest*
        #: device budget — each round member gets a share of every
        #: device, so the constraining device governs.
        self.pool = pool
        #: Whether the admission budget was pinned by the caller; an
        #: implicit pooled budget re-derives from the *active* (non-
        #: quarantined) slots at each drain.
        self._explicit_budget = memory_budget_bytes is not None
        if memory_budget_bytes is not None:
            self.memory_budget_bytes = float(memory_budget_bytes)
        elif pool is not None:
            self.memory_budget_bytes = min(
                slot.effective_budget_bytes for slot in pool
            )
        else:
            self.memory_budget_bytes = float(device.global_mem_bytes)
        self.resilient = resilient
        self.fault_plan = fault_plan
        self.max_retries = max_retries
        self.partitioned_joins = partitioned_joins
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        #: ``tuned`` runs every query with the cost model's per-segment
        #: optimal configs (Section 4.1's search) instead of the service's
        #: single baseline config — the serving twin of
        #: :meth:`repro.bench.runner.ExperimentContext.optimized_gpl`.
        self.tuned = tuned
        #: Metrics registry every drain reports into; share one across
        #: services to aggregate, or read ``service.registry`` after.
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Predicted-vs-measured cycles per completed query (Figs 11/24
        #: from live telemetry); feeds ``model_drift_*`` metrics.
        self.drift = DriftRecorder(registry=self.registry)
        #: Service-level deadline applied to every query whose spec does
        #: not carry its own ``deadline_cycles``.
        self.default_deadline_cycles = default_deadline_cycles
        #: Circuit-breaker tuning; ``breaker_threshold=None`` (or the
        #: non-resilient mode, which has no fallback chain to protect)
        #: disables breakers entirely.
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.breaker_probes = breaker_probes
        self._breakers: Dict[str, CircuitBreaker] = {}
        #: Bounded admission queue: ``None`` keeps the historical
        #: unbounded behaviour.
        self.max_pending = max_pending
        self.queue_policy = queue_policy
        #: Shared segment-checkpoint pool, bounded service-wide; every
        #: resilient execution resumes retries through it.
        self.checkpoint_store = (
            checkpoint_store if checkpoint_store is not None
            else CheckpointStore()
        )
        #: Whole-result cache consulted before admission (see module
        #: doc).  Opt-in: pass an instance, or a byte budget to build
        #: one; ``None`` (the default) leaves results uncached so
        #: existing traces keep their exact schedules.
        self.result_cache = (
            result_cache
            if result_cache is not None
            else (
                ResultCache(result_cache_bytes)
                if result_cache_bytes
                else None
            )
        )
        #: Cross-query segment cache attached to every engine the
        #: service builds (opt-in, same convention as above).
        self.segment_cache = (
            segment_cache
            if segment_cache is not None
            else (
                SegmentCache(max_bytes=segment_cache_bytes)
                if segment_cache_bytes
                else None
            )
        )
        #: Shared-scan batched admission: dedupe identical pending
        #: specs per drain and group same-fact-table queries into
        #: admission rounds.
        self.batch_dedupe = batch_dedupe
        #: Runs each round member inline under a private tracer.
        self.worker_pool = WorkerPool()
        #: Ticket -> result for every completed query this service ran.
        self.results: Dict[int, QueryResult] = {}
        self._queue: List[Tuple[int, QuerySpec, Optional[FaultPlan]]] = []
        self._shed: List[Tuple[int, QuerySpec]] = []
        self._next_ticket = 0
        self._search: Optional[ConfigurationSearch] = None
        self._sharded: Optional[ShardedExecutor] = None
        if pool is not None:
            self._sharded = ShardedExecutor(
                database,
                pool,
                config=self.config,
                resilient=resilient,
                fault_plans=fault_plan,
                max_retries=max_retries,
                partitioned_joins=partitioned_joins,
                plan_cache=self.plan_cache,
                deadline_cycles=default_deadline_cycles,
                checkpoint_store=self.checkpoint_store,
                segment_cache=self.segment_cache,
                max_relocations=max_relocations,
                quarantine_threshold=quarantine_threshold,
                quarantine_cooldown=quarantine_cooldown,
                quarantine_probes=quarantine_probes,
            )

    # -- submission -------------------------------------------------------

    @property
    def pending(self) -> int:
        """Queued-but-not-yet-drained query count."""
        return len(self._queue)

    def enqueue(
        self, spec: QuerySpec, fault_plan: Optional[FaultPlan] = None
    ) -> int:
        """Queue a query; returns its ticket (the submission index).

        ``fault_plan`` overrides the service-wide plan for this query
        only (chaos harnesses use it to vary schedules per query).  When
        the queue is bounded (``max_pending``) and full, backpressure
        applies: ``reject`` sheds the arriving query, ``shed-oldest``
        drops the oldest queued ticket instead.  Shed queries are never
        executed; they surface in the next drain's report with outcome
        ``shed`` (and in :attr:`results` not at all).
        """
        ticket = self._next_ticket
        self._next_ticket += 1
        if (
            self.max_pending is not None
            and len(self._queue) >= self.max_pending
        ):
            if self.queue_policy == "reject":
                self._shed.append((ticket, spec))
                add_event(
                    "serve.shed", query=spec.name, ticket=ticket,
                    policy=self.queue_policy,
                )
                return ticket
            oldest = self._queue.pop(0)
            self._shed.append((oldest[0], oldest[1]))
            add_event(
                "serve.shed", query=oldest[1].name, ticket=oldest[0],
                policy=self.queue_policy,
            )
        self._queue.append((ticket, spec, fault_plan))
        return ticket

    def submit(self, spec: QuerySpec) -> QueryResult:
        """Execute one query now, bypassing the queue (sync path).

        The query still flows through every cache, so a warmed service
        answers synchronous traffic without re-planning; it runs alone,
        so it gets the full device.  The sync path bypasses the bounded
        queue too — backpressure is a property of the backlog.
        """
        ticket = self._next_ticket
        self._next_ticket += 1
        self._drain_batch([(ticket, spec, None)])
        result = self.results.get(ticket)
        if result is None:
            raise self._last_error  # failure of a sync submit propagates
        return result

    def drain(self) -> ServiceReport:
        """Schedule and execute the whole backlog; empty the queue.

        Queries shed by the bounded queue since the last drain surface
        in this drain's report (outcome ``shed``, never executed).
        """
        batch, self._queue = self._queue, []
        shed, self._shed = self._shed, []
        return self._drain_batch(batch, shed)

    def run(self, specs: Sequence[QuerySpec]) -> ServiceReport:
        """Convenience: enqueue a trace, then drain it."""
        for spec in specs:
            self.enqueue(spec)
        return self.drain()

    def result_for(self, ticket: int) -> QueryResult:
        """The result a drained ticket produced (KeyError if it failed)."""
        return self.results[ticket]

    # -- internals --------------------------------------------------------

    def _probe_engine(self) -> GPLEngine:
        """A throwaway engine used for planning and footprint estimates."""
        engine = GPLEngine(
            self.database,
            self.device,
            config=self.config,
            partitioned_joins=self.partitioned_joins,
        )
        engine.plan_cache = self.plan_cache
        return engine

    def _result_key(self, probe: GPLEngine, spec: QuerySpec) -> str:
        """Result-cache key: the plan cache key plus an execution salt.

        ``plan_cache_key`` already covers everything that shapes the
        *rows* (query shape, database contents, device, plan knobs);
        the salt adds the execution parameters a cached result's
        metadata was produced under (tile size, pool width) so two
        differently-configured services never share entries.
        """
        pool_width = len(self.pool) if self.pool is not None else 1
        return (
            self.plan_cache.key_for(probe, spec)
            + f"|tile={self.config.tile_bytes}|pool={pool_width}"
        )

    def _ensure_search(self) -> ConfigurationSearch:
        if self._search is None:
            self._search = ConfigurationSearch(
                self.device, calibrate_channels(self.device)
            )
        return self._search

    def _estimate_cost(self, plan) -> float:
        """Predicted execution cycles for a plan (drives SJF ordering).

        Sums the memoized configuration search's best predicted T_Sk per
        segment — the first query of a shape pays the search, repeats hit
        the cache in :mod:`repro.model.search`.
        """
        search = self._ensure_search()
        segments = plan_cost_inputs(plan, self.database)
        return sum(
            search.best_for_segment(segment).predicted_cycles
            for segment in segments
        )

    def _plan_queries(
        self, batch: Sequence[Tuple[int, QuerySpec, Optional[FaultPlan]]]
    ) -> List[ScheduledQuery]:
        probe = self._probe_engine()
        planned: List[ScheduledQuery] = []
        for ticket, spec, fault_plan in batch:
            with maybe_span(
                "serve.plan", category="serve", query=spec.name, ticket=ticket
            ):
                hits_before = self.plan_cache.stats.hits
                plan = probe.prepare(spec)
                segment_configs = None
                if self.tuned:
                    search = self._ensure_search()
                    segments = plan_cost_inputs(plan, self.database)
                    segment_configs, est_cost = search.optimize_plan(segments)
                else:
                    est_cost = self._estimate_cost(plan)
                planned.append(
                    ScheduledQuery(
                        index=ticket,
                        spec=spec,
                        plan=plan,
                        est_cost_cycles=est_cost,
                        footprint_bytes=probe.estimated_plan_footprint(
                            plan, self.config
                        ),
                        plan_cache_hit=self.plan_cache.stats.hits
                        > hits_before,
                        segment_configs=segment_configs,
                        fault_plan=fault_plan,
                    )
                )
        return planned

    def _breaker_for(self, query: str) -> Optional[CircuitBreaker]:
        """The breaker guarding one query shape (lazily created).

        Breakers only exist in resilient mode with a threshold set: the
        non-resilient path has no fallback chain for a breaker to
        short-circuit.
        """
        if not self.resilient or not self.breaker_threshold:
            return None
        breaker = self._breakers.get(query)
        if breaker is None:
            breaker = CircuitBreaker(
                threshold=self.breaker_threshold,
                cooldown=self.breaker_cooldown,
                probe_budget=self.breaker_probes,
            )
            self._breakers[query] = breaker
        return breaker

    def _breaker_scopes(
        self, query: str
    ) -> List[Tuple[str, Optional[CircuitBreaker]]]:
        """``(scope label, breaker)`` pairs guarding one query.

        Single-device services have one service-wide scope per query
        shape; a pooled service has one scope per *active* device (an
        unhealthy device degrades only its own shard to KBE, the rest of
        the pool keeps running GPL).  Quarantined devices receive no
        shards, so they get no scope — their breakers hold state until
        pool health readmits the slot.
        """
        if self.pool is None:
            return [(query, self._breaker_for(query))]
        health = self._sharded.health
        return [
            (f"{query}@{slot.name}", self._breaker_for(f"{query}@{slot.name}"))
            for slot in self.pool
            if health.available(slot.index)
        ]

    def _admit_member(
        self,
        query: ScheduledQuery,
        scopes: List[Tuple[str, Optional[CircuitBreaker]]],
    ) -> set:
        """Breaker admission for one round member.

        Returns the scope labels whose breaker routes this query to the
        KBE tier; degradations and arrival-driven transitions are
        exported as they happen.
        """
        degraded_scopes: set = set()
        for label, breaker in scopes:
            if breaker is None:
                continue
            if breaker.on_arrival() == "degraded":
                degraded_scopes.add(label)
                self.registry.counter("breaker_degraded_total").inc()
                add_event(
                    "serve.breaker_degraded",
                    query=query.spec.name,
                    ticket=query.index,
                    scope=label,
                )
            self._emit_breaker_events(label, breaker)
        return degraded_scopes

    def _run_member(
        self,
        query: ScheduledQuery,
        slots: int,
        budget_share: float,
        share: int,
        scopes: List[Tuple[str, Optional[CircuitBreaker]]],
        degraded_scopes: set,
    ) -> QueryResult:
        """Execute one round member under its ``serve.query`` span.

        A failure settles the breakers before the span closes, so the
        transition events land inside it; success is settled by the
        caller, after the span.
        """
        with maybe_span(
            "serve.query",
            category="serve",
            query=query.spec.name,
            ticket=query.index,
        ) as span:
            try:
                result = self._execute_one(
                    query,
                    slots,
                    budget_share,
                    degraded=bool(degraded_scopes),
                    share=share,
                    degraded_scopes=degraded_scopes,
                )
            except ReproError as exc:
                if span is not None:
                    span.attrs["ok"] = False
                # A deadline says the time budget ran out, not that GPL
                # faulted.
                self._settle_breakers(
                    scopes,
                    degraded_scopes,
                    error_fault=not isinstance(exc, DeadlineExceededError),
                )
                raise
            if span is not None:
                span.attrs["ok"] = True
                span.attrs["engine"] = result.engine
        return result

    def _settle_breakers(
        self,
        scopes: List[Tuple[str, Optional[CircuitBreaker]]],
        degraded_scopes: set,
        result: Optional[QueryResult] = None,
        error_fault: Optional[bool] = None,
    ) -> None:
        """Feed one query's outcome to its breaker scope(s).

        ``error_fault`` is set when the query raised (the whole
        scatter-gather aborted, so every scope observes the fault);
        otherwise per-device shard records attribute fallbacks to the
        device that fell back.  A degraded (KBE-routed) scope says
        nothing about GPL health, and a skipped (empty) shard counts as
        trivially healthy.
        """
        if error_fault is not None:
            for label, breaker in scopes:
                if breaker is not None:
                    breaker.on_result(fault=error_fault)
                    self._emit_breaker_events(label, breaker)
            return
        if self.pool is None:
            label, breaker = scopes[0]
            if breaker is not None:
                resilience = result.resilience
                fault = (
                    label not in degraded_scopes
                    and resilience is not None
                    and resilience.fallbacks > 0
                )
                breaker.on_result(fault=fault)
                self._emit_breaker_events(label, breaker)
            return
        shard = getattr(result, "shard", None)
        by_device: Dict[str, object] = {}
        relocated_by_device: Dict[str, List] = {}
        if shard is not None:
            for record in shard.records:
                by_device[record.device] = record
            for record in shard.relocated:
                relocated_by_device.setdefault(record.device, []).append(
                    record
                )
        # Scopes may cover fewer devices than the pool (quarantined
        # slots get none), so the device comes from the scope label.
        for label, breaker in scopes:
            if breaker is None:
                continue
            device = label.rsplit("@", 1)[1]
            record = by_device.get(device)
            fault = (
                label not in degraded_scopes
                and record is not None
                and not record.skipped
                and (record.fallbacks > 0 or record.failed)
            )
            if not fault and label not in degraded_scopes:
                # A relocated shard's fallbacks belong to the device
                # that finally served it.
                fault = any(
                    rec.fallbacks > 0
                    for rec in relocated_by_device.get(device, ())
                )
            breaker.on_result(fault=fault)
            self._emit_breaker_events(label, breaker)

    def _execute_one(
        self,
        query: ScheduledQuery,
        slots: int,
        budget_share: float,
        degraded: bool = False,
        share: int = 1,
        degraded_scopes: set = frozenset(),
    ) -> QueryResult:
        if self._sharded is not None:
            engines_by_device = {
                slot.index: ("kbe",)
                for slot in self.pool
                if f"{query.spec.name}@{slot.name}" in degraded_scopes
            }
            return self._sharded.execute(
                query.spec,
                share=share,
                engines_by_device=engines_by_device or None,
                fault_plan=query.fault_plan,
            )
        device = (
            self.device
            if slots == self.device.concurrency
            else self.device.with_overrides(concurrency=slots)
        )
        fault_plan = (
            query.fault_plan if query.fault_plan is not None
            else self.fault_plan
        )
        if self.resilient:
            executor = ResilientExecutor(
                self.database,
                device,
                config=self.config,
                fault_plan=fault_plan,
                memory_budget_bytes=budget_share,
                max_retries=self.max_retries,
                engines=("kbe",) if degraded else ("gpl", "gpl-woce", "kbe"),
                partitioned_joins=self.partitioned_joins,
                plan_cache=self.plan_cache,
                segment_configs=query.segment_configs,
                deadline_cycles=self.default_deadline_cycles,
                checkpoint_store=self.checkpoint_store,
                segment_cache=self.segment_cache,
            )
            return executor.execute(query.spec)
        engine = GPLEngine(
            self.database,
            device,
            config=self.config,
            segment_configs=query.segment_configs,
            partitioned_joins=self.partitioned_joins,
        )
        engine.plan_cache = self.plan_cache
        engine.segment_cache = self.segment_cache
        if fault_plan is not None:
            engine.fault_injector = FaultInjector(fault_plan)
        deadline = (
            query.spec.deadline_cycles
            if query.spec.deadline_cycles is not None
            else self.default_deadline_cycles
        )
        if deadline is not None:
            engine.cancellation = CancellationToken(
                deadline, query=query.spec.name
            )
        return engine.execute(query.spec)

    def _drain_batch(
        self,
        batch: Sequence[Tuple[int, QuerySpec, Optional[FaultPlan]]],
        shed: Sequence[Tuple[int, QuerySpec]] = (),
    ) -> ServiceReport:
        with maybe_span(
            "serve.drain",
            category="serve",
            policy=self.scheduler.policy,
            queries=len(batch),
        ):
            return self._drain_batch_inner(batch, shed)

    def _cache_counters(self) -> Dict[str, Optional[Dict[str, int]]]:
        """Every store's counters under the report field they feed
        (``None``: that cache is off)."""
        return {
            "plan_cache": self.plan_cache.counters(),
            "calibration_cache": calibration_cache_stats(),
            "search_cache": search_cache_stats(),
            "result_cache": (
                self.result_cache.counters_dict()
                if self.result_cache is not None
                else None
            ),
            "segment_cache": (
                self.segment_cache.counters_dict()
                if self.segment_cache is not None
                else None
            ),
            "checkpoint": self.checkpoint_store.counters_dict(),
        }

    def _drain_batch_inner(
        self,
        batch: Sequence[Tuple[int, QuerySpec, Optional[FaultPlan]]],
        shed: Sequence[Tuple[int, QuerySpec]] = (),
    ) -> ServiceReport:
        before = self._cache_counters()
        health = self._sharded.health if self._sharded is not None else None
        health_probes_before = health.probes if health is not None else 0
        health_quarantines_before = (
            health.quarantines if health is not None else 0
        )
        if (
            health is not None
            and health.enabled
            and not self._explicit_budget
        ):
            # Min-per-device admission follows pool health: the budget
            # is the tightest *active* device (quarantined slots take
            # no shards, so they don't constrain the round).
            self.memory_budget_bytes = min(
                self.pool.slot(index).effective_budget_bytes
                for index in health.active_indices()
            )

        records: List[QueryRecord] = []

        # -- result cache: answer hits before admission ------------------
        # Fault injection makes an execution's *path* part of the ask, so
        # any fault plan (service-wide or per-ticket) bypasses the cache
        # in both directions — faulty traffic neither reads nor writes it.
        store_keys: Dict[int, str] = {}
        if self.result_cache is not None:
            probe = self._probe_engine()
            remaining: List[
                Tuple[int, QuerySpec, Optional[FaultPlan]]
            ] = []
            for ticket, spec, fault_plan in batch:
                if fault_plan is not None or self.fault_plan is not None:
                    remaining.append((ticket, spec, fault_plan))
                    continue
                key = self._result_key(probe, spec)
                cached = self.result_cache.lookup(key)
                if cached is None:
                    store_keys[ticket] = key
                    remaining.append((ticket, spec, fault_plan))
                    continue
                self.results[ticket] = cached
                add_event(
                    "serve.result_cache",
                    query=spec.name,
                    ticket=ticket,
                    outcome="hit",
                )
                records.append(
                    QueryRecord(
                        index=ticket,
                        query=spec.name,
                        engine=cached.engine,
                        round=-1,
                        slots=0,
                        est_cost_cycles=0.0,
                        footprint_bytes=0.0,
                        wait_ms=0.0,
                        exec_ms=0.0,
                        plan_cache_hit=False,
                        num_rows=cached.num_rows,
                        outcome="cached",
                    )
                )
            batch = remaining

        planned = self._plan_queries(batch)

        # -- dedupe: one execution per identical pending spec ------------
        # The fingerprint excludes the deadline, so a deadline-tagged
        # query never piggybacks on an unbounded twin (and vice versa);
        # fault plans disable dedupe the same way they disable the
        # result cache — injected faults target individual executions.
        followers: Dict[int, List[ScheduledQuery]] = {}
        if self.batch_dedupe and self.fault_plan is None:
            leaders: Dict[Tuple[str, Optional[float]], ScheduledQuery] = {}
            unique: List[ScheduledQuery] = []
            for query in planned:
                if query.fault_plan is not None:
                    unique.append(query)
                    continue
                key = (query.spec.fingerprint, query.spec.deadline_cycles)
                leader = leaders.get(key)
                if leader is None:
                    leaders[key] = query
                    unique.append(query)
                else:
                    followers.setdefault(leader.index, []).append(query)
            planned = unique

        ordered = self.scheduler.order(planned)
        rounds = self.scheduler.admission_rounds(
            ordered,
            self.max_concurrent,
            self.memory_budget_bytes,
            group_fact=self.batch_dedupe,
        )
        shared_scan_rounds = (
            sum(1 for members in rounds if len(members) >= 2)
            if self.batch_dedupe
            else 0
        )
        faults_scheduled = 0
        faults_fired_total = 0
        faults_unfired: "_Counter[str]" = _Counter()

        def harvest_faults(resilience) -> None:
            nonlocal faults_scheduled, faults_fired_total
            if resilience is None:
                return
            faults_scheduled += resilience.faults_scheduled
            faults_fired_total += sum(resilience.faults_fired.values())
            faults_unfired.update(resilience.faults_unfired)

        clock_ms = 0.0
        self._last_error: Optional[ReproError] = None
        for round_index, members in enumerate(rounds):
            slots = max(1, self.device.concurrency // len(members))
            budget_share = self.memory_budget_bytes / len(members)
            round_makespan = 0.0
            with maybe_span(
                "serve.round",
                category="serve",
                round=round_index,
                members=len(members),
                slots=slots,
                shared_scan=self.batch_dedupe and len(members) >= 2,
            ):
                for query in members:
                    scopes = self._breaker_scopes(query.spec.name)
                    degraded_scopes = self._admit_member(query, scopes)
                    degraded = bool(degraded_scopes)
                    # Private tracer + graft, not a direct span: see
                    # repro.core.parallel on the pinned float arithmetic.
                    task = self.worker_pool.submit(
                        lambda: self._run_member(
                            query,
                            slots,
                            budget_share,
                            len(members),
                            scopes,
                            degraded_scopes,
                        )
                    )
                    task.merge_trace()
                    exc = task.error
                    if exc is not None:
                        if not isinstance(exc, ReproError):
                            raise exc
                        is_deadline = isinstance(exc, DeadlineExceededError)
                        self._last_error = exc
                        harvest_faults(getattr(exc, "resilience", None))
                        for member in (
                            query, *followers.get(query.index, ())
                        ):
                            records.append(
                                QueryRecord(
                                    index=member.index,
                                    query=member.spec.name,
                                    engine="",
                                    round=round_index,
                                    slots=slots,
                                    est_cost_cycles=member.est_cost_cycles,
                                    footprint_bytes=member.footprint_bytes,
                                    wait_ms=clock_ms,
                                    exec_ms=0.0,
                                    plan_cache_hit=member.plan_cache_hit,
                                    ok=False,
                                    error=str(exc).splitlines()[0],
                                    outcome=(
                                        "deadline" if is_deadline
                                        else "failed"
                                    ),
                                    breaker_degraded=degraded,
                                    deduped=member is not query,
                                )
                            )
                        continue
                    result = task.result
                    self.results[query.index] = result
                    harvest_faults(result.resilience)
                    if result.shard is not None:
                        # device_down accounting lives on the shard
                        # report (the injector never reaches engines).
                        faults_scheduled += (
                            result.shard.device_faults_scheduled
                        )
                        faults_fired_total += (
                            result.shard.device_faults_fired
                        )
                        faults_unfired.update(
                            result.shard.device_faults_unfired
                        )
                    # The GPL tier misbehaved if the resilient run had
                    # to fall off it; per-device scopes attribute shard
                    # fallbacks to the device that fell back.
                    self._settle_breakers(
                        scopes, degraded_scopes, result=result
                    )
                    round_makespan = max(round_makespan, result.elapsed_ms)
                    self.drift.record(
                        query=query.spec.name,
                        device=self.device.name,
                        tile_bytes=self.config.tile_bytes,
                        predicted_cycles=query.est_cost_cycles,
                        measured_cycles=result.counters.elapsed_cycles,
                    )
                    records.append(
                        QueryRecord(
                            index=query.index,
                            query=query.spec.name,
                            engine=result.engine,
                            round=round_index,
                            slots=slots,
                            est_cost_cycles=query.est_cost_cycles,
                            footprint_bytes=query.footprint_bytes,
                            wait_ms=clock_ms,
                            exec_ms=result.elapsed_ms,
                            plan_cache_hit=query.plan_cache_hit,
                            num_rows=result.num_rows,
                            breaker_degraded=degraded,
                            shards=(
                                result.shard.fanout
                                if result.shard is not None
                                else 0
                            ),
                            relocations=(
                                result.shard.relocations
                                if result.shard is not None
                                else 0
                            ),
                        )
                    )
                    # Fan the leader's result out to deduped twins: one
                    # execution answers every identical pending spec.
                    for follower in followers.get(query.index, ()):
                        self.results[follower.index] = result
                        add_event(
                            "serve.dedupe",
                            query=follower.spec.name,
                            ticket=follower.index,
                            leader=query.index,
                        )
                        records.append(
                            QueryRecord(
                                index=follower.index,
                                query=follower.spec.name,
                                engine=result.engine,
                                round=round_index,
                                slots=slots,
                                est_cost_cycles=follower.est_cost_cycles,
                                footprint_bytes=follower.footprint_bytes,
                                wait_ms=clock_ms,
                                exec_ms=0.0,
                                plan_cache_hit=follower.plan_cache_hit,
                                num_rows=result.num_rows,
                                breaker_degraded=degraded,
                                shards=(
                                    result.shard.fanout
                                    if result.shard is not None
                                    else 0
                                ),
                                deduped=True,
                            )
                        )
                    key = store_keys.get(query.index)
                    if key is not None:
                        self.result_cache.store(key, result)
            clock_ms += round_makespan

        for ticket, spec in shed:
            records.append(
                QueryRecord(
                    index=ticket,
                    query=spec.name,
                    engine="",
                    round=-1,
                    slots=0,
                    est_cost_cycles=0.0,
                    footprint_bytes=0.0,
                    wait_ms=0.0,
                    exec_ms=0.0,
                    plan_cache_hit=False,
                    ok=False,
                    error=f"shed by bounded queue ({self.queue_policy})",
                    outcome="shed",
                )
            )

        cache_deltas = {
            name: {}
            if after is None
            else counters_delta(before[name], after, _REPORTED.get(name))
            for name, after in self._cache_counters().items()
        }
        report = ServiceReport(
            device=self.device.name,
            policy=self.scheduler.policy,
            max_concurrent=self.max_concurrent,
            devices=len(self.pool) if self.pool is not None else 1,
            memory_budget_bytes=self.memory_budget_bytes,
            makespan_ms=clock_ms,
            records=records,
            shared_scan_rounds=shared_scan_rounds,
            breaker=breaker_states(self._breakers),
            **cache_deltas,
            faults_scheduled=faults_scheduled,
            faults_fired_total=faults_fired_total,
            faults_unfired=[
                spec if count == 1 else f"{spec} x{count}"
                for spec, count in sorted(faults_unfired.items())
            ],
            pool_health=(
                health.states()
                if health is not None and health.enabled
                else {}
            ),
            pool_quarantined=(
                health.quarantined_count() if health is not None else 0
            ),
            pool_probes=(
                health.probes - health_probes_before
                if health is not None
                else 0
            ),
            pool_quarantines=(
                health.quarantines - health_quarantines_before
                if health is not None
                else 0
            ),
        )
        self._record_metrics(report, len(rounds))
        report.metrics = self.registry.to_json()
        report.drift = {
            "per_query": self.drift.per_query(),
            "overall": self.drift.overall(),
        }
        return report

    def _emit_breaker_events(
        self, query: str, breaker: CircuitBreaker
    ) -> None:
        """Export any new breaker transitions as metrics + span events."""
        for state in breaker.drain_transitions():
            self.registry.counter("breaker_transitions_total").inc(
                state=state
            )
            add_event("serve.breaker", query=query, state=state)

    def _record_metrics(self, report: ServiceReport, num_rounds: int) -> None:
        """Fold one drain's outcome into the service's metrics registry."""
        registry = self.registry
        registry.counter("serve_drains_total").inc()
        registry.counter("serve_rounds_total").inc(num_rounds)
        registry.gauge("serve_makespan_ms").set(report.makespan_ms)
        if report.deadline_exceeded:
            registry.counter("serve_deadline_exceeded_total").inc(
                report.deadline_exceeded
            )
        if report.shed:
            registry.counter("serve_shed_total").inc(
                report.shed, policy=self.queue_policy
            )
        for event, count in sorted(report.checkpoint.items()):
            if count > 0:
                registry.counter("checkpoint_segments_total").inc(
                    count, event=event
                )
        registry.gauge("checkpoint_live_bytes").set(
            self.checkpoint_store.live_bytes
        )
        if report.deduped:
            registry.counter("batch_dedupe_queries_total").inc(
                report.deduped
            )
        if report.shared_scan_rounds:
            registry.counter("batch_shared_scan_rounds_total").inc(
                report.shared_scan_rounds
            )
        if self._sharded is not None and self._sharded.health.enabled:
            registry.gauge("pool_quarantined").set(report.pool_quarantined)
            if report.pool_probes:
                registry.counter("pool_probe_total").inc(report.pool_probes)
        if self.result_cache is not None:
            registry.gauge("cache_result_bytes").set(
                self.result_cache.live_bytes
            )
        if self.segment_cache is not None:
            registry.gauge("cache_segment_bytes").set(
                self.segment_cache.live_bytes
            )
        for record in report.records:
            registry.counter("serve_queries_total").inc(
                status=record.outcome
            )
            if record.outcome == "ok":
                registry.histogram("serve_wait_ms").observe(record.wait_ms)
                registry.histogram("serve_exec_ms").observe(record.exec_ms)
                registry.histogram("serve_latency_ms").observe(
                    record.latency_ms
                )
        for cache, stats in (
            ("plan", report.plan_cache),
            ("calibration", report.calibration_cache),
            ("search", report.search_cache),
            ("result", report.result_cache),
            ("segment", report.segment_cache),
        ):
            for key, outcome in (("hits", "hit"), ("misses", "miss")):
                count = stats.get(key, 0)
                if count > 0:
                    registry.counter("cache_lookups_total").inc(
                        count, cache=cache, outcome=outcome
                    )
            evictions = stats.get("evictions", 0)
            if evictions > 0:
                registry.counter("cache_evictions_total").inc(
                    evictions, cache=cache
                )
        for result in (
            self.results[record.index]
            for record in report.records
            if record.ok and record.index in self.results
        ):
            shard = result.shard
            if shard is not None:
                registry.counter("shard_queries_total").inc(
                    merge=shard.merge_kind
                )
                registry.histogram("shard_fanout").observe(shard.fanout)
                registry.gauge("shard_skew").set(shard.skew)
                registry.histogram("shard_merge_ms").observe(shard.merge_ms)
                if shard.relocations:
                    registry.counter("shard_relocations_total").inc(
                        shard.relocations
                    )
                for device, busy in sorted(shard.device_busy_ms().items()):
                    registry.counter("shard_device_busy_ms_total").inc(
                        busy, device=device
                    )
            resilience = result.resilience
            if resilience is None:
                continue
            if resilience.retries:
                registry.counter("resilience_retries_total").inc(
                    resilience.retries
                )
            if resilience.fallbacks:
                registry.counter("resilience_fallbacks_total").inc(
                    resilience.fallbacks
                )
            if resilience.reconfigurations:
                registry.counter("resilience_reconfigurations_total").inc(
                    resilience.reconfigurations
                )
            if resilience.admission_shrinks:
                registry.counter("resilience_admission_shrinks_total").inc(
                    resilience.admission_shrinks
                )
            if resilience.admission_rejections:
                registry.counter(
                    "resilience_admission_rejections_total"
                ).inc(resilience.admission_rejections)
            for kind, count in sorted(resilience.faults_fired.items()):
                registry.counter("resilience_faults_total").inc(
                    count, kind=kind
                )
