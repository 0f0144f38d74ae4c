"""Serving reports: per-query records and workload-level aggregates.

This is the serving twin of :class:`~repro.core.ResilienceReport`: the
numbers a query *service* is judged by — throughput and tail latency —
plus the cache counters that explain why repeat traffic is fast.  Like
the resilience report, :meth:`ServiceReport.counters_dict` is the
canonical determinism witness: two drains of the same trace with the
same seed must produce equal dicts.

Latency here is *simulated service latency*: the virtual milliseconds a
query spent waiting for an admission round plus its own simulated
execution time.  Wall-clock planning costs (optimization, calibration,
the configuration search) are what the caches remove; they are reported
separately as cache counters rather than folded into the simulated
timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

__all__ = ["QueryRecord", "ServiceReport", "percentile"]


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation).

    ``percentile(xs, 0.5)`` is the median element actually observed —
    appropriate for small serving traces where interpolated quantiles
    would invent latencies no query experienced.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(fraction * len(ordered))) - 1))
    if fraction <= 0:
        rank = 0
    return ordered[rank]


@dataclass(frozen=True)
class QueryRecord:
    """One query's trip through the service."""

    index: int  # submission order (the async queue ticket)
    query: str
    engine: str  # engine that answered ("" if the query failed)
    round: int  # admission round the query ran in
    slots: int  # concurrent-kernel slots its round partition granted
    est_cost_cycles: float  # cost model's estimate (drives SJF ordering)
    footprint_bytes: float  # admission footprint estimate
    wait_ms: float  # simulated queue wait before its round started
    exec_ms: float  # simulated execution time
    plan_cache_hit: bool
    num_rows: int = 0
    ok: bool = True
    error: str = ""
    #: How the query left the service: ``ok`` | ``failed`` |
    #: ``deadline`` (cancelled past its cycle budget) | ``shed``
    #: (dropped by the bounded admission queue, never executed) |
    #: ``cached`` (answered from the result cache before admission —
    #: zero admission cost, zero simulated execution).
    outcome: str = "ok"
    #: An open circuit breaker routed this query (or, on a pooled
    #: service, at least one of its shards) straight to KBE.
    breaker_degraded: bool = False
    #: Shards that executed when the service ran this query across a
    #: device pool (0 = single-device execution).
    shards: int = 0
    #: Relocation attempts consumed when shards of this query failed on
    #: their device and re-ran on a healthy one (pooled services only;
    #: followers of a deduped leader report 0).
    relocations: int = 0
    #: This query was deduplicated in a batched drain: an identical
    #: pending spec executed once and fanned its result out here.
    deduped: bool = False

    @property
    def latency_ms(self) -> float:
        return self.wait_ms + self.exec_ms


@dataclass
class ServiceReport:
    """Aggregates for one drained batch of queries."""

    device: str = ""
    policy: str = ""
    max_concurrent: int = 1
    #: Pool size the drain executed against (1 = single device).
    devices: int = 1
    memory_budget_bytes: float = 0.0
    makespan_ms: float = 0.0
    records: List[QueryRecord] = field(default_factory=list)
    plan_cache: Dict[str, int] = field(default_factory=dict)
    calibration_cache: Dict[str, int] = field(default_factory=dict)
    search_cache: Dict[str, int] = field(default_factory=dict)
    #: Result-cache counter deltas for this drain (empty: cache off).
    result_cache: Dict[str, int] = field(default_factory=dict)
    #: Cross-query segment-cache counter deltas (empty: cache off).
    segment_cache: Dict[str, int] = field(default_factory=dict)
    #: Admission rounds whose members shared a fact table (≥ 2 queries
    #: over one scan); 0 unless shared-scan grouping batched anything.
    shared_scan_rounds: int = 0
    #: Snapshot of the service's metrics registry at drain end
    #: (``MetricsRegistry.to_json()``); empty when metrics are off.
    metrics: Dict[str, object] = field(default_factory=dict)
    #: Cost-model drift roll-up (``{"per_query": ..., "overall": ...}``)
    #: accumulated by the service's :class:`~repro.obs.DriftRecorder`.
    drift: Dict[str, object] = field(default_factory=dict)
    #: Final circuit-breaker state per query shape (empty: breakers off).
    breaker: Dict[str, str] = field(default_factory=dict)
    #: Checkpoint-store counter deltas for this drain (recorded /
    #: resumed / evicted / invalidated segment events).
    checkpoint: Dict[str, int] = field(default_factory=dict)
    #: Fault-schedule accounting summed over the drain's executions:
    #: total scheduled firings, total fired, and the specs that still
    #: held unspent budget (chaos soaks assert ``faults_unfired == []``).
    faults_scheduled: int = 0
    faults_fired_total: int = 0
    faults_unfired: List[str] = field(default_factory=list)
    #: Final pool-health state per device slot (empty: single device or
    #: health tracking disabled).
    pool_health: Dict[str, str] = field(default_factory=dict)
    #: Devices quarantined at drain end.
    pool_quarantined: int = 0
    #: Probation probes the pool-health tracker opened during this drain.
    pool_probes: int = 0
    #: Quarantine transitions during this drain.
    pool_quarantines: int = 0

    # -- derived ----------------------------------------------------------

    @property
    def num_queries(self) -> int:
        return len(self.records)

    @property
    def completed(self) -> int:
        return sum(1 for r in self.records if r.ok)

    @property
    def failed(self) -> int:
        return self.num_queries - self.completed

    @property
    def num_rounds(self) -> int:
        return max((r.round for r in self.records), default=-1) + 1

    @property
    def deadline_exceeded(self) -> int:
        return sum(1 for r in self.records if r.outcome == "deadline")

    @property
    def shed(self) -> int:
        return sum(1 for r in self.records if r.outcome == "shed")

    @property
    def cached(self) -> int:
        """Queries answered from the result cache (never admitted)."""
        return sum(1 for r in self.records if r.outcome == "cached")

    @property
    def deduped(self) -> int:
        """Queries answered by another identical query's execution."""
        return sum(1 for r in self.records if r.deduped)

    @property
    def breaker_degraded(self) -> int:
        return sum(1 for r in self.records if r.breaker_degraded)

    @property
    def relocations(self) -> int:
        """Shard relocation attempts consumed across the drain."""
        return sum(r.relocations for r in self.records)

    @property
    def hard_failures(self) -> int:
        """Failures that are neither deadline cancellations nor sheds."""
        return sum(1 for r in self.records if r.outcome == "failed")

    @property
    def throughput_qps(self) -> float:
        """Completed queries per simulated second of service time."""
        if self.makespan_ms <= 0:
            return 0.0
        return self.completed / (self.makespan_ms / 1e3)

    def latencies_ms(self) -> List[float]:
        return [r.latency_ms for r in self.records if r.ok]

    @property
    def p50_latency_ms(self) -> float:
        return percentile(self.latencies_ms(), 0.50)

    @property
    def p95_latency_ms(self) -> float:
        return percentile(self.latencies_ms(), 0.95)

    @property
    def sequential_ms(self) -> float:
        """What the same trace would cost with no overlap at all."""
        return sum(r.exec_ms for r in self.records if r.ok)

    # -- witnesses --------------------------------------------------------

    def counters_dict(self) -> Dict[str, object]:
        """Canonical determinism witness (same seed => equal dicts)."""
        return {
            "device": self.device,
            "policy": self.policy,
            "max_concurrent": self.max_concurrent,
            "devices": self.devices,
            "num_queries": self.num_queries,
            "completed": self.completed,
            "failed": self.failed,
            "num_rounds": self.num_rounds,
            "plan_cache": dict(sorted(self.plan_cache.items())),
            "calibration_cache": dict(sorted(self.calibration_cache.items())),
            "search_cache": dict(sorted(self.search_cache.items())),
            "result_cache": dict(sorted(self.result_cache.items())),
            "segment_cache": dict(sorted(self.segment_cache.items())),
            "shared_scan_rounds": self.shared_scan_rounds,
            "deduped": self.deduped,
            "outcomes": {
                outcome: sum(
                    1 for r in self.records if r.outcome == outcome
                )
                for outcome in ("ok", "failed", "deadline", "shed", "cached")
            },
            "breaker": dict(sorted(self.breaker.items())),
            "breaker_degraded": self.breaker_degraded,
            "checkpoint": dict(sorted(self.checkpoint.items())),
            "faults_scheduled": self.faults_scheduled,
            "faults_fired_total": self.faults_fired_total,
            "faults_unfired": list(self.faults_unfired),
            "pool_health": dict(sorted(self.pool_health.items())),
            "pool_quarantined": self.pool_quarantined,
            "pool_probes": self.pool_probes,
            "pool_quarantines": self.pool_quarantines,
            "relocations": self.relocations,
            "schedule": [
                (
                    r.index, r.query, r.round, r.slots, r.engine, r.ok,
                    r.outcome, r.breaker_degraded, r.shards, r.deduped,
                    r.relocations,
                )
                for r in self.records
            ],
        }

    def to_text(self) -> str:
        where = self.device or "?"
        if self.devices > 1:
            where = f"{where} x{self.devices} (sharded)"
        lines = [
            f"{self.policy} on {where} | "
            f"{self.completed}/{self.num_queries} ok in "
            f"{self.num_rounds} rounds | makespan {self.makespan_ms:.3f} ms "
            f"(sequential {self.sequential_ms:.3f} ms)",
            f"throughput {self.throughput_qps:.1f} q/s | "
            f"latency p50 {self.p50_latency_ms:.3f} ms, "
            f"p95 {self.p95_latency_ms:.3f} ms",
        ]
        if self.deadline_exceeded or self.shed or self.breaker_degraded:
            lines.append(
                f"resilience: {self.deadline_exceeded} deadline-exceeded | "
                f"{self.shed} shed | "
                f"{self.breaker_degraded} breaker-degraded"
            )
        if self.breaker:
            open_like = {
                name: state
                for name, state in sorted(self.breaker.items())
                if state != "closed"
            }
            if open_like:
                lines.append(
                    "breakers: "
                    + ", ".join(
                        f"{name}={state}" for name, state in open_like.items()
                    )
                )
        if (
            self.relocations
            or self.pool_quarantined
            or self.pool_quarantines
            or self.pool_probes
        ):
            sick = ", ".join(
                f"{name}={state}"
                for name, state in sorted(self.pool_health.items())
                if state != "healthy"
            )
            lines.append(
                f"pool: {self.relocations} relocations | "
                f"{self.pool_quarantined} quarantined | "
                f"{self.pool_quarantines} quarantine trips | "
                f"{self.pool_probes} probes"
                + (f" | {sick}" if sick else "")
            )
        if self.checkpoint.get("recorded") or self.checkpoint.get("resumed"):
            lines.append(
                f"checkpoints: {self.checkpoint.get('recorded', 0)} segments "
                f"recorded, {self.checkpoint.get('resumed', 0)} resumed, "
                f"{self.checkpoint.get('evicted', 0)} evicted"
            )
        if self.faults_scheduled:
            if self.faults_unfired:
                lines.append(
                    f"faults: {self.faults_fired_total} of "
                    f"{self.faults_scheduled} scheduled firings fired; "
                    "unfired: " + "; ".join(self.faults_unfired)
                )
            else:
                lines.append(
                    f"faults: all {self.faults_scheduled} scheduled "
                    f"firings fired"
                )
        if self.cached or self.deduped or self.shared_scan_rounds:
            lines.append(
                f"batching: {self.cached} result-cache answered | "
                f"{self.deduped} deduped | "
                f"{self.shared_scan_rounds} shared-scan rounds"
            )
        for label, stats in (
            ("plan cache", self.plan_cache),
            ("calibration cache", self.calibration_cache),
            ("search cache", self.search_cache),
            ("result cache", self.result_cache),
            ("segment cache", self.segment_cache),
        ):
            if stats:
                lines.append(
                    f"{label}: {stats.get('hits', 0)} hits, "
                    f"{stats.get('misses', 0)} misses"
                )
        overall = self.drift.get("overall") if self.drift else None
        if overall and overall.get("observations"):
            lines.append(
                f"cost-model drift: {int(overall['observations'])} obs | "
                f"mean err {overall['mean_relative_error']:.1%} | "
                f"max err {overall['max_relative_error']:.1%} | "
                f"under {overall['underestimated_share']:.0%}"
            )
        for r in sorted(self.records, key=lambda r: (r.round, r.index)):
            if r.outcome == "cached":
                status = f"{r.engine} [cached]"
            elif r.ok:
                status = r.engine
                if r.deduped:
                    status += " [deduped]"
                if r.breaker_degraded:
                    status += " [breaker]"
                if r.relocations:
                    status += f" [relocated x{r.relocations}]"
            elif r.outcome == "deadline":
                status = f"DEADLINE ({r.error})"
            elif r.outcome == "shed":
                status = f"SHED ({r.error})"
            else:
                status = f"FAILED ({r.error})"
            lines.append(
                f"  #{r.index:<3} {r.query:<6} round {r.round} "
                f"x{r.slots} slots | wait {r.wait_ms:8.3f} ms + "
                f"exec {r.exec_ms:8.3f} ms = {r.latency_ms:8.3f} ms | "
                f"{status}"
            )
        return "\n".join(lines)
