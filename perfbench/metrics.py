"""Metric and workload tables, and how per-layer values come out of a trace.

``BENCHMARK.json`` at the repository root is generated from the tables
here (``python perfbench/run.py --manifest``); a test keeps the two equal.

Two clocks, never mixed: ``sim_cycles`` and everything derived from
simulated cycles is the paper's clock and exact for a given seed; every
``*_ms``/``*_us``/``*_ns`` value is host wall-clock.  Counts are exact.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, Iterable, List, Mapping, Tuple

from .tracing import Span

__all__ = [
    "RUN_SECONDS", "END_TO_END", "EXACT_END_TO_END", "PER_LAYER",
    "EXACT_PER_LAYER", "Rollup", "per_layer_values",
]

#: Seconds one end-to-end run measures.
RUN_SECONDS = 8

#: name, unit, better, bound (share of the parent's median), definition.
END_TO_END: Tuple[Tuple[str, str, str, float, str], ...] = (
    ("setup_s", "s", "lower", 0.25,
     "workload process start -> first timed op: imports, dbgen, reference "
     "answers, construction, one untimed warm-up pass; median of 3 processes"),
    ("latency_p50_ms", "ms", "lower", 0.20,
     "host wall-clock per op (one query, or one drain): median within a "
     "cycle, median over cycles"),
    ("latency_p90_ms", "ms", "lower", 0.25,
     "same, 90th percentile (nearest rank) within a cycle, median over cycles"),
    ("throughput_qps", "q/s", "higher", 0.20,
     "queries answered / sum of op wall-clock in a cycle, median over cycles"),
    ("sim_cycles", "cycles", "lower", 0.10,
     "sum of QueryResult.counters.elapsed_cycles over the queries executed "
     "in the warm-up pass and the first timed cycle (cached and deduped "
     "answers add 0): the paper's clock, exact for a seed"),
    ("peak_rss_mb", "MiB", "lower", 0.10,
     "ru_maxrss of the workload process after its last timed op"),
)

#: End-to-end metrics a host-only change must leave bit-identical.
EXACT_END_TO_END = ("sim_cycles",)

#: name, unit, better, what it should move and where.
PER_LAYER: Tuple[Tuple[str, str, str, str], ...] = (
    ("dbgen.ms", "ms", "lower", "setup_s, all workloads"),
    ("dbgen.rows", "count", "lower", "informational"),
    ("relational.database.stats_ms", "ms", "lower",
     "latency_p50_ms on plan_cold; setup_s elsewhere"),
    ("relational.database.stats_computed", "count", "lower",
     "latency_p50_ms on plan_cold; setup_s elsewhere"),
    ("relational.partition.ms", "ms", "lower", "setup_s on shard_scatter"),
    ("relational.partition.computed", "count", "lower", "setup_s on shard_scatter"),
    ("relational.partition.skew", "ratio", "lower", "informational"),
    ("plans.optimizer.ms", "ms", "lower",
     "latency_p50_ms on plan_cold, shard_scatter"),
    ("plans.optimizer.calls", "count", "lower",
     "latency_p50_ms on plan_cold, shard_scatter"),
    ("plans.lowering.ms", "ms", "lower",
     "latency_p50_ms on plan_cold, shard_scatter"),
    ("plans.lowering.calls", "count", "lower",
     "latency_p50_ms on plan_cold, shard_scatter"),
    ("model.calibration.ms", "ms", "lower", "throughput_qps on plan_cold"),
    ("model.calibration.sweeps", "count", "lower", "throughput_qps on plan_cold"),
    ("model.search.self_ms", "ms", "lower", "latency_p50_ms on plan_cold"),
    ("model.search.calls", "count", "lower", "latency_p50_ms on plan_cold"),
    ("model.search.hit_ratio", "ratio", "higher",
     "about 1 on join_steady, 0 on plan_cold"),
    ("model.costmodel.ms", "ms", "lower", "latency_p50_ms on plan_cold"),
    ("model.costmodel.estimates", "count", "lower", "latency_p50_ms on plan_cold"),
    ("model.costmodel.rel_error_mean", "ratio", "lower",
     "predicted vs simulated cycles; exact"),
    ("plans.physical.probe_ms", "ms", "lower",
     "throughput_qps on join_steady, shard_scatter"),
    ("plans.physical.filter_ms", "ms", "lower", "throughput_qps on scan_filter"),
    ("plans.physical.compute_ms", "ms", "lower", "throughput_qps on scan_filter"),
    ("plans.physical.agg_ms", "ms", "lower", "throughput_qps on join_steady"),
    ("plans.physical.build_ms", "ms", "lower", "throughput_qps on join_steady"),
    ("plans.physical.sort_ms", "ms", "lower", "informational"),
    ("plans.physical.other_ms", "ms", "lower", "informational"),
    ("plans.physical.calls", "count", "lower",
     "per-tile call overhead on sim_sweep"),
    ("plans.physical.rows_in", "count", "lower", "informational"),
    ("plans.physical.ns_per_row", "ns", "lower",
     "throughput_qps on join_steady, scan_filter"),
    ("gpu.simulator.ms", "ms", "lower",
     "throughput_qps on sim_sweep; latency_p90_ms on fault_storm"),
    ("gpu.simulator.pipeline_calls", "count", "lower",
     "throughput_qps on sim_sweep; latency_p90_ms on fault_storm"),
    ("gpu.simulator.exclusive_calls", "count", "lower",
     "throughput_qps on sim_sweep; latency_p90_ms on fault_storm"),
    ("gpu.simulator.workgroups", "count", "lower", "exact"),
    ("gpu.simulator.us_per_workgroup", "us", "lower", "throughput_qps on sim_sweep"),
    ("gpu.simulator.host_us_per_sim_kcycle", "us", "lower",
     "throughput_qps on sim_sweep"),
    ("core.engine.self_ms", "ms", "lower", "latency_p50_ms on sim_sweep"),
    ("core.engine.executions", "count", "lower", "sim_cycles on cache_churn"),
    ("core.engine.sim_speedup_vs_kbe", "ratio", "higher",
     "sum of KBE / sum of GPL cycles on the reference device; exact"),
    ("core.resilience.self_ms", "ms", "lower", "latency_p90_ms on fault_storm"),
    ("core.resilience.attempts", "count", "lower", "latency_p90_ms on fault_storm"),
    ("core.resilience.retries", "count", "lower", "latency_p90_ms on fault_storm"),
    ("core.resilience.fallbacks", "count", "lower", "latency_p90_ms on fault_storm"),
    ("core.resilience.faults_fired", "count", "lower", "informational"),
    ("core.checkpoint.ms", "ms", "lower",
     "throughput_qps on cache_churn; latency_p90_ms on fault_storm"),
    ("core.checkpoint.recorded", "count", "lower",
     "throughput_qps on cache_churn; latency_p90_ms on fault_storm"),
    ("core.checkpoint.resumed", "count", "higher", "sim_cycles on fault_storm"),
    ("core.checkpoint.segment_hit_ratio", "ratio", "higher",
     "throughput_qps, sim_cycles on cache_churn"),
    ("core.checkpoint.segment_evictions", "count", "lower",
     "throughput_qps, sim_cycles on cache_churn"),
    ("core.checkpoint.segment_peak_bytes", "bytes", "lower", "peak_rss_mb"),
    ("serve.caches.ms", "ms", "lower",
     "latency_p50_ms on cache_hot; throughput_qps on cache_churn"),
    ("serve.caches.plan_hit_ratio", "ratio", "higher", "latency_p50_ms"),
    ("serve.caches.result_hit_ratio", "ratio", "higher",
     "throughput_qps, sim_cycles on cache_churn"),
    ("serve.caches.result_evictions", "count", "lower",
     "throughput_qps, sim_cycles on cache_churn"),
    ("serve.caches.result_peak_bytes", "bytes", "lower", "peak_rss_mb"),
    ("serve.scheduler.ms", "ms", "lower",
     "latency_p50_ms on cache_churn, fault_storm"),
    ("serve.scheduler.rounds", "count", "lower",
     "latency_p50_ms on cache_churn, fault_storm"),
    ("serve.scheduler.shared_scan_rounds", "count", "higher",
     "latency_p50_ms on cache_churn, fault_storm"),
    ("serve.breaker.transitions", "count", "lower", "latency_p90_ms on fault_storm"),
    ("serve.breaker.degraded", "count", "lower", "latency_p90_ms on fault_storm"),
    ("serve.service.self_ms", "ms", "lower",
     "latency_p50_ms on cache_hot (it is the op)"),
    ("serve.service.self_us_per_query", "us", "lower",
     "latency_p50_ms on cache_hot (it is the op)"),
    ("serve.service.cached", "count", "higher", "throughput_qps on cache_churn"),
    ("serve.service.deduped", "count", "higher", "throughput_qps on cache_churn"),
    ("shard.planner.ms", "ms", "lower", "latency_p50_ms on shard_scatter"),
    ("shard.executor.self_ms", "ms", "lower", "latency_p50_ms on shard_scatter"),
    ("shard.executor.shards_run", "count", "lower", "latency_p50_ms on shard_scatter"),
    ("shard.executor.relocations", "count", "lower", "informational"),
    ("shard.executor.sim_makespan_speedup", "ratio", "higher",
     "single-device GPL cycles / scatter makespan cycles; exact"),
    ("core.parallel.scatter_speedup_w2", "ratio", "higher",
     "seconds at workers=1 / seconds at workers=2 on shard_scatter"),
    ("trace.overhead_pct", "%", "lower",
     "traced / untraced op time on alternating cycles, minus 1"),
    ("trace.unattributed_ms", "ms", "lower", "op time under no span"),
    ("trace.attributed_ms", "ms", "lower", "sum of all self times"),
    ("trace.spans", "count", "lower", "informational"),
)

#: Per-layer metrics that repeat exactly for a seed and ``--seconds``:
#: counts, byte gauges and ratios of counts or simulated cycles.
EXACT_PER_LAYER = tuple(
    name for name, unit, _, _ in PER_LAYER
    if unit in ("count", "bytes", "ratio")
    and name != "core.parallel.scatter_speedup_w2"
)

PLANNING_LAYERS = (
    "relational.database", "plans.optimizer", "plans.lowering",
    "model.calibration", "model.search", "model.costmodel",
)
OPERATOR_KINDS = ("probe", "filter", "compute", "agg", "build", "sort", "other")


class Rollup:
    """Self time, calls and boundary counts per ``(layer, span name)``."""

    def __init__(self, spans: Iterable[Span], own: Mapping[int, int],
                 scopes: Tuple[str, ...]):
        """``own`` is :func:`tracing.self_times` of all the spans."""
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.values: Dict[Tuple[str, str], List] = defaultdict(list)
        for span in spans:
            if span[3] not in scopes:
                continue
            key = (span[4], span[5])
            self.self_ns[key] += own[span[0]]
            self.calls[key] += 1
            if span[8] is not None:
                self.values[key].append(span[8])

    @staticmethod
    def _matching(table: Mapping, layer: str, name: str) -> Iterable:
        """Entries of one span name, or (``name=""``) of a whole layer."""
        return (
            entry for (span_layer, span_name), entry in table.items()
            if span_layer == layer and name in ("", span_name)
        )

    def ms(self, layer: str, name: str = "") -> float:
        """Self milliseconds."""
        return sum(self._matching(self.self_ns, layer, name)) / 1e6

    def count(self, layer: str, name: str = "") -> int:
        return sum(self._matching(self.calls, layer, name))

    def total(self, layer: str, name: str = "") -> float:
        """Sum of a scalar boundary count."""
        return sum(sum(values) for values in self._matching(self.values, layer, name))

    def column(self, layer: str, name: str, index: int) -> float:
        """Sum of one component of a tuple-valued boundary count."""
        return sum(value[index] for value in self.values[(layer, name)])

    def attributed_ms(self) -> float:
        return sum(self.self_ns.values()) / 1e6

    def layers(self) -> List[str]:
        return sorted({layer for layer, _ in self.self_ns})


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _hit_ratio(stats: Mapping[str, float], cache: str) -> float:
    hits = stats.get(f"{cache}.hits", 0)
    return _ratio(hits, hits + stats.get(f"{cache}.misses", 0))


def per_layer_values(
    ops: Rollup,
    whole: Rollup,
    stats: Mapping[str, float],
    counts: Mapping[str, float],
    queries: int,
    trace: Mapping[str, float],
) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric.  ``ops`` rolls up the traced cycles,
    ``whole`` the whole process; ``stats`` holds the change of the public
    counters over the traced cycles, ``counts`` what the harness counted
    there, ``trace`` the benchmark's own numbers."""
    physical_ms = ops.ms("plans.physical")
    rows_in = ops.total("plans.physical")
    simulator_ms = ops.ms("gpu.simulator")
    workgroups = sum(
        ops.column("gpu.simulator", name, 0)
        for name in ("run_pipeline", "run_exclusive")
    )
    simulated_cycles = sum(
        ops.column("gpu.simulator", name, 1)
        for name in ("run_pipeline", "run_exclusive")
    )
    service_ms = ops.ms("serve.service")
    skews = whole.values[("relational.partition", "get_or_compute")]
    values = {
        "dbgen.ms": whole.ms("dbgen"),
        "dbgen.rows": whole.total("dbgen"),
        "relational.database.stats_ms": ops.ms("relational.database"),
        "relational.database.stats_computed":
            ops.count("relational.database", "stats_compute"),
        "relational.partition.ms": whole.ms("relational.partition"),
        "relational.partition.computed":
            whole.count("relational.partition", "partition_database"),
        "relational.partition.skew": max(skews, default=0.0),
        "plans.optimizer.ms": ops.ms("plans.optimizer"),
        "plans.optimizer.calls": ops.count("plans.optimizer"),
        "plans.lowering.ms": ops.ms("plans.lowering"),
        "plans.lowering.calls": ops.count("plans.lowering"),
        "model.calibration.ms": ops.ms("model.calibration"),
        "model.calibration.sweeps": stats.get("calibration.misses", 0),
        "model.search.self_ms": ops.ms("model.search"),
        "model.search.calls": ops.count("model.search", "best_for_segment"),
        "model.search.hit_ratio": _hit_ratio(stats, "search"),
        "model.costmodel.ms": ops.ms("model.costmodel"),
        "model.costmodel.estimates":
            ops.count("model.costmodel", "estimate_segment"),
        "model.costmodel.rel_error_mean": _ratio(
            counts.get("model.error_sum", 0) + stats.get("drift.error_sum", 0),
            counts.get("model.predictions", 0)
            + stats.get("drift.observations", 0),
        ),
        "plans.physical.calls": ops.count("plans.physical"),
        "plans.physical.rows_in": rows_in,
        "plans.physical.ns_per_row": _ratio(physical_ms * 1e6, rows_in),
        "gpu.simulator.ms": simulator_ms,
        "gpu.simulator.pipeline_calls": ops.count("gpu.simulator", "run_pipeline"),
        "gpu.simulator.exclusive_calls":
            ops.count("gpu.simulator", "run_exclusive"),
        "gpu.simulator.workgroups": workgroups,
        "gpu.simulator.us_per_workgroup": _ratio(simulator_ms * 1e3, workgroups),
        "gpu.simulator.host_us_per_sim_kcycle":
            _ratio(simulator_ms * 1e3, simulated_cycles / 1e3),
        "core.engine.self_ms": ops.ms("core.engine"),
        "core.engine.executions": ops.count("core.engine", "execute_plan"),
        "core.engine.sim_speedup_vs_kbe":
            _ratio(counts.get("kbe_cycles", 0), counts.get("gpl_cycles", 0)),
        "core.resilience.self_ms": ops.ms("core.resilience"),
        "core.resilience.attempts": ops.column("core.resilience", "execute", 0),
        "core.resilience.retries": ops.column("core.resilience", "execute", 1),
        "core.resilience.fallbacks": ops.column("core.resilience", "execute", 2),
        "core.resilience.faults_fired":
            ops.column("core.resilience", "execute", 3),
        "core.checkpoint.ms": ops.ms("core.checkpoint"),
        "core.checkpoint.recorded": stats.get("checkpoint.recorded", 0),
        "core.checkpoint.resumed": stats.get("checkpoint.resumed", 0),
        "core.checkpoint.segment_hit_ratio": _hit_ratio(stats, "segment"),
        "core.checkpoint.segment_evictions": stats.get("segment.evictions", 0),
        "core.checkpoint.segment_peak_bytes": stats.get("segment.peak_bytes", 0),
        "serve.caches.ms": ops.ms("serve.caches"),
        "serve.caches.plan_hit_ratio": _hit_ratio(stats, "plan"),
        "serve.caches.result_hit_ratio": _hit_ratio(stats, "result"),
        "serve.caches.result_evictions": stats.get("result.evictions", 0),
        "serve.caches.result_peak_bytes": stats.get("result.peak_bytes", 0),
        "serve.scheduler.ms": ops.ms("serve.scheduler"),
        "serve.scheduler.rounds": ops.total("serve.scheduler", "admission_rounds"),
        "serve.scheduler.shared_scan_rounds": counts.get("shared_scan_rounds", 0),
        "serve.breaker.transitions": stats.get("breaker.transitions", 0),
        "serve.breaker.degraded": stats.get("breaker.degraded", 0),
        "serve.service.self_ms": service_ms,
        "serve.service.self_us_per_query": _ratio(service_ms * 1e3, queries),
        "serve.service.cached": counts.get("cached", 0),
        "serve.service.deduped": counts.get("deduped", 0),
        "shard.planner.ms": ops.ms("shard.planner"),
        "shard.executor.self_ms": ops.ms("shard.executor"),
        "shard.executor.shards_run": ops.column("shard.executor", "execute", 0),
        "shard.executor.relocations": ops.column("shard.executor", "execute", 1),
        "shard.executor.sim_makespan_speedup": _ratio(
            counts.get("shard.single_device_cycles", 0),
            counts.get("shard.makespan_cycles", 0),
        ),
        "core.parallel.scatter_speedup_w2":
            trace.get("core.parallel.scatter_speedup_w2", 0.0),
        "trace.overhead_pct": trace["overhead_pct"],
        "trace.unattributed_ms": trace["unattributed_ms"],
        "trace.attributed_ms": ops.attributed_ms(),
        "trace.spans": trace["spans"],
    }
    for kind in OPERATOR_KINDS:
        values[f"plans.physical.{kind}_ms"] = ops.ms("plans.physical", kind)
    return {name: float(values[name]) for name, _, _, _ in PER_LAYER}
