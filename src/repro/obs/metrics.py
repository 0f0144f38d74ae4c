"""Metrics registry: counters, gauges, histograms with label sets.

The serving and resilience layers used to report ad-hoc counter dicts;
this module gives those numbers one home with one naming scheme, two
export formats (JSON and the Prometheus text exposition format), and —
crucially for the docs linter — a machine-readable **catalogue**:
:data:`METRIC_CATALOGUE` is the single source of truth for every metric
name, type, and label set, and ``scripts/check_docs.py`` fails the build
when ``docs/observability.md`` and the catalogue disagree.

Everything is deterministic: metrics have no timestamps, label series
are stored in insertion order and exported sorted, and histogram bucket
bounds are fixed per metric.  Two identical runs therefore export
identical snapshots, which the tests assert.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "MetricSpec",
    "METRIC_CATALOGUE",
    "metric_catalogue",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Default histogram bounds for simulated-millisecond latencies.
LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0,
)

#: Histogram bounds for relative errors (dimensionless fractions).
ERROR_BUCKETS: Tuple[float, ...] = (
    0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0,
)


@dataclass(frozen=True)
class MetricSpec:
    """One catalogue entry: the contract a metric is exported under."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    labels: Tuple[str, ...] = ()
    buckets: Tuple[float, ...] = LATENCY_BUCKETS_MS


#: Every metric the engine can emit.  Docs and code share this list:
#: ``docs/observability.md`` documents exactly these names (enforced by
#: ``scripts/check_docs.py``), and :class:`MetricsRegistry` refuses
#: lookups of anything else.
METRIC_CATALOGUE: Tuple[MetricSpec, ...] = (
    # -- serving ---------------------------------------------------------
    MetricSpec(
        "serve_queries_total", "counter",
        "Queries drained through the service, by outcome.",
        labels=("status",),  # ok | failed | deadline | shed | cached
    ),
    MetricSpec(
        "serve_rounds_total", "counter",
        "Admission rounds executed across all drains.",
    ),
    MetricSpec(
        "serve_drains_total", "counter",
        "Backlog drains (each produces one ServiceReport).",
    ),
    MetricSpec(
        "serve_wait_ms", "histogram",
        "Simulated queue wait before a query's round started.",
    ),
    MetricSpec(
        "serve_exec_ms", "histogram",
        "Simulated execution time of completed queries.",
    ),
    MetricSpec(
        "serve_latency_ms", "histogram",
        "Simulated service latency (wait + execution) of completed queries.",
    ),
    MetricSpec(
        "serve_makespan_ms", "gauge",
        "Makespan of the most recent drain.",
    ),
    MetricSpec(
        "serve_deadline_exceeded_total", "counter",
        "Queries cancelled because their cycle deadline expired.",
    ),
    MetricSpec(
        "serve_shed_total", "counter",
        "Queries dropped by the bounded admission queue, by policy.",
        labels=("policy",),  # reject | shed-oldest
    ),
    # -- sharded execution -----------------------------------------------
    MetricSpec(
        "shard_queries_total", "counter",
        "Queries executed by scatter-gather across a device pool, by "
        "merge kind.",
        labels=("merge",),  # reaggregate | distinct | concat
    ),
    MetricSpec(
        "shard_fanout", "histogram",
        "Shards that actually executed per sharded query (empty shards "
        "are skipped).",
        buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0),
    ),
    MetricSpec(
        "shard_skew", "gauge",
        "Partition skew of the most recent sharded query (largest shard "
        "over mean shard; 1.0 = balanced).",
    ),
    MetricSpec(
        "shard_merge_ms", "histogram",
        "Simulated gather/merge time per sharded query.",
    ),
    MetricSpec(
        "shard_device_busy_ms_total", "counter",
        "Cumulative simulated busy time per pool device (scatter work "
        "plus, on the merge device, merges).",
        labels=("device",),
    ),
    MetricSpec(
        "shard_relocations_total", "counter",
        "Shard relocation attempts: a shard whose device failed was "
        "re-run on a healthy device.",
    ),
    MetricSpec(
        "pool_quarantined", "gauge",
        "Device slots currently quarantined by the pool-health tracker.",
    ),
    MetricSpec(
        "pool_probe_total", "counter",
        "Probation probes opened: a quarantined slot finished its "
        "cooldown and re-entered the scatter half-open.",
    ),
    # -- circuit breaker -------------------------------------------------
    MetricSpec(
        "breaker_transitions_total", "counter",
        "Circuit-breaker state transitions, by state entered.",
        labels=("state",),  # closed | open | half-open
    ),
    MetricSpec(
        "breaker_degraded_total", "counter",
        "Queries routed straight to KBE by an open breaker.",
    ),
    # -- segment checkpoints ---------------------------------------------
    MetricSpec(
        "checkpoint_segments_total", "counter",
        "Segment checkpoint events across the shared store, by event.",
        labels=("event",),  # recorded | resumed | evicted | invalidated
    ),
    MetricSpec(
        "checkpoint_live_bytes", "gauge",
        "Bytes of materialized segment outputs held by the store.",
    ),
    # -- caches ----------------------------------------------------------
    MetricSpec(
        "cache_lookups_total", "counter",
        "Serving-cache lookups, by cache and outcome.",
        labels=("cache", "outcome"),
        # cache: plan|calibration|search|result|segment
    ),
    MetricSpec(
        "cache_evictions_total", "counter",
        "LRU evictions, by cache.",
        labels=("cache",),
    ),
    MetricSpec(
        "cache_result_bytes", "gauge",
        "Bytes of materialized query results held by the result cache.",
    ),
    MetricSpec(
        "cache_segment_bytes", "gauge",
        "Bytes of materialized segment outputs held by the cross-query "
        "segment cache.",
    ),
    # -- batched admission -----------------------------------------------
    MetricSpec(
        "batch_dedupe_queries_total", "counter",
        "Queries answered by another identical pending query's "
        "execution (dedupe fan-out).",
    ),
    MetricSpec(
        "batch_shared_scan_rounds_total", "counter",
        "Admission rounds whose members shared one fact-table scan.",
    ),
    # -- resilience ------------------------------------------------------
    MetricSpec(
        "resilience_retries_total", "counter",
        "Same-engine retries down the Δ-halving ladder.",
    ),
    MetricSpec(
        "resilience_fallbacks_total", "counter",
        "Engine-chain fallbacks (GPL -> GPL w/o CE -> KBE).",
    ),
    MetricSpec(
        "resilience_reconfigurations_total", "counter",
        "Successful shrink-reconfigurations between retries.",
    ),
    MetricSpec(
        "resilience_admission_shrinks_total", "counter",
        "Pre-launch admission shrinks down the Δ ladder.",
    ),
    MetricSpec(
        "resilience_admission_rejections_total", "counter",
        "Typed admission rejections at the Δ floor.",
    ),
    MetricSpec(
        "resilience_faults_total", "counter",
        "Injected faults that actually fired, by kind.",
        labels=("kind",),
    ),
    # -- cost-model drift ------------------------------------------------
    MetricSpec(
        "model_drift_relative_error", "histogram",
        "Per-query |measured - predicted| / measured from serve telemetry.",
        buckets=ERROR_BUCKETS,
    ),
    MetricSpec(
        "model_drift_observations_total", "counter",
        "Drift observations, by direction of the model's miss.",
        labels=("direction",),  # under | over | exact
    ),
)


def metric_catalogue() -> Tuple[MetricSpec, ...]:
    """The full metric catalogue (the docs linter's source of truth)."""
    return METRIC_CATALOGUE


def _label_key(
    spec: MetricSpec, labels: Dict[str, object]
) -> Tuple[str, ...]:
    if set(labels) != set(spec.labels):
        raise ValueError(
            f"metric {spec.name!r} takes labels {sorted(spec.labels)}, "
            f"got {sorted(labels)}"
        )
    return tuple(str(labels[name]) for name in spec.labels)


class Counter:
    """Monotonically increasing value, one series per label set."""

    def __init__(self, spec: MetricSpec):
        self.spec = spec
        self._series: Dict[Tuple[str, ...], float] = {}
        self._lock = threading.RLock()

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.spec.name!r} cannot decrease")
        key = _label_key(self.spec, labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + float(amount)

    def value(self, **labels) -> float:
        return self._series.get(_label_key(self.spec, labels), 0.0)

    def series(self) -> List[Tuple[Dict[str, str], float]]:
        return [
            (dict(zip(self.spec.labels, key)), value)
            for key, value in sorted(self._series.items())
        ]


class Gauge:
    """Last-written value, one series per label set."""

    def __init__(self, spec: MetricSpec):
        self.spec = spec
        self._series: Dict[Tuple[str, ...], float] = {}
        self._lock = threading.RLock()

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._series[_label_key(self.spec, labels)] = float(value)

    def value(self, **labels) -> float:
        return self._series.get(_label_key(self.spec, labels), 0.0)

    def series(self) -> List[Tuple[Dict[str, str], float]]:
        return [
            (dict(zip(self.spec.labels, key)), value)
            for key, value in sorted(self._series.items())
        ]


@dataclass
class _HistogramState:
    counts: List[int]
    total: float = 0.0
    count: int = 0


class Histogram:
    """Cumulative-bucket histogram (Prometheus ``le`` semantics)."""

    def __init__(self, spec: MetricSpec):
        self.spec = spec
        self.bounds: Tuple[float, ...] = tuple(spec.buckets)
        self._series: Dict[Tuple[str, ...], _HistogramState] = {}
        self._lock = threading.RLock()

    def observe(self, value: float, **labels) -> None:
        key = _label_key(self.spec, labels)
        with self._lock:
            state = self._series.get(key)
            if state is None:
                state = _HistogramState(counts=[0] * (len(self.bounds) + 1))
                self._series[key] = state
            index = len(self.bounds)  # the +Inf bucket
            for position, bound in enumerate(self.bounds):
                if value <= bound:
                    index = position
                    break
            state.counts[index] += 1
            state.total += float(value)
            state.count += 1

    def snapshot(self, **labels) -> Dict[str, object]:
        """Cumulative counts per bound, plus sum and count."""
        state = self._series.get(_label_key(self.spec, labels))
        if state is None:
            return {"buckets": [], "count": 0, "sum": 0.0}
        cumulative, running = [], 0
        for position, bound in enumerate(self.bounds):
            running += state.counts[position]
            cumulative.append((bound, running))
        cumulative.append((float("inf"), state.count))
        return {
            "buckets": cumulative,
            "count": state.count,
            "sum": state.total,
        }

    def series(self) -> List[Tuple[Dict[str, str], _HistogramState]]:
        return [
            (dict(zip(self.spec.labels, key)), state)
            for key, state in sorted(self._series.items())
        ]


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """All metrics of one process/service, instantiated from the catalogue.

    Lookups are typed (``registry.counter("serve_rounds_total")``) and
    fail fast on unknown names or kind mismatches, so instrumentation
    cannot silently invent metrics the catalogue — and therefore the
    documentation — does not know about.
    """

    def __init__(self, catalogue: Tuple[MetricSpec, ...] = METRIC_CATALOGUE):
        self.specs: Dict[str, MetricSpec] = {}
        self._metrics: Dict[str, object] = {}
        for spec in catalogue:
            if spec.name in self.specs:
                raise ValueError(f"duplicate metric {spec.name!r}")
            if spec.kind not in _KINDS:
                raise ValueError(
                    f"metric {spec.name!r} has unknown kind {spec.kind!r}"
                )
            self.specs[spec.name] = spec
            self._metrics[spec.name] = _KINDS[spec.kind](spec)

    def _get(self, name: str, kind: str):
        spec = self.specs.get(name)
        if spec is None:
            raise KeyError(f"metric {name!r} is not in the catalogue")
        if spec.kind != kind:
            raise TypeError(
                f"metric {name!r} is a {spec.kind}, not a {kind}"
            )
        return self._metrics[name]

    def counter(self, name: str) -> Counter:
        return self._get(name, "counter")

    def gauge(self, name: str) -> Gauge:
        return self._get(name, "gauge")

    def histogram(self, name: str) -> Histogram:
        return self._get(name, "histogram")

    def names(self) -> List[str]:
        return sorted(self.specs)

    # -- export ----------------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        """Nested-dict snapshot; deterministic (sorted names and series).

        Series that were never touched are omitted, so a snapshot is
        exactly what the run emitted.
        """
        out: Dict[str, object] = {}
        for name in self.names():
            spec = self.specs[name]
            metric = self._metrics[name]
            series: List[Dict[str, object]] = []
            if spec.kind == "histogram":
                for labels, state in metric.series():
                    series.append(
                        {
                            "labels": labels,
                            "count": state.count,
                            "sum": state.total,
                        }
                    )
            else:
                for labels, value in metric.series():
                    series.append({"labels": labels, "value": value})
            if series:
                out[name] = {
                    "type": spec.kind,
                    "help": spec.help,
                    "series": series,
                }
        return out

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (``# HELP``/``# TYPE``)."""

        def fmt_labels(labels: Dict[str, str], extra: str = "") -> str:
            parts = [f'{k}="{v}"' for k, v in sorted(labels.items())]
            if extra:
                parts.append(extra)
            return "{" + ",".join(parts) + "}" if parts else ""

        lines: List[str] = []
        for name in self.names():
            spec = self.specs[name]
            metric = self._metrics[name]
            if not metric.series():
                continue
            lines.append(f"# HELP {name} {spec.help}")
            lines.append(f"# TYPE {name} {spec.kind}")
            if spec.kind == "histogram":
                for labels, state in metric.series():
                    running = 0
                    for position, bound in enumerate(metric.bounds):
                        running += state.counts[position]
                        le = 'le="%g"' % bound
                        lines.append(
                            f"{name}_bucket{fmt_labels(labels, le)} {running}"
                        )
                    inf = 'le="+Inf"'
                    lines.append(
                        f"{name}_bucket{fmt_labels(labels, inf)} {state.count}"
                    )
                    lines.append(
                        f"{name}_sum{fmt_labels(labels)} {state.total:g}"
                    )
                    lines.append(
                        f"{name}_count{fmt_labels(labels)} {state.count}"
                    )
            else:
                for labels, value in metric.series():
                    lines.append(f"{name}{fmt_labels(labels)} {value:g}")
        return "\n".join(lines) + ("\n" if lines else "")
