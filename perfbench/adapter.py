"""The only perfbench file that imports ``repro``.

Everything the benchmark does to the program goes through the functions
below, so this file *is* the surface the benchmark holds still:
``perfbench/README.md`` lists every symbol and keyword used here, and a
refactor of ``repro`` that keeps those names keeps the benchmark running
unchanged.  Default arguments are used wherever a workload does not need
to say otherwise, and the one optional keyword (``workers``) is
feature-detected.

The second half is the trace-point table: which public entry points of
which module are wrapped with spans in the traced pass, and what count is
taken at each of those boundaries.
"""

from __future__ import annotations

import dataclasses
import inspect
import pathlib
import sys
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if not (_SRC / "repro").is_dir():
    raise ImportError(
        f"perfbench measures the repro package under {_SRC}, which is missing"
    )
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro import (  # noqa: E402
    AMD_A10,
    NVIDIA_K40,
    DevicePool,
    FaultKind,
    FaultPlan,
    GPLConfig,
    GPLEngine,
    GPLWithoutCEEngine,
    KBEEngine,
    OcelotEngine,
    QueryService,
    ResilientExecutor,
    ShardedExecutor,
    generate_database,
    generate_ssb,
    q14,
    query_by_name,
    ssb_query,
)
from repro.core import EngineBase, QueryCheckpoint, WorkerPool  # noqa: E402
from repro.errors import ReproError as QueryError  # noqa: E402
from repro.gpu import Simulator  # noqa: E402
from repro.model import (  # noqa: E402
    ConfigurationSearch,
    CostModel,
    calibrate_channels,
    calibration_cache_stats,
    clear_calibration_cache,
    clear_search_cache,
    plan_cost_inputs,
    search_cache_stats,
)
from repro.plans import SelingerOptimizer, SinkOp, StreamOp, lower  # noqa: E402
from repro.plans.interpreter import naive_execute  # noqa: E402
from repro.relational import (  # noqa: E402
    ColumnStats,
    Database,
    PartitionCache,
    partition_database,
)
from repro.serve import PlanCache, ResultCache, Scheduler, SegmentCache  # noqa: E402
from repro.shard import decompose  # noqa: E402

from .tracing import Recorder, TracePoint  # noqa: E402

KIB = 1024
DEVICES = {"amd": AMD_A10, "nvidia": NVIDIA_K40}
#: Name the reference device reports on results (KBE references run on it).
REFERENCE_DEVICE = AMD_A10.name
#: Fault kinds the resilience chain always absorbs when at most two fire
#: per query: a stall falls back one engine, an overflow or an
#: out-of-memory retries at half the tile size.
RECOVERABLE_FAULTS = {
    "stall": FaultKind.CHANNEL_STALL,
    "overflow": FaultKind.CHANNEL_OVERFLOW,
    "oom": FaultKind.DEVICE_OOM,
}


# -- data ---------------------------------------------------------------------


def tpch_database(scale: float, seed: Optional[int] = None):
    """TPC-H at ``scale``; ``seed=None`` keeps the generator's default."""
    if seed is None:
        return generate_database(scale=scale)
    return generate_database(scale=scale, seed=seed)


def ssb_database(scale: float, seed: Optional[int] = None):
    if seed is None:
        return generate_ssb(scale=scale)
    return generate_ssb(scale=scale, seed=seed)


def cold_copy(database):
    """A new ``Database`` over the same tables: statistics start cold."""
    copy = Database()
    for name in database.names:
        copy.add(name, database.table(name))
    return copy


def database_rows(database) -> int:
    return sum(database.num_rows(name) for name in database.names)


# -- query shapes -------------------------------------------------------------


def tpch_query(name: str):
    return query_by_name(name)


def q14_selectivity(selectivity: float):
    return q14(selectivity=selectivity)


def ssb_flight(name: str):
    return ssb_query(name)


def limited(spec, limit: int):
    """``spec`` keeping only its first ``limit`` rows: a distinct shape."""
    return dataclasses.replace(spec, limit=limit)


# -- engines, services, executors ---------------------------------------------


def make_engine(kind: str, database, device: str = "amd",
                tile_kib: Optional[int] = None, segment_configs=None):
    """One of the paper's four engines; ``tile_kib`` sets Δ for GPL."""
    spec = DEVICES[device]
    if kind == "kbe":
        return KBEEngine(database, spec)
    if kind == "ocelot":
        return OcelotEngine(database, spec)
    cls = {"gpl": GPLEngine, "gpl-woce": GPLWithoutCEEngine}[kind]
    config = GPLConfig(tile_bytes=tile_kib * KIB) if tile_kib else None
    return cls(database, spec, config=config, segment_configs=segment_configs)


def make_service(database, device: str = "amd",
                 result_cache_bytes: Optional[int] = None,
                 segment_cache_bytes: Optional[int] = None,
                 batch_dedupe: bool = False):
    return QueryService(
        database,
        DEVICES[device],
        result_cache_bytes=result_cache_bytes,
        segment_cache_bytes=segment_cache_bytes,
        batch_dedupe=batch_dedupe,
    )


def supports_workers() -> bool:
    return "workers" in inspect.signature(ShardedExecutor.__init__).parameters


def make_sharded(database, devices: int = 4, workers: Optional[int] = None):
    """A scatter-gather executor; ``workers=None`` passes no keyword."""
    if workers is None:
        return ShardedExecutor(database, DevicePool(devices))
    return ShardedExecutor(database, DevicePool(devices), workers=workers)


def fault_plan(seed: int, count: int, kind: str):
    return FaultPlan.from_seed(
        seed, count=count, kinds=(RECOVERABLE_FAULTS[kind],)
    )


def execute(runner, spec):
    """``runner`` is an engine or a sharded executor."""
    return runner.execute(spec)


def submit(service, spec):
    return service.submit(spec)


def run_batch(service, specs: Sequence):
    return service.run(specs)


def run_faulty_batch(service, items: Sequence[Tuple[object, object]]):
    """Enqueue ``(spec, fault plan or None)`` pairs, then drain."""
    for spec, plan in items:
        service.enqueue(spec, fault_plan=plan)
    return service.drain()


def batch_answers(service, report) -> List[Tuple[Optional[object], bool]]:
    """One ``(result, executed)`` per query of the drain, in submission
    order.  ``result`` is ``None`` if the query failed, was shed or ran
    out of time; ``executed`` is false for an answer that came from the
    result cache or from an identical query in the same drain."""
    records = sorted(report.records, key=lambda record: record.index)
    return [
        (
            service.results.get(record.index) if record.ok else None,
            record.outcome == "ok" and not record.deduped,
        )
        for record in records
    ]


def release_results(service) -> None:
    """What a long-running client does: drop results it has read."""
    service.results.clear()


def report_counts(report) -> Dict[str, int]:
    return {
        "cached": report.cached,
        "deduped": report.deduped,
        "shared_scan_rounds": report.shared_scan_rounds,
    }


def plan_cold(base_database, spec, device: str):
    """Fig 11's procedure for the first query of a new shape: cold
    statistics, cold search memo, plan, search, run as configured.
    Returns ``(result, predicted cycles)``."""
    database = cold_copy(base_database)
    clear_search_cache()
    spec_device = DEVICES[device]
    plan = GPLEngine(database, spec_device).prepare_uncached(spec)
    segments = plan_cost_inputs(plan, database)
    search = ConfigurationSearch(spec_device, calibrate_channels(spec_device))
    configs, predicted = search.optimize_plan(segments)
    engine = GPLEngine(database, spec_device, segment_configs=configs)
    return engine.execute_plan(spec.name, plan), predicted


def forget_calibration() -> None:
    clear_calibration_cache()


def close(executor) -> None:
    """Stop the worker threads of a sharded executor."""
    executor.worker_pool.shutdown()


def interpret(spec, database) -> List[tuple]:
    """Rows from the row-at-a-time interpreter (the independent oracle)."""
    columns = naive_execute(spec, database)
    return list(zip(*columns.values())) if columns else []


# -- reading results ----------------------------------------------------------


def rows(result) -> List[tuple]:
    return result.rows()


def sim_cycles(result) -> float:
    return float(result.counters.elapsed_cycles)


def ran_on_reference_gpl(result) -> bool:
    return result.engine == "GPL" and result.device == REFERENCE_DEVICE


def stats_snapshot(service=None) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Public counters as flat dicts: ``(running totals, gauges)``."""
    search = search_cache_stats()
    totals: Dict[str, float] = {
        "search.hits": search["hits"],
        "search.misses": search["misses"],
        "calibration.misses": calibration_cache_stats()["misses"],
    }
    gauges: Dict[str, float] = {}
    if service is None:
        return totals, gauges
    totals["plan.hits"] = service.plan_cache.stats.hits
    totals["plan.misses"] = service.plan_cache.stats.misses
    for label, cache in (
        ("result", service.result_cache),
        ("segment", service.segment_cache),
    ):
        if cache is not None:
            counters = cache.counters_dict()
            for key in ("hits", "misses", "evictions"):
                totals[f"{label}.{key}"] = counters[key]
            gauges[f"{label}.peak_bytes"] = counters["peak_bytes"]
    checkpoint = service.checkpoint_store.counters_dict()
    totals["checkpoint.recorded"] = checkpoint["recorded"]
    totals["checkpoint.resumed"] = checkpoint["resumed"]
    registry = service.registry
    totals["breaker.transitions"] = sum(
        value
        for _, value in registry.counter("breaker_transitions_total").series()
    )
    totals["breaker.degraded"] = registry.counter(
        "breaker_degraded_total"
    ).value()
    drift = service.drift.records
    totals["drift.observations"] = len(drift)
    totals["drift.error_sum"] = sum(record.relative_error for record in drift)
    return totals, gauges


# -- trace points -------------------------------------------------------------

#: Physical operator class name -> the ``plans.physical.<kind>_ms`` bucket.
_OPERATOR_KINDS = {
    "ProbeOp": "probe",
    "FilterOp": "filter",
    "ComputeOp": "compute",
    "AggSink": "agg",
    "BuildSink": "build",
    "PartitionedBuildSink": "build",
    "SortSink": "sort",
}


def _subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _batch_rows(args, result, error) -> int:
    for column in args[1].values():
        return len(column)
    return 0


def _simulated(args, result, error):
    """``(work-groups, simulated cycles)`` of one simulator call."""
    if error is not None:
        return (0, 0.0)
    stages = getattr(result, "stage_stats", None)
    if stages is None:  # run_exclusive returns one KernelRunStats
        return (int(result.workgroups), float(result.elapsed_cycles))
    return (
        int(sum(stage.workgroups for stage in stages)),
        float(result.elapsed_cycles),
    )


def _resilience(args, result, error):
    report = getattr(result if error is None else error, "resilience", None)
    if report is None:
        return (0, 0, 0, 0)
    return (
        len(report.attempts),
        report.retries,
        report.fallbacks,
        sum(report.faults_fired.values()),
    )


def _sharded(args, result, error):
    if error is not None or result.shard is None:
        return (0, 0, 0.0)
    return (
        result.shard.fanout,
        result.shard.relocations,
        float(result.counters.elapsed_cycles),
    )


def _partition_skew(args, result, error):
    return 0.0 if error is not None else float(result[1].skew)


def trace_points(recorder: Recorder) -> List[TracePoint]:
    """Every wrapped boundary, layer by layer (layer = module name)."""

    def method(layer, name, owner, attr, measure=None):
        return TracePoint(layer, name, owner, attr, measure=measure)

    def function(layer, target, measure=None):
        return TracePoint(
            layer, target.__name__, None, target.__name__, target=target,
            measure=measure,
        )

    points = [
        function("dbgen", generate_database,
                 lambda a, result, e: database_rows(result) if e is None else 0),
        function("dbgen", generate_ssb,
                 lambda a, result, e: database_rows(result) if e is None else 0),
        method("relational.database", "stats", Database, "stats"),
        method("relational.database", "stats_compute", ColumnStats, "from_array"),
        function("relational.partition", partition_database),
        method("relational.partition", "get_or_compute", PartitionCache,
               "get_or_compute", _partition_skew),
        method("plans.optimizer", "optimize", SelingerOptimizer, "optimize"),
        function("plans.lowering", lower),
        function("model.calibration", calibrate_channels),
        method("model.search", "best_for_segment", ConfigurationSearch,
               "best_for_segment"),
        method("model.search", "optimize_plan", ConfigurationSearch,
               "optimize_plan"),
        method("model.costmodel", "estimate_segment", CostModel,
               "estimate_segment"),
        function("model.costmodel", plan_cost_inputs),
        method("gpu.simulator", "run_pipeline", Simulator, "run_pipeline",
               _simulated),
        method("gpu.simulator", "run_exclusive", Simulator, "run_exclusive",
               _simulated),
        method("core.engine", "execute", EngineBase, "execute"),
        method("core.engine", "execute_plan", EngineBase, "execute_plan"),
        method("core.resilience", "execute", ResilientExecutor, "execute",
               _resilience),
        method("core.checkpoint", "restore", QueryCheckpoint, "restore"),
        method("core.checkpoint", "record", QueryCheckpoint, "record"),
        method("core.checkpoint", "segment_keys_for", SegmentCache, "keys_for"),
        method("core.checkpoint", "segment_restore", SegmentCache, "restore"),
        method("core.checkpoint", "segment_store", SegmentCache, "store"),
        method("serve.caches", "fetch_or_prepare", PlanCache,
               "fetch_or_prepare"),
        method("serve.caches", "result_lookup", ResultCache, "lookup"),
        method("serve.caches", "result_store", ResultCache, "store"),
        method("serve.scheduler", "admission_rounds", Scheduler,
               "admission_rounds",
               lambda a, result, e: len(result) if e is None else 0),
        function("shard.planner", decompose),
        method("shard.executor", "execute", ShardedExecutor, "execute",
               _sharded),
    ]
    for attr in ("submit", "run", "enqueue", "drain"):
        points.append(method("serve.service", attr, QueryService, attr))
    for base, attrs in ((StreamOp, ("apply",)), (SinkOp, ("consume", "finalize"))):
        for cls in _subclasses(base):
            kind = _OPERATOR_KINDS.get(cls.__name__, "other")
            for attr in attrs:
                if attr in cls.__dict__:
                    points.append(
                        method(
                            "plans.physical", kind, cls, attr,
                            None if attr == "finalize" else _batch_rows,
                        )
                    )
    # Not a span: carry the submitting thread's open span into the task.
    points.append(
        TracePoint(
            "core.parallel", "submit", WorkerPool, "submit",
            wrapper=lambda original: (
                lambda pool, fn: original(pool, recorder.handoff(fn))
            ),
        )
    )
    return points
