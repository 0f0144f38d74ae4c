"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``run``        execute a query on one engine and print decoded results
               (``--inject-faults`` schedules deterministic faults;
               ``--resilient`` wraps the run in admission control, bounded
               retry, and the GPL -> GPL w/o CE -> KBE fallback chain)
``serve``      replay a multi-query trace through the concurrent
               :class:`~repro.serve.QueryService` and print throughput,
               p50/p95 latency, and cache hit/miss counters
               (``--inject-faults`` and ``--resilient`` compose with it)
``compare``    run one query on every engine and print a comparison
``calibrate``  print the channel-throughput surface Γ(n, p, d)
``tune``       run the analytical model's configuration search
``explain``    show the optimized plan with the optimizer's estimates
``trace``      render a text Gantt chart of the pipelined execution
``obs``        summarize a Perfetto trace saved with ``--trace-out``
``dbgen``      report generated table sizes; optionally export .tbl files

``run`` and ``serve`` accept ``--trace-out FILE`` to record a
cross-layer span trace (plan/search/resilience/simulator/serve) in the
Chrome/Perfetto ``trace.json`` format; open it at ``ui.perfetto.dev``
or summarize it with the ``obs`` command.

Query names select the workload: ``Q5``/``Q7``/``Q8``/``Q9``/``Q14`` run
TPC-H, flight-numbered names (``Q1.1`` … ``Q4.3``) run the Star Schema
Benchmark.  Everything runs in-process against the simulated device; no
files are written unless ``--output`` is given.

Exit codes: 0 success, 1 hard failure, 2 other typed errors, 3 a
deadline cancelled the query (``--deadline-cycles``), 4 the bounded
serve queue shed at least one query (``--max-pending``).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from contextlib import contextmanager
from typing import Iterator, List, Optional

from . import __version__
from .bench.reporting import banner, format_table
from .core import GPLConfig, GPLEngine, GPLWithoutCEEngine, ResilientExecutor
from .errors import DeadlineExceededError, ExecutionError, ReproError
from .faults import FaultInjector, FaultPlan
from .gpu import device_by_name
from .kbe import KBEEngine
from .model import (
    ConfigurationSearch,
    calibrate_channels,
    plan_cost_inputs,
)
from .ocelot import OcelotEngine
from .tpch import generate_database, query_by_name

ENGINES = {
    "kbe": KBEEngine,
    "gpl": GPLEngine,
    "gpl-woce": GPLWithoutCEEngine,
    "ocelot": OcelotEngine,
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--device",
        choices=("amd", "nvidia"),
        default="amd",
        help="simulated device preset (Table 1)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.02,
        help="TPC-H scale factor (default 0.02)",
    )
    parser.add_argument(
        "--seed", type=int, default=20160626, help="dbgen RNG seed"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "GPL (SIGMOD 2016) reproduction: pipelined GPU query "
            "processing on a simulated device"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="execute one query on one engine")
    run.add_argument("query", help="Q5, Q7, Q8, Q9, or Q14")
    run.add_argument(
        "--engine", choices=sorted(ENGINES), default="gpl"
    )
    run.add_argument(
        "--tile-kb", type=int, default=1024, help="GPL tile size in KiB"
    )
    run.add_argument(
        "--partitioned-joins",
        action="store_true",
        help="use partitioned hash joins for large build sides",
    )
    run.add_argument(
        "--inject-faults",
        metavar="SPEC",
        help=(
            "deterministic fault schedule, e.g. 'oom', "
            "'stall@pipe0:probe*', 'abort@*:*,times=2', 'random:42:3'"
        ),
    )
    run.add_argument(
        "--resilient",
        action="store_true",
        help=(
            "execute through the resilience layer: admission control, "
            "bounded retry-with-reconfiguration, fallback chain "
            "GPL -> GPL (w/o CE) -> KBE"
        ),
    )
    run.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="retry budget per engine in resilient mode (default 2)",
    )
    run.add_argument(
        "--deadline-cycles",
        type=float,
        help=(
            "cancel the query once it has consumed this many simulated "
            "cycles (exit code 3); checked at segment and tile boundaries"
        ),
    )
    run.add_argument(
        "--memory-budget-mb",
        type=float,
        help=(
            "device memory budget for admission control in MB "
            "(default: the device's global memory)"
        ),
    )
    run.add_argument(
        "--devices",
        default="1",
        metavar="POOL",
        help=(
            "shard the query across a simulated device pool: a count "
            "('4', repeating the --device preset) or a comma-separated "
            "preset list ('amd,amd,nvidia'); '1' (default) runs "
            "single-device"
        ),
    )
    run.add_argument(
        "--max-relocations",
        type=int,
        default=2,
        metavar="N",
        help=(
            "relocation budget per sharded query: a shard whose whole "
            "resilience chain fails (or whose device a 'device_down' "
            "fault kills) is re-run on the lowest-index healthy device, "
            "at most N times per query (only meaningful with --devices "
            "> 1; default 2)"
        ),
    )
    run.add_argument(
        "--quarantine-threshold",
        type=int,
        default=2,
        metavar="K",
        help=(
            "consecutive shard failures before pool health quarantines "
            "a device slot, excluding it from the scatter until its "
            "cooldown expires (0 disables pool-health tracking; only "
            "meaningful with --devices > 1; default 2)"
        ),
    )
    run.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write a Perfetto trace.json of the run to FILE",
    )
    _add_common(run)

    serve = commands.add_parser(
        "serve",
        help="replay a multi-query trace through the concurrent service",
    )
    serve.add_argument(
        "--queries",
        default="Q5,Q7,Q8,Q9,Q14",
        help=(
            "comma-separated trace of query names (repeats allowed); "
            "all TPC-H or all SSB, not mixed (default: the paper's five)"
        ),
    )
    serve.add_argument(
        "--repeat",
        type=int,
        default=2,
        help="replay the trace this many times (default 2: the second "
        "pass exercises the warm caches)",
    )
    serve.add_argument(
        "--policy",
        choices=("fifo", "sjf"),
        default="fifo",
        help="scheduling policy: submission order or shortest-cost-first",
    )
    serve.add_argument(
        "--max-concurrent",
        type=int,
        default=8,
        help="queries admitted per concurrent round (default 8)",
    )
    serve.add_argument(
        "--tile-kb", type=int, default=1024, help="GPL tile size in KiB"
    )
    serve.add_argument(
        "--partitioned-joins",
        action="store_true",
        help="use partitioned hash joins for large build sides",
    )
    serve.add_argument(
        "--inject-faults",
        metavar="SPEC",
        help="deterministic fault schedule applied to every served query",
    )
    serve.add_argument(
        "--resilient",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "serve through the resilience layer (default on; "
            "--no-resilient serves on bare GPL engines, so faults fail "
            "queries instead of degrading them)"
        ),
    )
    serve.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="retry budget per engine in resilient mode (default 2)",
    )
    serve.add_argument(
        "--deadline-cycles",
        type=float,
        help=(
            "service-level deadline: cancel any query past this many "
            "simulated cycles (records it as outcome 'deadline'; exit "
            "code 3 when any query is cancelled)"
        ),
    )
    serve.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        help=(
            "consecutive GPL-tier faults before the per-query circuit "
            "breaker trips to the KBE degrade path (0 disables breakers; "
            "default 3)"
        ),
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        help=(
            "bound the async admission queue to this many pending "
            "queries; overflow is shed per --queue-policy (default: "
            "unbounded)"
        ),
    )
    serve.add_argument(
        "--queue-policy",
        choices=("reject", "shed-oldest"),
        default="reject",
        help=(
            "what a full bounded queue sheds: the arriving query "
            "('reject') or the oldest pending one ('shed-oldest')"
        ),
    )
    serve.add_argument(
        "--memory-budget-mb",
        type=float,
        help=(
            "shared device-memory budget partitioned across each round "
            "in MB (default: the device's global memory)"
        ),
    )
    serve.add_argument(
        "--tuned",
        action="store_true",
        help=(
            "run every query with the cost model's per-segment optimal "
            "configs (Section 4.1's search) instead of one baseline "
            "config; the drift report then mirrors Figs 11/24"
        ),
    )
    serve.add_argument(
        "--devices",
        default="1",
        metavar="POOL",
        help=(
            "serve across a simulated device pool: a count ('4', "
            "repeating the --device preset) or a comma-separated preset "
            "list ('amd,amd,nvidia'); every query scatter-gathers over "
            "the pool ('1', the default, serves single-device)"
        ),
    )
    serve.add_argument(
        "--result-cache-bytes",
        type=int,
        default=64 * 1024 * 1024,
        metavar="BYTES",
        help=(
            "byte budget of the whole-result LRU cache consulted "
            "before admission; hits bypass execution entirely with "
            "outcome 'cached' (default: 64 MiB)"
        ),
    )
    serve.add_argument(
        "--no-result-cache",
        action="store_true",
        help=(
            "disable the result cache AND the cross-query segment "
            "cache — every query re-executes end to end (the pre-PR-8 "
            "serving behaviour)"
        ),
    )
    serve.add_argument(
        "--batch-dedupe",
        action="store_true",
        help=(
            "shared-scan batched admission: execute one representative "
            "of identical pending specs per drain (fanning the result "
            "out to the duplicates) and group same-fact-table queries "
            "into admission rounds"
        ),
    )
    serve.add_argument(
        "--max-relocations",
        type=int,
        default=2,
        metavar="N",
        help=(
            "relocation budget per sharded query: a shard whose whole "
            "resilience chain fails (or whose device a 'device_down' "
            "fault kills) is re-run on the lowest-index healthy device, "
            "at most N times per query (only meaningful with --devices "
            "> 1; default 2)"
        ),
    )
    serve.add_argument(
        "--quarantine-threshold",
        type=int,
        default=2,
        metavar="K",
        help=(
            "consecutive shard failures before pool health quarantines "
            "a device slot, excluding it from the scatter until its "
            "cooldown expires (0 disables pool-health tracking; only "
            "meaningful with --devices > 1; default 2)"
        ),
    )
    serve.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write a Perfetto trace.json of the whole drain to FILE",
    )
    _add_common(serve)

    compare = commands.add_parser(
        "compare", help="run one query on every engine"
    )
    compare.add_argument("query", help="Q5, Q7, Q8, Q9, or Q14")
    _add_common(compare)

    calibrate = commands.add_parser(
        "calibrate", help="print the channel-throughput surface"
    )
    _add_common(calibrate)

    tune = commands.add_parser(
        "tune", help="run the cost model's configuration search"
    )
    tune.add_argument("query", help="Q5, Q7, Q8, Q9, or Q14")
    _add_common(tune)

    explain = commands.add_parser(
        "explain", help="show the optimized plan and its estimates"
    )
    explain.add_argument("query", help="Q5, Q7, Q8, Q9, or Q14")
    explain.add_argument(
        "--partitioned-joins",
        action="store_true",
        help="use partitioned hash joins for large build sides",
    )
    _add_common(explain)

    workload = commands.add_parser(
        "workload", help="run a whole query suite on every engine"
    )
    workload.add_argument(
        "suite", choices=("tpch", "ssb"), help="which workload to run"
    )
    _add_common(workload)

    trace = commands.add_parser(
        "trace", help="render a Gantt chart of the pipelined execution"
    )
    trace.add_argument("query", help="Q5, Q7, Q8, Q9, or Q14")
    trace.add_argument(
        "--width", type=int, default=64, help="chart width in buckets"
    )
    _add_common(trace)

    obs = commands.add_parser(
        "obs", help="summarize a saved Perfetto trace (--trace-out output)"
    )
    obs.add_argument("trace_file", help="path to a trace.json file")
    obs.add_argument(
        "--category",
        help="only summarize one span category "
        "(serve, plan, search, resilience, simulator)",
    )
    obs.add_argument(
        "--top",
        type=int,
        default=10,
        help="how many longest spans to list (default 10)",
    )

    dbgen = commands.add_parser("dbgen", help="report generated table sizes")
    dbgen.add_argument(
        "--output",
        help="also export every table as dbgen-style .tbl files here",
    )
    _add_common(dbgen)
    return parser


def _is_ssb(query_name: str) -> bool:
    """SSB queries are flight-numbered (Q1.1 ... Q4.3)."""
    return "." in query_name


def _query_spec(query_name: str):
    # Translate lookup failures into the typed error hierarchy so every
    # command exits 2 through the top-level handler instead of dumping a
    # traceback on a typo'd query name.
    try:
        if _is_ssb(query_name):
            from .ssb import ssb_query

            return ssb_query(query_name.upper().lstrip("SSB-"))
        return query_by_name(query_name)
    except (KeyError, ValueError) as exc:
        raise ExecutionError(str(exc)) from exc


def _database(args):
    query_name = getattr(args, "query", "")
    if query_name and _is_ssb(query_name):
        from .ssb import generate_ssb

        return generate_ssb(scale=args.scale, seed=args.seed)
    return generate_database(scale=args.scale, seed=args.seed)


@contextmanager
def _traced(trace_out: Optional[str]) -> Iterator[None]:
    """Record the block into a Perfetto trace file when requested.

    The file is written only when the block succeeds, so a failed
    command never leaves a half-trace behind.
    """
    if not trace_out:
        yield
        return
    from .obs import Tracer, use_tracer

    tracer = Tracer()
    with use_tracer(tracer):
        yield
    tracer.write_json(trace_out)
    print(
        f"wrote {tracer.num_spans()} spans "
        f"({', '.join(tracer.categories())}) to {trace_out}"
    )


def _pool_for(args):
    """The :class:`~repro.shard.DevicePool` ``--devices`` asks for.

    Returns ``None`` for the default single-device mode.
    """
    text = getattr(args, "devices", "1").strip()
    if text == "1":
        return None
    from .shard import DevicePool

    try:
        return DevicePool.from_spec(text, default=args.device)
    except ReproError:
        raise
    except ValueError as exc:
        raise ExecutionError(str(exc)) from exc


def cmd_run(args) -> int:
    database = _database(args)
    device = device_by_name(args.device)
    fault_plan = (
        FaultPlan.parse(args.inject_faults) if args.inject_faults else None
    )
    spec = _query_spec(args.query)
    if args.deadline_cycles is not None:
        spec = dataclasses.replace(spec, deadline_cycles=args.deadline_cycles)
    pool = _pool_for(args)
    if pool is not None:
        if args.engine != "gpl":
            raise ExecutionError(
                "--devices shards through the GPL engine (plus the "
                "resilient fallback chain); it cannot run "
                f"--engine {args.engine}"
            )
        from .shard import ShardedExecutor

        executor = ShardedExecutor(
            database,
            pool,
            config=GPLConfig(tile_bytes=args.tile_kb * 1024),
            resilient=args.resilient,
            fault_plans=fault_plan,
            memory_budget_bytes=(
                args.memory_budget_mb * 1024 * 1024
                if args.memory_budget_mb
                else None
            ),
            max_retries=args.max_retries,
            partitioned_joins=args.partitioned_joins,
            max_relocations=args.max_relocations,
            quarantine_threshold=args.quarantine_threshold,
        )
        with _traced(args.trace_out):
            result = executor.execute(spec)
        print(banner(f"{args.query} on {result.engine} ({result.device})"))
        print(format_table(result.columns, result.decoded_rows()[:25]))
        if result.num_rows > 25:
            print(f"... {result.num_rows - 25} more rows")
        print(
            f"\nelapsed {result.elapsed_ms:.3f} ms (slowest shard + merge) "
            f"| launches {result.counters.kernel_launches}"
        )
        print(banner("shard report"))
        print(result.shard.describe())
        return 0
    if args.resilient:
        executor = ResilientExecutor(
            database,
            device,
            config=GPLConfig(tile_bytes=args.tile_kb * 1024),
            fault_plan=fault_plan,
            memory_budget_bytes=(
                args.memory_budget_mb * 1024 * 1024
                if args.memory_budget_mb
                else None
            ),
            max_retries=args.max_retries,
            partitioned_joins=args.partitioned_joins,
        )
        with _traced(args.trace_out):
            result = executor.execute(spec)
        engine_name = f"{result.engine} (resilient)"
    else:
        engine_cls = ENGINES[args.engine]
        kwargs = {}
        if args.engine in ("gpl", "gpl-woce"):
            kwargs["config"] = GPLConfig(tile_bytes=args.tile_kb * 1024)
        if args.partitioned_joins:
            kwargs["partitioned_joins"] = True
        engine = engine_cls(database, device, **kwargs)
        if fault_plan is not None:
            engine.fault_injector = FaultInjector(fault_plan)
        with _traced(args.trace_out):
            result = engine.execute(spec)
        engine_name = engine.name
    print(banner(f"{args.query} on {engine_name} ({device.name})"))
    print(format_table(result.columns, result.decoded_rows()[:25]))
    if result.num_rows > 25:
        print(f"... {result.num_rows - 25} more rows")
    counters = result.counters
    print(
        f"\nelapsed {result.elapsed_ms:.3f} ms | "
        f"VALUBusy {counters.valu_busy:.2f} | "
        f"MemUnitBusy {counters.mem_unit_busy:.2f} | "
        f"materialized {counters.bytes_materialized / 1e6:.2f} MB | "
        f"launches {counters.kernel_launches}"
    )
    if result.resilience is not None:
        print(banner("resilience report"))
        print(result.resilience.to_text())
    return 0


def cmd_serve(args) -> int:
    from .serve import QueryService

    names = [name.strip() for name in args.queries.split(",") if name.strip()]
    if not names:
        raise ExecutionError("serve needs at least one query name")
    names = names * max(1, args.repeat)
    ssb_flags = {_is_ssb(name) for name in names}
    if len(ssb_flags) > 1:
        raise ExecutionError(
            "cannot mix TPC-H and SSB queries in one served trace: they "
            "run against different databases"
        )
    if ssb_flags.pop():
        from .ssb import generate_ssb

        database = generate_ssb(scale=args.scale, seed=args.seed)
    else:
        database = generate_database(scale=args.scale, seed=args.seed)
    device = device_by_name(args.device)
    fault_plan = (
        FaultPlan.parse(args.inject_faults) if args.inject_faults else None
    )
    pool = _pool_for(args)
    service = QueryService(
        database,
        device,
        config=GPLConfig(tile_bytes=args.tile_kb * 1024),
        policy=args.policy,
        max_concurrent=args.max_concurrent,
        memory_budget_bytes=(
            args.memory_budget_mb * 1024 * 1024
            if args.memory_budget_mb
            else None
        ),
        resilient=args.resilient,
        fault_plan=fault_plan,
        max_retries=args.max_retries,
        partitioned_joins=args.partitioned_joins,
        tuned=args.tuned,
        default_deadline_cycles=args.deadline_cycles,
        breaker_threshold=args.breaker_threshold,
        max_pending=args.max_pending,
        queue_policy=args.queue_policy,
        pool=pool,
        result_cache_bytes=(
            None if args.no_result_cache else args.result_cache_bytes
        ),
        segment_cache_bytes=(
            None if args.no_result_cache else 256 * 1024 * 1024
        ),
        batch_dedupe=args.batch_dedupe,
        max_relocations=args.max_relocations,
        quarantine_threshold=args.quarantine_threshold,
    )
    with _traced(args.trace_out):
        report = service.run([_query_spec(name) for name in names])
    where = (
        device.name if pool is None
        else f"a pool of {len(pool)} devices"
    )
    print(
        banner(
            f"serving {report.num_queries} queries on {where} "
            f"({args.policy}, {args.max_concurrent} concurrent)"
        )
    )
    print(report.to_text())
    # Exit-code priority mirrors `run`: hard failures beat deadline
    # cancellations beat load shedding; a fully-served drain exits 0.
    if report.hard_failures:
        return 1
    if report.deadline_exceeded:
        return 3
    if report.shed:
        return 4
    return 0


def cmd_compare(args) -> int:
    database = _database(args)
    device = device_by_name(args.device)
    spec = _query_spec(args.query)
    rows = []
    baseline: Optional[float] = None
    reference_result = None
    for name, engine_cls in sorted(ENGINES.items()):
        engine = engine_cls(database, device)
        result = engine.execute(spec)
        if reference_result is None:
            reference_result = result
        elif not reference_result.approx_equals(result):
            print(f"ERROR: {name} disagrees with the other engines")
            return 1
        if name == "kbe":
            baseline = result.elapsed_ms
        rows.append([engine.name, round(result.elapsed_ms, 3)])
    for row in rows:
        row.append(
            round(row[1] / baseline, 3) if baseline else float("nan")
        )
    print(banner(f"{args.query} on {device.name} (scale {args.scale})"))
    print(format_table(["engine", "ms", "vs KBE"], rows))
    return 0


def cmd_calibrate(args) -> int:
    device = device_by_name(args.device)
    table = calibrate_channels(device)
    print(banner(f"Γ(n, p, d) on {device.name} — GB/s"))
    sizes = sorted({point.data_bytes for point in table.points})
    header = ["n x p"] + [f"{s // (1024 * 4)}Ki ints" for s in sizes]
    rows = []
    for n, p in table.configurations():
        rows.append(
            [f"{n} x {p}B"]
            + [
                round(
                    table.throughput(n, p, s)
                    * device.core_mhz
                    * 1e6
                    / 1e9,
                    2,
                )
                for s in sizes
            ]
        )
    print(format_table(header, rows))
    for label, d in (("64KB", 65536), ("1MB", 1 << 20), ("16MB", 16 << 20)):
        n_max, p_max = table.best_config(d)
        print(f"best for {label:>5}: n={n_max}, p={p_max}B")
    return 0


def cmd_tune(args) -> int:
    database = _database(args)
    device = device_by_name(args.device)
    spec = _query_spec(args.query)
    engine = GPLEngine(database, device)
    plan = engine.prepare(spec)
    segments = plan_cost_inputs(plan, database)
    search = ConfigurationSearch(device, calibrate_channels(device))
    configs, predicted = search.optimize_plan(segments)
    print(banner(f"model-chosen configuration for {args.query}"))
    rows = [
        [
            segment_id,
            f"{config.tile_bytes // 1024}KB",
            config.channel.num_channels,
            config.channel.packet_bytes,
            config.default_workgroups,
        ]
        for segment_id, config in configs.items()
    ]
    print(format_table(["segment", "tile", "n", "p", "wg"], rows))
    tuned = GPLEngine(database, device, segment_configs=configs).execute(spec)
    default = GPLEngine(database, device).execute(spec)
    print(
        f"\npredicted {device.cycles_to_ms(predicted):.3f} ms | "
        f"measured (tuned) {tuned.elapsed_ms:.3f} ms | "
        f"measured (default) {default.elapsed_ms:.3f} ms"
    )
    return 0


def cmd_explain(args) -> int:
    database = _database(args)
    device = device_by_name(args.device)
    engine = GPLEngine(
        database, device, partitioned_joins=args.partitioned_joins
    )
    print(engine.explain(_query_spec(args.query)))
    return 0


def cmd_workload(args) -> int:
    from .bench.workload import run_workload

    device = device_by_name(args.device)
    if args.suite == "ssb":
        from .ssb import SSB_QUERIES, generate_ssb

        database = generate_ssb(scale=args.scale, seed=args.seed)
        specs = SSB_QUERIES
    else:
        from .tpch import QUERIES

        database = generate_database(scale=args.scale, seed=args.seed)
        specs = QUERIES
    engines = [cls(database, device) for _, cls in sorted(ENGINES.items())]
    # KBE first: the conventional speedup baseline.
    engines.sort(key=lambda engine: engine.name != "KBE")
    report = run_workload(engines, specs)
    print(report.to_text())
    return 0


def cmd_trace(args) -> int:
    from .gpu.trace import render_gantt, stage_utilization

    database = _database(args)
    device = device_by_name(args.device)
    engine = GPLEngine(database, device)
    result, traces = engine.execute_with_trace(_query_spec(args.query))
    print(banner(f"{args.query} pipelined execution on {device.name}"))
    print(f"total {result.elapsed_ms:.3f} ms\n")
    for pipeline_id, events in traces.items():
        if not events:
            continue
        elapsed = max(event.end for event in events)
        print(
            f"[{pipeline_id}] {len(events)} units, "
            f"{device.cycles_to_ms(elapsed):.3f} ms"
        )
        print(render_gantt(events, elapsed, width=args.width))
        for label, fraction in stage_utilization(events, elapsed).items():
            print(f"  {label:16s} in flight {fraction * 100:5.1f}%")
        print()
    return 0


def cmd_obs(args) -> int:
    from .obs import load_trace, summarize_trace

    try:
        payload = load_trace(args.trace_file)
    except (OSError, ValueError) as exc:
        raise ExecutionError(str(exc)) from exc
    print(banner(f"trace summary: {args.trace_file}"))
    print(summarize_trace(payload, top=args.top, category=args.category))
    return 0


def cmd_dbgen(args) -> int:
    database = _database(args)
    rows = [
        [
            name,
            database.num_rows(name),
            round(database.table(name).nbytes / 1e6, 2),
        ]
        for name in database.names
    ]
    print(banner(f"TPC-H at scale factor {args.scale}"))
    print(format_table(["table", "rows", "MB"], rows))
    print(f"\ntotal {database.total_bytes() / 1e6:.2f} MB")
    if args.output:
        from .tpch.tbl import export_database

        written = export_database(database, args.output)
        print(f"\nexported {len(written)} .tbl files to {args.output}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": cmd_run,
        "serve": cmd_serve,
        "compare": cmd_compare,
        "calibrate": cmd_calibrate,
        "tune": cmd_tune,
        "explain": cmd_explain,
        "workload": cmd_workload,
        "trace": cmd_trace,
        "obs": cmd_obs,
        "dbgen": cmd_dbgen,
    }
    try:
        return handlers[args.command](args)
    except DeadlineExceededError as exc:
        print(
            f"error: {type(exc).__name__}: {exc}".splitlines()[0],
            file=sys.stderr,
        )
        return 3
    except ReproError as exc:
        # One line, first line only: deadlock snapshots span many lines.
        message = str(exc).splitlines()[0] if str(exc) else "unknown error"
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
