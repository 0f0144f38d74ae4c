#!/usr/bin/env python
"""Perf-trajectory benchmark harness.

Runs a fixed suite — Q5/Q9 x {GPL, KBE} x SF {0.1, 0.5} plus a serve
drain, a sharded serve drain (the same trace on a 1-device vs a
4-device pool), and a hot-vs-cold cached drain (the same trace twice
through one caching service, gated on byte-identical checksums and a
>= 2x hot speedup) — and writes
``BENCH_<label>.json`` next to the repository root so
every performance PR carries machine-readable before/after evidence from
the same machine:

    python scripts/bench.py --label baseline      # full suite
    python scripts/bench.py --scale 0.1 --label ci  # CI smoke subset

Each engine measurement runs against a *fresh* :class:`~repro.relational
.database.Database` wrapper (shared column arrays, cold statistics
cache), so the recorded wall-clock covers the full cold path the first
query of a session pays: optimize + configuration search + execution.
The serve drain reuses one service so plan/search cache behaviour is
visible in the recorded cache counters.

The JSON layout is stable: ``meta`` (label, git revision, python/numpy
versions), ``entries`` (one per query x engine x scale with wall-clock
milliseconds, result rows, a result checksum, and simulator cycles),
``serve`` (drain wall-clock, throughput, and cache/search stats),
``shard`` (per-pool-size simulated makespan, the 1->4 device
``sim_speedup``, and per-query checksums that must match across pool
sizes) and ``cache`` (cold/hot drain wall-clock, the hot speedup,
per-ticket checksums, and the dedupe exactly-once witness).
Compare two files with::

    python scripts/bench.py --diff BENCH_baseline.json BENCH_after.json

``--diff`` reports speedups and flags checksum drift; ``--check`` gates
on the machine-independent invariants only (checksums, row counts,
simulated cycles — never wall-clock), which is what CI enforces against
the committed ``BENCH_baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import subprocess
import sys
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

DEFAULT_SCALES = (0.1, 0.5)
QUERIES = ("Q5", "Q9")
ENGINES = ("GPL", "KBE")
SERVE_QUERIES = ("Q5", "Q9", "Q14")
SERVE_REPEAT = 3
SERVE_SCALE = 0.1
#: Pool sizes for the sharded serve drain (single device vs a fleet).
SHARD_DEVICES = (1, 4)


def _git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"


def _fresh_database(tables):
    """A new Database (cold stats cache) over already-generated tables."""
    from repro.relational import Database

    database = Database()
    for name, table in tables.items():
        database.add(name, table)
    return database


def _result_checksum(result) -> str:
    """Order-independent digest of the result rows (repr-rounded)."""
    import hashlib

    rows = sorted(
        tuple(round(float(value), 6) for value in row)
        for row in result.rows()
    )
    return hashlib.sha1(repr(rows).encode()).hexdigest()[:16]


def _make_engine(kind: str, database, device):
    from repro.core import GPLEngine
    from repro.kbe import KBEEngine

    if kind == "GPL":
        return GPLEngine(database, device)
    return KBEEngine(database, device)


def run_suite(scales, repeats: int) -> dict:
    from repro.gpu import AMD_A10
    from repro.model.search import clear_search_cache, search_cache_stats
    from repro.tpch import generate_database, query_by_name

    device = AMD_A10
    entries = []
    for scale in scales:
        generated = generate_database(scale=scale)
        tables = {name: generated.table(name) for name in generated.names}
        for query in QUERIES:
            for engine_kind in ENGINES:
                best_ms = None
                rows = checksum = cycles = None
                for _ in range(max(1, repeats)):
                    database = _fresh_database(tables)
                    engine = _make_engine(engine_kind, database, device)
                    spec = query_by_name(query)
                    start = time.perf_counter()
                    result = engine.execute(spec)
                    elapsed_ms = (time.perf_counter() - start) * 1000.0
                    if best_ms is None or elapsed_ms < best_ms:
                        best_ms = elapsed_ms
                    rows = result.num_rows
                    checksum = _result_checksum(result)
                    cycles = result.counters.elapsed_cycles
                entries.append(
                    {
                        "query": query,
                        "engine": engine_kind,
                        "scale": scale,
                        "wall_ms": round(best_ms, 3),
                        "rows": rows,
                        "checksum": checksum,
                        "sim_cycles": round(cycles, 1),
                    }
                )
                print(
                    f"  {query:>4} {engine_kind:>4} sf={scale:<4} "
                    f"{best_ms:9.1f} ms  {rows} rows"
                )

    # Serve drain: one service, repeated queries, warm caches visible.
    from repro.serve import QueryService

    clear_search_cache()
    serve_scale = min(scales) if SERVE_SCALE not in scales else SERVE_SCALE
    database = generate_database(scale=serve_scale)
    service = QueryService(database, device)
    specs = [
        query_by_name(name)
        for name in SERVE_QUERIES
        for _ in range(SERVE_REPEAT)
    ]
    start = time.perf_counter()
    report = service.run(specs)
    serve_ms = (time.perf_counter() - start) * 1000.0
    serve = {
        "scale": serve_scale,
        "queries": len(specs),
        "wall_ms": round(serve_ms, 3),
        "completed": report.completed,
        "failed": report.failed,
        "throughput_qps": round(report.throughput_qps, 3),
        "p50_ms": round(report.p50_latency_ms, 3),
        "p95_ms": round(report.p95_latency_ms, 3),
        "plan_cache": dict(report.plan_cache),
        "search_cache": dict(search_cache_stats()),
    }
    print(
        f" serve sf={serve_scale}: {serve_ms:.1f} ms, "
        f"{report.throughput_qps:.2f} q/s"
    )
    shard = run_shard_scenario(
        {name: database.table(name) for name in database.names},
        serve_scale,
    )
    cache = run_cache_scenario(
        {name: database.table(name) for name in database.names},
        serve_scale,
    )
    return {
        "entries": entries,
        "serve": serve,
        "shard": shard,
        "cache": cache,
    }


def run_shard_scenario(tables, scale) -> dict:
    """Sharded serve drain: the same trace on 1 vs 4 simulated devices.

    The scaling witness is *simulated* makespan (machine-independent):
    scatter-gather overlaps shard work across pool devices, so the
    4-device drain should finish the trace in well under the 1-device
    simulated time.  Per-query result checksums must be identical across
    pool sizes — ``--check`` gates on them exactly like the engine
    checksums.
    """
    from repro.gpu import AMD_A10
    from repro.serve import QueryService
    from repro.shard import DevicePool
    from repro.tpch import query_by_name

    specs = [
        query_by_name(name)
        for name in SERVE_QUERIES
        for _ in range(SERVE_REPEAT)
    ]
    section = {"scale": scale, "queries": len(specs), "configs": {}}
    checksums = {}
    for devices in SHARD_DEVICES:
        database = _fresh_database(tables)
        pool = None if devices == 1 else DevicePool(devices)
        service = QueryService(database, AMD_A10, pool=pool)
        sums = {
            name: _result_checksum(service.submit(query_by_name(name)))
            for name in SERVE_QUERIES
        }
        start = time.perf_counter()
        report = service.run(specs)
        wall_ms = (time.perf_counter() - start) * 1000.0
        checksums[devices] = sums
        section["configs"][str(devices)] = {
            "devices": devices,
            "wall_ms": round(wall_ms, 3),
            "makespan_ms": round(report.makespan_ms, 6),
            "throughput_qps": round(report.throughput_qps, 3),
            "completed": report.completed,
            "failed": report.failed,
            "checksums": sums,
        }
        print(
            f" shard x{devices} sf={scale}: simulated makespan "
            f"{report.makespan_ms:.3f} ms, {report.throughput_qps:.2f} q/s"
        )
    first, last = SHARD_DEVICES[0], SHARD_DEVICES[-1]
    section["checksums_match"] = checksums[first] == checksums[last]
    base = section["configs"][str(first)]["makespan_ms"]
    fleet = section["configs"][str(last)]["makespan_ms"]
    section["sim_speedup"] = round(base / fleet, 3) if fleet else 0.0
    print(
        f" shard scaling {first}->{last} devices: "
        f"{section['sim_speedup']:.2f}x simulated throughput, checksums "
        f"{'match' if section['checksums_match'] else 'DIVERGE'}"
    )
    return section


def run_cache_scenario(tables, scale) -> dict:
    """Hot-vs-cold serve drain through the result/segment caches.

    One service with the caches and dedupe on drains the same trace
    twice.  The cold drain executes (deduped) work and populates the
    caches; the hot drain must answer every query from the result cache
    — so it skips simulated execution entirely and its wall-clock is
    bounded by cache lookups.  ``--check`` gates on the
    machine-independent invariants (byte-identical per-ticket checksums
    across drains and against the baseline, a dedupe round that
    executed exactly once) plus the one wall-clock property robust
    enough to gate: the hot drain beating the cold one by >= 2x.
    """
    from repro.gpu import AMD_A10
    from repro.serve import QueryService
    from repro.tpch import query_by_name

    specs = [
        query_by_name(name)
        for name in SERVE_QUERIES
        for _ in range(SERVE_REPEAT)
    ]
    database = _fresh_database(tables)
    service = QueryService(
        database,
        AMD_A10,
        result_cache_bytes=64 * 1024 * 1024,
        segment_cache_bytes=256 * 1024 * 1024,
        batch_dedupe=True,
    )
    drains = []
    checksums = []
    for label in ("cold", "hot"):
        base_ticket = service._next_ticket
        start = time.perf_counter()
        report = service.run(specs)
        wall_ms = (time.perf_counter() - start) * 1000.0
        sums = {
            f"{position}:{spec.name}": _result_checksum(
                service.results[base_ticket + position]
            )
            for position, spec in enumerate(specs)
        }
        checksums.append(sums)
        drains.append(
            {
                "wall_ms": round(wall_ms, 3),
                "completed": report.completed,
                "cached": report.cached,
                "deduped": report.deduped,
                "shared_scan_rounds": report.shared_scan_rounds,
            }
        )
        print(
            f" cache {label} sf={scale}: {wall_ms:.1f} ms, "
            f"{report.cached} cached, {report.deduped} deduped"
        )
    cold, hot = drains
    speedup = (
        round(cold["wall_ms"] / hot["wall_ms"], 3) if hot["wall_ms"] else 0.0
    )

    # Dedupe exactly-once: N identical pending queries, one execution.
    dedupe_service = QueryService(
        database, AMD_A10, batch_dedupe=True
    )
    dedupe_n = 6
    dedupe_report = dedupe_service.run(
        [query_by_name("Q5") for _ in range(dedupe_n)]
    )
    executed = sum(
        1
        for record in dedupe_report.records
        if record.outcome == "ok" and not record.deduped
    )
    reference = _result_checksum(dedupe_service.results[0])
    rows_correct = all(
        _result_checksum(dedupe_service.results[ticket]) == reference
        for ticket in range(dedupe_n)
    )
    print(
        f" cache dedupe: {dedupe_n} identical queries -> {executed} "
        f"executed, rows {'correct' if rows_correct else 'DIVERGE'}"
    )

    section = {
        "scale": scale,
        "queries": len(specs),
        "cold": cold,
        "hot": hot,
        "speedup": speedup,
        "checksums_match": checksums[0] == checksums[1],
        "checksums": checksums[0],
        "dedupe": {
            "queries": dedupe_n,
            "executed": executed,
            "rows_correct": rows_correct,
        },
    }
    print(
        f" cache hot/cold: {speedup:.2f}x wall-clock, checksums "
        f"{'match' if section['checksums_match'] else 'DIVERGE'}"
    )
    return section


def diff(before_path: str, after_path: str) -> int:
    before = json.loads(pathlib.Path(before_path).read_text())
    after = json.loads(pathlib.Path(after_path).read_text())
    by_key = {
        (e["query"], e["engine"], e["scale"]): e
        for e in before.get("entries", [])
    }
    print(f"{'entry':<24}{'before ms':>12}{'after ms':>12}{'speedup':>9}")
    mismatched = 0
    for entry in after.get("entries", []):
        key = (entry["query"], entry["engine"], entry["scale"])
        base = by_key.get(key)
        if base is None:
            continue
        label = f"{key[0]} {key[1]} sf={key[2]}"
        speed = base["wall_ms"] / entry["wall_ms"] if entry["wall_ms"] else 0
        marker = ""
        if base.get("checksum") != entry.get("checksum"):
            marker = "  ! result checksum changed"
            mismatched += 1
        print(
            f"{label:<24}{base['wall_ms']:>12.1f}{entry['wall_ms']:>12.1f}"
            f"{speed:>8.2f}x{marker}"
        )
    if before.get("serve") and after.get("serve"):
        b, a = before["serve"], after["serve"]
        speed = b["wall_ms"] / a["wall_ms"] if a["wall_ms"] else 0
        print(
            f"{'serve drain':<24}{b['wall_ms']:>12.1f}{a['wall_ms']:>12.1f}"
            f"{speed:>8.2f}x"
        )
    if after.get("shard"):
        shard = after["shard"]
        print(
            f"{'shard 1->4 devices':<24}"
            f"{'':>12}{'':>12}{shard.get('sim_speedup', 0):>8.2f}x"
            "  (simulated makespan)"
        )
    return 1 if mismatched else 0


def check(baseline_path: str, candidate_path: str) -> int:
    """Gate on correctness invariants only: checksums and sim cycles.

    Wall-clock milliseconds vary with the machine and are deliberately
    ignored — this is the CI-safe comparison.  Overlapping
    (query, engine, scale) entries must agree on the result checksum,
    the row count, and the simulated cycle count; any drift exits 1.
    """
    baseline = json.loads(pathlib.Path(baseline_path).read_text())
    candidate = json.loads(pathlib.Path(candidate_path).read_text())
    by_key = {
        (e["query"], e["engine"], e["scale"]): e
        for e in baseline.get("entries", [])
    }
    compared = 0
    failures = []
    for entry in candidate.get("entries", []):
        key = (entry["query"], entry["engine"], entry["scale"])
        base = by_key.get(key)
        if base is None:
            continue
        compared += 1
        label = f"{key[0]} {key[1]} sf={key[2]}"
        for field in ("checksum", "rows", "sim_cycles"):
            if base.get(field) != entry.get(field):
                failures.append(
                    f"{label}: {field} {base.get(field)!r} -> "
                    f"{entry.get(field)!r}"
                )
    shard = candidate.get("shard")
    if shard is not None:
        compared += 1
        if not shard.get("checksums_match"):
            failures.append(
                "shard: per-query checksums diverge between pool sizes "
                f"{list(shard.get('configs', {}))}"
            )
        base_shard = baseline.get("shard") or {}
        for devices, config in sorted(shard.get("configs", {}).items()):
            base_config = base_shard.get("configs", {}).get(devices)
            if base_config is None:
                continue
            if base_config.get("checksums") != config.get("checksums"):
                failures.append(
                    f"shard x{devices}: checksums "
                    f"{base_config.get('checksums')!r} -> "
                    f"{config.get('checksums')!r}"
                )
    cache = candidate.get("cache")
    if cache is not None:
        compared += 1
        if not cache.get("checksums_match"):
            failures.append(
                "cache: per-ticket checksums diverge between the cold "
                "and hot drains"
            )
        if cache.get("speedup", 0.0) < 2.0:
            failures.append(
                f"cache: hot drain only {cache.get('speedup')}x faster "
                "than cold (gate: >= 2x — hot hits skip execution "
                "entirely, so this holds on any machine)"
            )
        dedupe = cache.get("dedupe", {})
        if dedupe.get("executed") != 1:
            failures.append(
                f"cache: dedupe round executed {dedupe.get('executed')} "
                f"of {dedupe.get('queries')} identical queries "
                "(expected exactly 1)"
            )
        if not dedupe.get("rows_correct"):
            failures.append(
                "cache: deduped queries returned divergent rows"
            )
        base_cache = baseline.get("cache") or {}
        if (
            base_cache.get("checksums")
            and base_cache.get("checksums") != cache.get("checksums")
        ):
            failures.append(
                f"cache: checksums {base_cache.get('checksums')!r} -> "
                f"{cache.get('checksums')!r}"
            )
    if not compared:
        print(
            f"no overlapping entries between {baseline_path} and "
            f"{candidate_path}"
        )
        return 1
    if failures:
        print(f"bench invariant drift ({len(failures)}):")
        for failure in failures:
            print("  " + failure)
        return 1
    print(
        f"bench invariants hold: {compared} entries agree on "
        "checksum/rows/sim_cycles (wall-clock not compared)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser (importable so the docs lint can verify flags)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--label",
        default="local",
        help="suffix of the BENCH_<label>.json output file",
    )
    parser.add_argument(
        "--scale",
        type=float,
        action="append",
        help="restrict the scale-factor sweep (repeatable; default 0.1 0.5)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="measurements per entry; the best wall-clock is recorded",
    )
    parser.add_argument(
        "--out-dir",
        default=str(REPO),
        help="directory for the BENCH_<label>.json file",
    )
    parser.add_argument(
        "--diff",
        nargs=2,
        metavar=("BEFORE", "AFTER"),
        help="compare two BENCH files instead of running the suite",
    )
    parser.add_argument(
        "--check",
        nargs=2,
        metavar=("BASELINE", "CANDIDATE"),
        help=(
            "gate on correctness invariants (checksums, rows, simulated "
            "cycles) between two BENCH files; wall-clock is ignored, so "
            "this comparison is machine-independent and CI-safe"
        ),
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    if args.check:
        return check(*args.check)

    import numpy

    scales = tuple(args.scale) if args.scale else DEFAULT_SCALES
    print(f"bench suite: scales {scales}, label {args.label!r}")
    started = time.perf_counter()
    payload = run_suite(scales, args.repeats)
    payload["meta"] = {
        "label": args.label,
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "total_seconds": round(time.perf_counter() - started, 2),
    }
    out = pathlib.Path(args.out_dir) / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
