#!/usr/bin/env python
"""Chaos soak harness for the deadline-aware serving stack.

Drives hundreds of queries through one long-lived
:class:`~repro.serve.QueryService` under a seeded storm of injected
faults, tight per-query deadlines, and a bounded admission queue, and
asserts the serving resilience invariants the whole stack is built on:

* **no hangs** — every drain completes (the pipeline watchdog converts
  a wedged simulator into a typed error, never a stuck process);
* **no checksum drift** — every query that completes, no matter how
  many retries, checkpoint resumes, fallbacks, or breaker degradations
  it went through, returns rows identical to a clean single-engine run;
* **consistent counters** — outcome counts partition the trace, fired
  faults never exceed scheduled ones, checkpoint resumes never exceed
  recordings, deadline-tagged queries never report ``ok``;
* **determinism** — two full soaks from the same seed produce
  byte-identical drain-by-drain counter witnesses.

Record a baseline (written as ``SOAK_baseline.json`` at the repo root)::

    python scripts/soak.py --queries 500 --seed 20160626

Re-verify a recorded baseline (parameters are read from the file, so CI
needs no flag soup; exits non-zero on any drift)::

    python scripts/soak.py --check SOAK_baseline.json

Device storm: ``--kill-devices N`` serves through an N-device pool and
replaces part of the fault stream with seeded ``device_down`` kills
fired in back-to-back pairs against one victim device, so the failure
domain ladder (relocation, then quarantine, then probation) is
exercised end to end; on top of the standard invariants the storm
asserts at least one shard relocation and at least one quarantine
trip, and that every relocated or degraded-pool result still matches
the clean single-engine checksum.  The storm is pinned the same way
(``SOAK_storm_baseline.json``)::

    python scripts/soak.py --kill-devices 4 --queries 120 \
        --out SOAK_storm_baseline.json
    python scripts/soak.py --check SOAK_storm_baseline.json
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import pathlib
import platform
import random
import subprocess
import sys
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

#: The TPC-H trace the soak rotates through (the paper's five queries).
QUERY_NAMES = ("Q5", "Q7", "Q8", "Q9", "Q14")

#: Soak parameters recorded into (and re-read from) the baseline file.
DEFAULT_PARAMS = {
    "queries": 500,
    "seed": 20160626,  # the paper's publication date
    "scale": 0.02,
    "batch": 40,  # nominal drain size; actual sizes jitter around it
    "max_pending": 36,  # < batch, so overfull drains exercise shedding
    "queue_policy": "shed-oldest",
    "breaker_threshold": 2,
    "breaker_cooldown": 2,
    "breaker_probes": 1,
    "fault_rate": 0.35,  # share of queries carrying a seeded fault plan
    "deadline_rate": 0.05,  # share carrying an always-trips deadline
    "deadline_cycles": 500.0,  # far below any query's real cycle cost
    "max_drain_seconds": 120.0,  # crude no-hang guard per drain
    "devices": 1,  # pool size; > 1 serves sharded (the device storm)
    "kill_rate": 0.2,  # chance a query opens a device_down kill pair
    "max_relocations": 2,  # per-query shard relocation budget
    "quarantine_threshold": 2,  # consecutive failures before quarantine
}


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


def _result_checksum(result) -> str:
    """Order-independent digest of the result rows (bench.py's digest)."""
    rows = sorted(
        tuple(round(float(value), 6) for value in row)
        for row in result.rows()
    )
    return hashlib.sha1(repr(rows).encode()).hexdigest()[:16]


def reference_checksums(database, device) -> dict:
    """Clean single-query KBE checksums every soaked result must match."""
    from repro.kbe import KBEEngine
    from repro.tpch import query_by_name

    engine = KBEEngine(database, device)
    return {
        name: _result_checksum(engine.execute(query_by_name(name)))
        for name in QUERY_NAMES
    }


class SoakViolation(AssertionError):
    """An invariant the soak is supposed to prove was broken."""


def run_soak(params: dict, verbose: bool = True) -> dict:
    """One full soak; returns the aggregate + determinism witness."""
    from repro.gpu import device_by_name
    from repro.faults import FaultPlan
    from repro.model import clear_calibration_cache, clear_search_cache
    from repro.serve import QueryService
    from repro.tpch import generate_database, query_by_name

    # Module-level model caches would otherwise leak warmth from a
    # previous run into this one and break the determinism witness.
    clear_calibration_cache()
    clear_search_cache()

    device = device_by_name("amd")
    database = generate_database(scale=params["scale"], seed=1)
    references = reference_checksums(database, device)
    num_devices = params.get("devices", 1)
    pool = None
    if num_devices > 1:
        from repro.shard import DevicePool

        pool = DevicePool(num_devices)
    service = QueryService(
        database,
        device,
        pool=pool,
        breaker_threshold=params["breaker_threshold"],
        breaker_cooldown=params["breaker_cooldown"],
        breaker_probes=params["breaker_probes"],
        max_pending=params["max_pending"],
        queue_policy=params["queue_policy"],
        max_relocations=params.get("max_relocations", 2),
        quarantine_threshold=params.get("quarantine_threshold", 2),
    )

    rng = random.Random(params["seed"])
    total = params["queries"]
    batch = params["batch"]
    witness = []  # per-drain counters_dict list; hashed for determinism
    outcomes = {"ok": 0, "failed": 0, "deadline": 0, "shed": 0, "cached": 0}
    checkpoint = {"recorded": 0, "resumed": 0, "evicted": 0, "invalidated": 0}
    faults_scheduled = faults_fired = 0
    breaker_degraded = 0
    relocations = pool_quarantines = pool_probes = 0
    checksum_failures = []
    submitted = 0
    drains = 0
    # Device-storm kills fire in back-to-back pairs against one victim
    # device, so the quarantine threshold (2 consecutive failures) is
    # actually reached instead of being reset by an intervening success.
    kill_mode = pool is not None and params.get("kill_rate", 0.0) > 0
    kill_streak = 0
    kill_victim = 0
    started = time.perf_counter()

    while submitted < total:
        size = min(total - submitted, rng.randrange(batch - 8, batch + 5))
        deadline_tickets = set()
        tickets = {}
        for _ in range(size):
            spec = query_by_name(QUERY_NAMES[rng.randrange(len(QUERY_NAMES))])
            if rng.random() < params["deadline_rate"]:
                spec = dataclasses.replace(
                    spec, deadline_cycles=params["deadline_cycles"]
                )
            fault_plan = None
            if kill_mode and kill_streak:
                kill_streak -= 1
                fault_plan = FaultPlan.parse(f"device_down@dev{kill_victim}")
            elif kill_mode and rng.random() < params["kill_rate"]:
                kill_victim = rng.randrange(num_devices)
                kill_streak = 1
                fault_plan = FaultPlan.parse(f"device_down@dev{kill_victim}")
            elif rng.random() < params["fault_rate"]:
                fault_plan = FaultPlan.from_seed(
                    rng.randrange(1 << 30), count=rng.randrange(1, 4)
                )
            ticket = service.enqueue(spec, fault_plan=fault_plan)
            tickets[ticket] = spec.name
            if spec.deadline_cycles is not None:
                deadline_tickets.add(ticket)
        submitted += size

        drain_started = time.perf_counter()
        report = service.drain()
        drain_seconds = time.perf_counter() - drain_started
        drains += 1

        # -- invariants, checked on every drain ---------------------------
        if drain_seconds > params["max_drain_seconds"]:
            raise SoakViolation(
                f"drain {drains} took {drain_seconds:.1f}s "
                f"(> {params['max_drain_seconds']}s): possible hang"
            )
        counts = {
            key: sum(1 for r in report.records if r.outcome == key)
            for key in outcomes
        }
        if sum(counts.values()) != report.num_queries:
            raise SoakViolation(
                f"drain {drains}: outcomes {counts} do not partition "
                f"{report.num_queries} records"
            )
        if report.completed + report.failed != report.num_queries:
            raise SoakViolation(
                f"drain {drains}: completed {report.completed} + failed "
                f"{report.failed} != {report.num_queries}"
            )
        if report.faults_fired_total > report.faults_scheduled:
            raise SoakViolation(
                f"drain {drains}: {report.faults_fired_total} faults fired "
                f"but only {report.faults_scheduled} were scheduled"
            )
        for record in report.records:
            if record.index in deadline_tickets and record.outcome == "ok":
                raise SoakViolation(
                    f"drain {drains}: ticket {record.index} carried a "
                    f"{params['deadline_cycles']}-cycle deadline yet "
                    "reported ok"
                )
            if record.outcome == "ok":
                checksum = _result_checksum(service.result_for(record.index))
                if checksum != references[record.query]:
                    checksum_failures.append(
                        (record.index, record.query, checksum)
                    )

        for key, value in counts.items():
            outcomes[key] += value
        for key in checkpoint:
            checkpoint[key] += report.checkpoint.get(key, 0)
        if checkpoint["resumed"] > checkpoint["recorded"]:
            raise SoakViolation(
                f"drain {drains}: more segments resumed than ever recorded"
            )
        faults_scheduled += report.faults_scheduled
        faults_fired += report.faults_fired_total
        breaker_degraded += report.breaker_degraded
        relocations += report.relocations
        pool_quarantines += report.pool_quarantines
        pool_probes += report.pool_probes
        witness.append(report.counters_dict())
        if verbose:
            print(
                f"  drain {drains:>2}: {report.num_queries:>2} queries | "
                f"ok {counts['ok']:>2} failed {counts['failed']} "
                f"deadline {counts['deadline']} shed {counts['shed']} "
                f"cached {counts['cached']} | "
                f"faults {report.faults_fired_total}/"
                f"{report.faults_scheduled} | "
                f"resumed {report.checkpoint.get('resumed', 0)} | "
                f"{drain_seconds:.1f}s"
            )

    if checksum_failures:
        raise SoakViolation(
            f"result checksum drift on {len(checksum_failures)} queries: "
            f"{checksum_failures[:5]}"
        )
    if kill_mode:
        if relocations < 1:
            raise SoakViolation(
                "device storm produced no shard relocations: the kill "
                "schedule never exercised the failure-domain ladder"
            )
        if pool_quarantines < 1:
            raise SoakViolation(
                "device storm produced no quarantine trips: back-to-back "
                "kills never pushed a device past the threshold"
            )
    digest = hashlib.sha1(repr(witness).encode()).hexdigest()
    return {
        "drains": drains,
        "submitted": submitted,
        "outcomes": outcomes,
        "breaker_degraded": breaker_degraded,
        "breaker": dict(sorted(witness[-1]["breaker"].items())),
        "checkpoint": checkpoint,
        "faults_scheduled": faults_scheduled,
        "faults_fired": faults_fired,
        "relocations": relocations,
        "pool_quarantines": pool_quarantines,
        "pool_probes": pool_probes,
        "references": references,
        "witness_sha1": digest,
        "wall_seconds": round(time.perf_counter() - started, 2),
    }


def soak(params: dict, runs: int = 2, verbose: bool = True) -> dict:
    """Run the soak ``runs`` times and assert cross-run determinism."""
    results = []
    for attempt in range(max(1, runs)):
        if verbose:
            print(f"soak run {attempt + 1}/{runs}:")
        results.append(run_soak(params, verbose=verbose))
    first = results[0]
    for attempt, other in enumerate(results[1:], start=2):
        if other["witness_sha1"] != first["witness_sha1"]:
            raise SoakViolation(
                f"run {attempt} witness {other['witness_sha1'][:12]} != "
                f"run 1 witness {first['witness_sha1'][:12]}: "
                "same-seed soak is not deterministic"
            )
    return first


def check(baseline_path: str, verbose: bool = True) -> int:
    """Re-run the soak with a baseline's parameters; report any drift."""
    baseline = json.loads(pathlib.Path(baseline_path).read_text())
    params = dict(DEFAULT_PARAMS)
    params.update(baseline.get("params", {}))
    result = soak(params, runs=1, verbose=verbose)
    failures = []
    for key in (
        "outcomes",
        "checkpoint",
        "faults_scheduled",
        "faults_fired",
        "relocations",
        "pool_quarantines",
        "references",
        "witness_sha1",
    ):
        if result[key] != baseline.get(key):
            failures.append(
                f"{key}: baseline {baseline.get(key)!r} != now {result[key]!r}"
            )
    if failures:
        print("soak drift against " + baseline_path + ":")
        for failure in failures:
            print("  " + failure)
        return 1
    print(
        f"soak matches {baseline_path}: {result['submitted']} queries, "
        f"witness {result['witness_sha1'][:12]}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser (importable so the docs lint can verify flags)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--queries",
        type=int,
        default=DEFAULT_PARAMS["queries"],
        help="total queries to push through the service (default 500)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_PARAMS["seed"],
        help="master seed for the fault/deadline/batch schedule",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=DEFAULT_PARAMS["scale"],
        help="TPC-H scale factor for the soaked database (default 0.02)",
    )
    parser.add_argument(
        "--kill-devices",
        type=int,
        default=None,
        metavar="N",
        help=(
            "device-storm scenario: serve through an N-device pool and "
            "replace part of the fault stream with seeded device_down "
            "kill pairs, asserting >=1 shard relocation and >=1 "
            "quarantine trip on top of the standard invariants"
        ),
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=2,
        help=(
            "full same-seed repetitions; >1 asserts cross-run "
            "determinism (default 2)"
        ),
    )
    parser.add_argument(
        "--out",
        default=str(REPO / "SOAK_baseline.json"),
        help="where to write the soak baseline JSON",
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        help=(
            "re-run with BASELINE's recorded parameters and exit "
            "non-zero on any counter/checksum drift"
        ),
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-drain progress"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    verbose = not args.quiet
    if args.check:
        return check(args.check, verbose=verbose)

    params = dict(DEFAULT_PARAMS)
    params["queries"] = args.queries
    params["seed"] = args.seed
    params["scale"] = args.scale
    if args.kill_devices is not None:
        if args.kill_devices < 2:
            parser_error = "--kill-devices needs a pool of at least 2"
            print(parser_error, file=sys.stderr)
            return 2
        params["devices"] = args.kill_devices
    started = time.perf_counter()
    result = soak(params, runs=args.runs, verbose=verbose)
    payload = {
        "params": params,
        "meta": {
            "git_rev": _git_rev(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "runs": args.runs,
            "total_seconds": round(time.perf_counter() - started, 2),
        },
    }
    payload.update(
        {
            key: result[key]
            for key in (
                "drains",
                "submitted",
                "outcomes",
                "breaker_degraded",
                "breaker",
                "checkpoint",
                "faults_scheduled",
                "faults_fired",
                "relocations",
                "pool_quarantines",
                "pool_probes",
                "references",
                "witness_sha1",
            )
        }
    )
    out = pathlib.Path(args.out)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(
        f"soak ok: {result['submitted']} queries in {result['drains']} "
        f"drains, outcomes {result['outcomes']}, "
        f"witness {result['witness_sha1'][:12]} -> {out}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
