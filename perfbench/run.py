#!/usr/bin/env python3
"""perfbench: eight workloads, two clocks, per-layer attribution.

    python3 perfbench/run.py                         # everything, both passes
    python3 perfbench/run.py --workload join_steady  # one workload (repeatable)
    python3 perfbench/run.py --smoke                 # a tenth of the time
    python3 perfbench/run.py --out A.json            # keep results for compare.py

With ``--trace 0`` or ``--trace 1`` (and exactly one ``--workload``) only
that pass runs and the last line of standard output is the JSON object
``BENCHMARK.json``'s contract asks for: the end-to-end metrics of an
untraced run, or the per-layer metrics of a traced one.

Each workload runs in a subprocess of its own (``perfbench/worker.py``).
An end-to-end measurement starts three: two that only set up, then the
one that measures; ``setup_s`` is the median of the three.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench.metrics import (  # noqa: E402
    END_TO_END, PER_LAYER, PLANNING_LAYERS, RUN_SECONDS,
)

DEFAULT_SEED = 1
SETUP_REPEATS = 3
#: Wall-clock cap for one worker process, far above any real run.
WORKER_TIMEOUT_S = 170


def worker(workload: str, seed: int, seconds: float, trace: int,
           setup_only: bool = False) -> Dict[str, object]:
    """Run one worker process to completion and return what it printed."""
    command = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ)
    # One client, one thread; string hashing fixed so that set and dict
    # order cannot differ between two runs of the same seed.
    env.update(
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    done = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"perfbench: worker for {workload} exited with {done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(workload: str, seed: int, seconds: float,
               setup_repeats: int) -> Dict[str, object]:
    setups = [
        worker(workload, seed, seconds, 0, setup_only=True)["setup_s"]
        for _ in range(setup_repeats - 1)
    ]
    outcome = worker(workload, seed, seconds, 0)
    setups.append(outcome["setup_s"])
    outcome["setup_s_samples"] = setups
    outcome["metrics"]["setup_s"]["value"] = statistics.median(setups)
    return outcome


def contract_line(outcome: Dict[str, object]) -> str:
    return json.dumps(
        {key: outcome[key] for key in ("correct", "attempted", "failed", "metrics")}
    )


# -- printing -----------------------------------------------------------------


def print_end_to_end(outcome: Dict[str, object]) -> None:
    sizes = ", ".join(f"{k}={v}" for k, v in outcome["sizes"].items())
    print(f"\n== {outcome['workload']}  seed {outcome['seed']}  "
          f"ops digest {outcome['ops_digest']}")
    print(f"   {sizes}")
    print(f"   {outcome['samples']} ops in {outcome['cycles']} cycles, "
          f"{outcome['busy_s']:.2f} s timed; set-ups "
          + " ".join(f"{s:.2f}" for s in outcome["setup_s_samples"]) + " s")
    for name, unit, better, bound, _ in END_TO_END:
        value = outcome["metrics"][name]["value"]
        note = f"n={outcome['samples']}" if name.startswith("latency") else ""
        print(f"   {name:<18}{value:>16.4f} {unit:<7} "
              f"({better} is better, bound {bound:.0%}) {note}")
    share = outcome["failed"] / outcome["attempted"]
    print(f"   {'failed_share':<18}{share:>16.4f} {'':<7} "
          f"({outcome['failed']} of {outcome['attempted']} queries)")
    for problem in outcome["problems"]:
        print(f"   ! {problem}")


def layer_shares(outcome: Dict[str, object]) -> Dict[str, float]:
    """Share of attributed time per group of layers, in the traced cycles."""
    layer_ms = outcome["layer_ms"]
    total = sum(layer_ms.values()) or 1.0
    return {
        "plans.physical": layer_ms.get("plans.physical", 0.0) / total,
        "gpu.simulator": layer_ms.get("gpu.simulator", 0.0) / total,
        "planning": sum(layer_ms.get(l, 0.0) for l in PLANNING_LAYERS) / total,
        "serve": sum(ms for l, ms in layer_ms.items() if l.startswith("serve."))
        / total,
    }


def print_layers(outcome: Dict[str, object]) -> None:
    metrics = outcome["metrics"]
    print(f"\n-- {outcome['workload']}: traced pass, {outcome['samples']} ops in "
          f"{outcome['cycles']} cycles ({outcome['busy_s']:.2f} s), "
          f"trace in {outcome['trace_file']}")
    shares = layer_shares(outcome)
    print("   share of attributed time: "
          + ", ".join(f"{k} {v:.1%}" for k, v in shares.items())
          + f"; unattributed "
          f"{metrics['trace.unattributed_ms']['value'] / (outcome['busy_s'] * 1e3):.1%}"
          f" of op time; tracing overhead "
          f"{metrics['trace.overhead_pct']['value']:.1f} %")
    setup = ", ".join(
        f"{layer} {ms:.0f}" for layer, ms in
        sorted(outcome["setup_layer_ms"].items(), key=lambda kv: -kv[1])[:6]
    )
    print(f"   set-up self ms: {setup}")
    for name, unit, _, _ in PER_LAYER:
        value = metrics[name]["value"]
        if value:
            print(f"   {name:<40}{value:>16.4f} {unit}")
    if outcome["failed"]:
        print(f"   ! {outcome['failed']} of {outcome['attempted']} queries failed")


# -- command line ---------------------------------------------------------------


def manifest() -> Dict[str, object]:
    """The contents of ``BENCHMARK.json``."""
    from perfbench.workloads import WORKLOADS

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": cls.why} for name, cls in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _ in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _ in PER_LAYER
        ],
    }


def record_expected(seed: int) -> None:
    """Pin the default seed's reference answers in ``expected.json``."""
    from perfbench import verify
    from perfbench.workloads import WORKLOADS

    pins = {
        name: verify.pins(cls(seed).references) for name, cls in WORKLOADS.items()
    }
    lines = [f'{{"seed": {seed}, "workloads": {{']
    for name, shapes in pins.items():
        lines.append(f' "{name}": {{')
        lines.extend(
            f'  {json.dumps(shape)}: {json.dumps(pin)},' for shape, pin in shapes.items()
        )
        lines[-1] = lines[-1].rstrip(",")
        lines.append(" },")
    lines[-1] = " }"
    lines.append("}}")
    verify.EXPECTED_PATH.write_text("\n".join(lines) + "\n")
    print(f"wrote {verify.EXPECTED_PATH}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 2)[2],
    )
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all eight)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="decides data, op order, Zipf draws, fault pairing")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long the timed loop of one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run one pass only and end with the contract's JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="a tenth of --seconds and a single set-up")
    parser.add_argument("--out", help="write all results to this JSON file")
    parser.add_argument("--manifest", action="store_true",
                        help="print BENCHMARK.json and exit")
    parser.add_argument("--record-expected", action="store_true",
                        help="rewrite expected.json for the default seed and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: nothing to measure, {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    if args.record_expected:
        record_expected(DEFAULT_SEED)
        return 0

    from perfbench.workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from "
                     + ", ".join(WORKLOADS))
    if args.trace is not None and len(names) != 1:
        parser.error("--trace needs exactly one --workload")
    seconds = args.seconds / 10 if args.smoke else args.seconds
    setup_repeats = 1 if args.smoke else SETUP_REPEATS

    results: Dict[str, Dict[str, object]] = {}
    last = None
    for name in names:
        results[name] = {}
        if args.trace in (None, 0):
            last = results[name]["end_to_end"] = end_to_end(
                name, args.seed, seconds, setup_repeats
            )
            print_end_to_end(last)
        if args.trace in (None, 1):
            last = results[name]["per_layer"] = worker(name, args.seed, seconds, 1)
            print_layers(last)
    if args.out:
        pathlib.Path(args.out).write_text(
            json.dumps(
                {"seed": args.seed, "seconds": seconds, "workloads": results},
                indent=1,
            ) + "\n"
        )
        print(f"\nwrote {args.out}")
    if args.trace is not None:
        # The contract's caller reads `correct` and `failed` from the line.
        print(contract_line(last))
        return 0
    failed = any(
        not outcome["correct"]
        for passes in results.values() for outcome in passes.values()
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
