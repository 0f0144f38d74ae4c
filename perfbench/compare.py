#!/usr/bin/env python3
"""Compare two sets of perfbench results, metric by metric.

    python3 perfbench/compare.py A.json B.json
    python3 perfbench/compare.py runs/a runs/b        # directories of results
    python3 perfbench/compare.py --pairs 10 PARENT_CHECKOUT CHANGE_CHECKOUT

A side is one file written by ``run.py --out`` or a directory of them.
For every workload and end-to-end metric it prints each side's median and
quartiles, how much worse B is than A, and the bound from the benchmark:

* ``regressed``  B's median is worse than A's by more than the bound;
* ``improved``   better by more than the bound, and B wins at least nine
  pairs in ten when the sides hold as many runs each;
* ``unchanged``  within the bound, and each side's own spread (distance
  between its quartiles over its median) is within the bound too;
* ``unresolved`` within the bound, but a side's own spread exceeds it (or
  is unknown because the side holds a single run).

Exact metrics (``sim_cycles``, the failed share, every count and ratio of
counts from the traced pass) must be identical between runs of the same
seed and ``--seconds``: a host-only change keeps the paper's clock and
all counts.  Exits 1 on any regression or exact mismatch.

``--pairs N`` first runs ``perfbench/run.py`` in two checkouts N times
each, alternating which goes first, then compares.  Copy this directory
into the parent checkout beforehand so both sides run the same benchmark.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
if __package__ in (None, ""):
    sys.path.insert(0, str(HERE.parent))

from perfbench.metrics import (  # noqa: E402
    END_TO_END, EXACT_END_TO_END, EXACT_PER_LAYER,
)

Run = Dict[str, object]


def load_side(path: str) -> List[Run]:
    """The runs of one side, in file-name order."""
    target = pathlib.Path(path)
    files = sorted(target.glob("*.json")) if target.is_dir() else [target]
    if not files:
        raise SystemExit(f"compare: no result files in {path}")
    return [json.loads(file.read_text()) for file in files]


def values(runs: List[Run], workload: str, metric: str) -> List[float]:
    out = []
    for run in runs:
        outcome = run["workloads"].get(workload, {}).get("end_to_end")
        if outcome is not None:
            out.append(outcome["metrics"][metric]["value"])
    return out


def spread(samples: List[float]) -> Optional[float]:
    """Distance between the quartiles as a share of the median."""
    if len(samples) < 2:
        return None
    quartiles = statistics.quantiles(samples, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(samples)


def describe(samples: List[float]) -> str:
    def short(value: float) -> str:
        return f"{value:.4e}" if abs(value) >= 1e6 else f"{value:.4f}"

    median = statistics.median(samples)
    if len(samples) < 2:
        return f"{short(median)} [single run]"
    quartiles = statistics.quantiles(samples, n=4)
    return f"{short(median)} [{short(quartiles[0])} .. {short(quartiles[2])}]"


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> Tuple[str, float]:
    """``(verdict, how much worse B's median is, as a share of A's)``."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    worse = (median_b - median_a) / median_a
    if better == "higher":
        worse = -worse
    if worse > bound:
        return "regressed", worse
    spreads = [spread(a), spread(b)]
    steady = all(s is not None and s <= bound for s in spreads)
    if worse < -bound:
        if len(a) == len(b) and len(a) > 1:
            wins = sum(
                (y < x) if better == "lower" else (y > x) for x, y in zip(a, b)
            )
            if wins < 0.9 * len(a):
                return f"unresolved ({wins}/{len(a)} pairs won)", worse
        return ("improved" if steady else "unresolved"), worse
    return ("unchanged" if steady else "unresolved"), worse


def exact_view(run: Run) -> Dict[Tuple[str, str], object]:
    """Everything in one run that must repeat exactly for its seed."""
    view: Dict[Tuple[str, str], object] = {}
    for workload, passes in run["workloads"].items():
        end_to_end = passes.get("end_to_end")
        if end_to_end is not None:
            view[(workload, "ops_digest")] = end_to_end["ops_digest"]
            view[(workload, "failed")] = end_to_end["failed"]
            for name in EXACT_END_TO_END:
                view[(workload, name)] = end_to_end["metrics"][name]["value"]
        per_layer = passes.get("per_layer")
        if per_layer is not None:
            view[(workload, "traced failed")] = per_layer["failed"]
            for name in EXACT_PER_LAYER:
                view[(workload, name)] = per_layer["metrics"][name]["value"]
    return view


def exact_mismatches(side_a: List[Run], side_b: List[Run]) -> List[str]:
    """Differences between runs of the same seed and length, across and
    within the two sides."""
    problems = []
    seen: Dict[Tuple, Tuple[str, Dict]] = {}
    for label, runs in (("A", side_a), ("B", side_b)):
        for index, run in enumerate(runs):
            key = (run["seed"], run["seconds"])
            view = exact_view(run)
            if key not in seen:
                seen[key] = (f"{label}[{index}]", view)
                continue
            first_label, first = seen[key]
            for item in sorted(set(first) & set(view)):
                if first[item] != view[item]:
                    problems.append(
                        f"{item[0]} {item[1]}: {first_label} has "
                        f"{first[item]!r}, {label}[{index}] has {view[item]!r}"
                    )
    return problems


def compare(side_a: List[Run], side_b: List[Run]) -> int:
    workloads = [
        name for name in side_a[0]["workloads"]
        if any(name in run["workloads"] for run in side_b)
    ]
    regressions = 0
    for workload in workloads:
        print(f"\n== {workload}")
        print(f"   {'metric':<16}{'A median [q1 .. q3]':>38}"
              f"{'B median [q1 .. q3]':>38}{'B worse by':>12}{'bound':>7}  verdict")
        for name, _, better, bound, _ in END_TO_END:
            a, b = values(side_a, workload, name), values(side_b, workload, name)
            if not a or not b:
                continue
            outcome, worse = verdict(a, b, better, bound)
            regressions += outcome == "regressed"
            print(f"   {name:<16}{describe(a):>38}{describe(b):>38}"
                  f"{worse:>+12.2%}{bound:>7.0%}  {outcome}")
    mismatches = exact_mismatches(side_a, side_b)
    print(f"\nexact metrics (same seed, same --seconds): "
          f"{'identical' if not mismatches else f'{len(mismatches)} differ'}")
    for problem in mismatches[:40]:
        print(f"   ! {problem}")
    if regressions:
        print(f"{regressions} metric(s) regressed beyond their bound")
    return 1 if regressions or mismatches else 0


def run_pairs(pairs: int, checkouts: List[str], out: pathlib.Path,
              passthrough: List[str]) -> List[str]:
    """N runs per checkout, alternating which side goes first."""
    sides = []
    for label, checkout in zip("ab", checkouts):
        directory = out / label
        directory.mkdir(parents=True, exist_ok=True)
        sides.append((pathlib.Path(checkout).resolve(), directory))
    for pair in range(pairs):
        for checkout, directory in (sides if pair % 2 == 0 else sides[::-1]):
            target = directory / f"run-{pair:02d}.json"
            print(f"pair {pair}: {checkout}", flush=True)
            subprocess.run(
                [sys.executable, str(checkout / "perfbench" / "run.py"),
                 "--out", str(target)] + passthrough,
                cwd=checkout, check=True, stdout=subprocess.DEVNULL,
            )
    return [str(directory) for _, directory in sides]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 2)[2],
    )
    parser.add_argument("a", help="result file or directory (or, with "
                        "--pairs, the parent checkout)")
    parser.add_argument("b", help="result file or directory (or, with "
                        "--pairs, the changed checkout)")
    parser.add_argument("--pairs", type=int,
                        help="run this many alternating pairs first")
    parser.add_argument("--out", default=str(HERE / "out" / "pairs"),
                        help="where --pairs keeps its results")
    args, passthrough = parser.parse_known_args(argv)
    sides = [args.a, args.b]
    if args.pairs:
        sides = run_pairs(
            args.pairs, sides, pathlib.Path(args.out), passthrough
        )
    elif passthrough:
        parser.error(f"unknown arguments {passthrough}")
    return compare(load_side(sides[0]), load_side(sides[1]))


if __name__ == "__main__":
    sys.exit(main())
