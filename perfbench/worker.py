"""One workload, in this process: set-up, timed or traced ops, metrics.

``run.py`` starts this module as a subprocess per workload, so set-up
time, peak memory and the program's module-level memos never leak from
one workload into the next.  The process is a closed loop with one client
on one thread: the next op is sent when the previous one has returned and
its answers have been checked (outside the timed region).

Prints one JSON object as the last line of standard output.
"""

import time

_PROCESS_START = time.perf_counter()  # before the heavy imports: set-up pays them

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

from . import adapter  # noqa: E402
from .metrics import END_TO_END, PER_LAYER, Rollup, per_layer_values  # noqa: E402
from .tracing import Recorder, self_times, uncovered_ns  # noqa: E402
from .verify import Verifier, load_pins  # noqa: E402
from .workloads import WORKLOADS, Answer, Op, Workload  # noqa: E402

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"


class Session:
    """Runs ops of one workload, checks every answer, keeps the counts."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.verifier = Verifier(workload.references)
        self.queries = 0
        self.sim_cycles = 0.0
        #: Cycle totals of the answers GPL executed on the reference
        #: device, and of the KBE references for the same shapes.
        self.counts: Counter = Counter()

    def run(self, op: Op) -> Tuple[int, int]:
        """One op; returns its ``(start_ns, end_ns)`` on the host clock."""
        clock = time.perf_counter_ns
        start = clock()
        try:
            raw = self.workload.run_op(op)
        except adapter.QueryError as error:
            raw = error
        end = clock()
        if isinstance(raw, adapter.QueryError):
            answers = [Answer(None, False)] * len(op.shapes)
        else:
            answers = self.workload.answers(op, raw)
        for shape, answer in zip(op.shapes, answers):
            self.queries += 1
            if answer.result is None:
                self.verifier.check(shape, None)
                continue
            self.verifier.check(shape, adapter.rows(answer.result))
            if answer.executed:
                cycles = adapter.sim_cycles(answer.result)
                self.sim_cycles += cycles
                if adapter.ran_on_reference_gpl(answer.result):
                    self.counts["gpl_cycles"] += cycles
                    self.counts["kbe_cycles"] += self.workload.kbe_cycles[shape]
        return start, end

    def run_cycle(self, ops: List[Op]) -> List[Tuple[int, int]]:
        self.workload.begin_cycle()
        return [self.run(op) for op in ops]


def set_up(name: str, seed: int, trace: bool) -> Tuple[Workload, Session]:
    """Build the workload and make its untimed warm-up pass."""
    workload = WORKLOADS[name](seed, trace=trace)
    session = Session(workload)
    pins = load_pins(name, seed)
    if pins is not None:
        session.verifier.check_pins(pins)
    session.run_cycle(workload.warmup)
    gc.collect()
    gc.freeze()
    return workload, session


def nearest_rank(ordered: List[float], fraction: float) -> float:
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def measure_end_to_end(name: str, seed: int, seconds: float,
                       setup_only: bool) -> Dict[str, object]:
    workload, session = set_up(name, seed, trace=False)
    setup_s = time.perf_counter() - _PROCESS_START
    if setup_only:
        return outcome(workload, session, 0, {}, setup_s=setup_s)

    # Every cycle holds the same ops, so each yields one estimate of each
    # timing; the medians over cycles shrug off a burst of host noise.
    per_cycle: List[List[float]] = []
    sim_cycles = None
    deadline = time.perf_counter() + seconds
    while True:
        per_cycle.append(
            [(end - start) / 1e6 for start, end in session.run_cycle(workload.cycle)]
        )
        if sim_cycles is None:
            # Warm-up plus the first timed cycle: a fixed set of ops, so
            # the paper's clock does not depend on how fast the host is.
            sim_cycles = session.sim_cycles
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.audit(session.verifier)

    queries_per_cycle = sum(len(op.shapes) for op in workload.cycle)
    values = {
        "setup_s": setup_s,
        "latency_p50_ms": statistics.median(
            statistics.median(cycle) for cycle in per_cycle
        ),
        "latency_p90_ms": statistics.median(
            nearest_rank(sorted(cycle), 0.9) for cycle in per_cycle
        ),
        "throughput_qps": statistics.median(
            queries_per_cycle / (sum(cycle) / 1e3) for cycle in per_cycle
        ),
        "sim_cycles": sim_cycles,
        "peak_rss_mb": peak_rss_mb,
    }
    return outcome(
        workload, session, 0,
        {name: {"value": values[name], "unit": unit}
         for name, unit, _, _, _ in END_TO_END},
        setup_s=setup_s,
        samples=sum(len(cycle) for cycle in per_cycle), cycles=len(per_cycle),
        busy_s=sum(sum(cycle) for cycle in per_cycle) / 1e3,
    )


def measure_layers(name: str, seed: int, seconds: float) -> Dict[str, object]:
    """The traced pass: a fixed number of cycles, alternately untraced and
    traced, so counts repeat exactly and the two timings see the same
    state drift.  Set-up and warm-up are traced too (scope ``setup``)."""
    recorder = Recorder()
    points = adapter.trace_points(recorder)
    recorder.install(points)
    workload, session = set_up(name, seed, trace=True)
    trace_cycles = max(1, round(seconds / 4 / workload.nominal_cycle_s))

    untraced_ns = 0
    windows: Dict[int, Tuple[int, int]] = {}
    stats: Dict[str, float] = Counter()
    counted: Counter = Counter()
    queries = 0
    for _ in range(trace_cycles):
        recorder.uninstall()
        untraced_ns += sum(
            end - start for start, end in session.run_cycle(workload.cycle)
        )
        recorder.install(points)
        recorder.scope = "ops"
        before, _ = adapter.stats_snapshot(workload.service)
        counts_before = workload.counts + session.counts
        queries_before = session.queries
        workload.begin_cycle()
        for op in workload.cycle:
            recorder.op = len(windows)
            windows[recorder.op] = session.run(op)
        after, gauges = adapter.stats_snapshot(workload.service)
        for key, value in after.items():
            stats[key] += value - before[key]
        counted.update(workload.counts + session.counts)
        counted.subtract(counts_before)
        queries += session.queries - queries_before
    traced_ns = sum(end - start for start, end in windows.values())

    recorder.scope = "extra"
    extra = workload.extra_metrics()
    recorder.uninstall()
    workload.audit(session.verifier)

    spans = recorder.spans
    own = self_times(spans)
    ops = Rollup(spans, own, ("ops",))
    setup = Rollup(spans, own, ("setup",))
    whole = Rollup(spans, own, ("setup", "ops"))
    trace = dict(extra)
    trace.update(
        overhead_pct=100.0 * (traced_ns / untraced_ns - 1.0),
        unattributed_ms=uncovered_ns(
            (span for span in spans if span[3] == "ops"), windows
        ) / 1e6,
        spans=sum(ops.calls.values()),
    )
    values = per_layer_values(
        ops, whole, {**stats, **gauges}, counted, queries, trace
    )

    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{name}.json"
    recorder.write(
        trace_path,
        {"workload": name, "seed": seed, "trace_cycles": trace_cycles,
         "ops_digest": workload.ops_digest()},
    )
    units = {name: unit for name, unit, _, _ in PER_LAYER}
    return outcome(
        workload, session, 1,
        {name: {"value": value, "unit": units[name]}
         for name, value in values.items()},
        samples=len(windows), cycles=trace_cycles, busy_s=traced_ns / 1e9,
        trace_file=str(trace_path),
        layer_ms={layer: ops.ms(layer) for layer in ops.layers()},
        setup_layer_ms={layer: setup.ms(layer) for layer in setup.layers()},
    )


def outcome(workload: Workload, session: Session, trace: int,
            metrics: Dict[str, Dict[str, object]], **details) -> Dict[str, object]:
    """What the process prints: identity, verdict, metrics, details."""
    verifier = session.verifier
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "trace": trace,
        "ops_digest": workload.ops_digest(),
        "sizes": workload.sizes,
        "correct": verifier.failed == 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "problems": verifier.problems,
        "metrics": metrics,
        **details,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.trace:
        printed = measure_layers(args.workload, args.seed, args.seconds)
    else:
        printed = measure_end_to_end(
            args.workload, args.seed, args.seconds, args.setup_only
        )
    print(json.dumps(printed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
