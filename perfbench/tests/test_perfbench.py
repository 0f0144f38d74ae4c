"""Tests of the benchmark itself.  Run by explicit path:

    python -m pytest perfbench/tests/test_perfbench.py

(the repository's tier-1 ``testpaths`` does not include this directory).
The two smoke runs take most of the time, about 40 s each.
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import adapter, compare, run, worker, workloads  # noqa: E402
from perfbench.metrics import (  # noqa: E402
    END_TO_END, EXACT_PER_LAYER, PER_LAYER,
)
from perfbench.tracing import Recorder, TracePoint, self_times  # noqa: E402
from perfbench.verify import digest  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- the manifest -------------------------------------------------------------


def test_benchmark_json_is_the_manifest_and_within_the_contract():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest == run.manifest()
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in manifest["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("higher", "lower")
    assert all(0 < entry["bound"] <= 0.25 for entry in manifest["end_to_end"])
    setup = [e for e in manifest["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(e["bound"] for e in manifest["end_to_end"])


# -- two smoke runs -------------------------------------------------------------


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    runs = []
    for index in range(2):
        target = out / f"run-{index}.json"
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke",
             "--out", str(target)],
            cwd=out, stdout=subprocess.PIPE, text=True, timeout=600,
        )
        assert done.returncode == 0, done.stdout[-2000:]
        runs.append(json.loads(target.read_text()))
    return runs


def test_smoke_emits_every_metric_with_its_unit(smoke_runs):
    end_to_end = {name: unit for name, unit, _, _, _ in END_TO_END}
    per_layer = {name: unit for name, unit, _, _ in PER_LAYER}
    for passes in smoke_runs[0]["workloads"].values():
        for key, wanted in (("end_to_end", end_to_end), ("per_layer", per_layer)):
            metrics = passes[key]["metrics"]
            assert {n: m["unit"] for n, m in metrics.items()} == wanted
            assert all(isinstance(m["value"], (int, float)) for m in metrics.values())
            assert passes[key]["correct"] and passes[key]["failed"] == 0
            assert passes[key]["attempted"] >= 1
        assert all(
            passes["end_to_end"]["metrics"][name]["value"] > 0 for name in end_to_end
        )
    assert list(smoke_runs[0]["workloads"]) == list(workloads.WORKLOADS)


def test_two_runs_of_one_seed_agree_on_every_exact_metric(smoke_runs):
    assert compare.exact_mismatches([smoke_runs[0]], [smoke_runs[1]]) == []
    counts = compare.exact_view(smoke_runs[0])
    assert ("join_steady", "sim_cycles") in counts
    assert all(("fault_storm", name) in counts for name in EXACT_PER_LAYER)


def test_the_seed_decides_the_op_sequence(smoke_runs):
    for name in ("join_steady", "plan_cold", "cache_churn", "fault_storm"):
        same_seed = [
            run_["workloads"][name]["end_to_end"]["ops_digest"]
            for run_ in smoke_runs
        ]
        assert same_seed[0] == same_seed[1]
        other_seed = workloads.WORKLOADS[name](run.DEFAULT_SEED + 1).ops_digest()
        assert other_seed != same_seed[0]


def test_layers_are_isolated_where_the_workloads_say(smoke_runs):
    shares = {
        name: run.layer_shares(passes["per_layer"])
        for name, passes in smoke_runs[0]["workloads"].items()
    }
    assert shares["join_steady"]["plans.physical"] >= 0.60
    assert shares["join_steady"]["planning"] <= 0.02
    assert shares["plan_cold"]["planning"] >= 0.50
    assert shares["plan_cold"]["plans.physical"] <= 0.30
    assert shares["cache_hot"]["plans.physical"] == 0.0
    assert shares["cache_hot"]["serve"] >= 0.95
    assert shares["sim_sweep"]["gpu.simulator"] >= 0.45
    for passes in smoke_runs[0]["workloads"].values():
        traced = passes["per_layer"]
        unattributed = traced["metrics"]["trace.unattributed_ms"]["value"]
        assert unattributed <= 0.05 * traced["busy_s"] * 1e3


# -- verification ---------------------------------------------------------------


class _CorruptedAnswers(workloads.JoinSteady):
    scale = 0.005
    rounds = 1

    def answers(self, op, raw):
        for column in raw.batch:
            raw.batch[column] = raw.batch[column] + 1.0
        return super().answers(op, raw)


def test_a_corrupted_batch_counts_as_a_failed_query():
    workload = _CorruptedAnswers(seed=3)
    session = worker.Session(workload)
    session.run_cycle(workload.cycle)
    assert session.verifier.attempted == len(workload.cycle) == 5
    assert session.verifier.failed == 5
    assert "differ from the reference" in session.verifier.problems[0]


def test_the_adapter_reproduces_bench_baseline():
    """GPL Q5 at SF 0.1 with dbgen's default seed: the entry both
    ``scripts/bench.py`` and ``BENCH_baseline.json`` hold."""
    baseline = json.loads((ROOT / "BENCH_baseline.json").read_text())
    entry = next(
        e for e in baseline["entries"]
        if (e["query"], e["engine"], e["scale"]) == ("Q5", "GPL", 0.1)
    )
    assert (entry["checksum"], entry["sim_cycles"]) == ("d9fb9169b2205e04", 1442379.0)
    database = adapter.tpch_database(0.1)
    result = adapter.execute(
        adapter.make_engine("gpl", database), adapter.tpch_query("Q5")
    )
    assert digest(adapter.rows(result)) == entry["checksum"]
    assert len(adapter.rows(result)) == entry["rows"]
    assert round(adapter.sim_cycles(result), 1) == entry["sim_cycles"]


# -- the span recorder ----------------------------------------------------------


class _Work:
    def parent(self, pool, recorder):
        futures = [
            pool.submit(recorder.handoff(lambda: self.child(0.02)))
            for _ in range(2)
        ]
        for future in futures:
            future.result(timeout=10)

    def child(self, seconds):
        time.sleep(seconds)


def _install(recorder):
    recorder.install([
        TracePoint("layer.a", "parent", _Work, "parent"),
        TracePoint("layer.b", "child", _Work, "child"),
    ])


def test_spans_on_pool_threads_are_children_of_the_submitting_span():
    recorder = Recorder()
    _install(recorder)
    try:
        with ThreadPoolExecutor(2) as pool:
            _Work().parent(pool, recorder)
    finally:
        recorder.uninstall()
    assert "parent" in _Work.__dict__ and not hasattr(_Work.parent, "__wrapped__")
    parent = next(s for s in recorder.spans if s[5] == "parent")
    children = [s for s in recorder.spans if s[5] == "child"]
    assert len(children) == 2 and all(c[1] == parent[0] for c in children)
    # The two children overlap in time: subtracting their durations one by
    # one (what a single shared stack amounts to) would go negative.
    own = self_times(recorder.spans)
    assert sum(c[7] - c[6] for c in children) > parent[7] - parent[6]
    assert all(value >= 0 for value in own.values())
    union = max(c[7] for c in children) - min(c[6] for c in children)
    assert own[parent[0]] == (parent[7] - parent[6]) - union


def test_recorder_keeps_every_span_under_thread_switching():
    recorder = Recorder()
    _install(recorder)
    calls, threads = 500, 4
    work = _Work()
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def hammer():
            for _ in range(calls):
                work.child(0)
        runners = [
            threading.Thread(target=recorder.handoff(hammer)) for _ in range(threads)
        ]
        for runner in runners:
            runner.start()
        for runner in runners:
            runner.join(timeout=30)
        assert not any(runner.is_alive() for runner in runners)
    finally:
        sys.setswitchinterval(old_interval)
        recorder.uninstall()
    assert len(recorder.spans) == calls * threads
    assert len({span[0] for span in recorder.spans}) == calls * threads
    assert {span[1] for span in recorder.spans} == {-1}


# -- compare.py -----------------------------------------------------------------


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert compare.verdict(steady, [v * 1.2 for v in steady], "lower", 0.1)[0] \
        == "regressed"
    assert compare.verdict(steady, [v * 0.8 for v in steady], "higher", 0.1)[0] \
        == "regressed"
    assert compare.verdict(steady, [v * 1.02 for v in steady], "lower", 0.1)[0] \
        == "unchanged"
    assert compare.verdict(steady, [v * 0.7 for v in steady], "lower", 0.1)[0] \
        == "improved"
    noisy = [100.0, 130.0, 80.0, 101.0]
    assert compare.verdict(noisy, [v * 1.02 for v in noisy], "lower", 0.1)[0] \
        == "unresolved"
    assert compare.verdict([100.0], [101.0], "lower", 0.1)[0] == "unresolved"


def test_compare_flags_an_exact_metric_that_moved(smoke_runs):
    moved = json.loads(json.dumps(smoke_runs[1]))
    moved["workloads"]["sim_sweep"]["end_to_end"]["metrics"]["sim_cycles"]["value"] += 1
    problems = compare.exact_mismatches([smoke_runs[0]], [moved])
    assert len(problems) == 1 and problems[0].startswith("sim_sweep sim_cycles")
    assert compare.compare([smoke_runs[0]], [moved]) == 1


# -- a checkout without the program ---------------------------------------------


def test_exits_nonzero_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "join_steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
