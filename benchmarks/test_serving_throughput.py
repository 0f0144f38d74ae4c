"""Serving throughput: concurrent scheduling + cache warm-up.

Not a paper figure — this measures the serving layer added on top of
the reproduction.  Two claims are checked:

* **overlap**: scheduling a 10-query trace concurrently yields a
  simulated makespan well below the sum of the per-query execution
  times (the sequential baseline);
* **caches**: a warm service (plan cache + Γ table + configuration
  search memo populated) replays the same trace at least 2x faster in
  wall-clock time than a cold one, with bit-identical query results.
"""

import time

import pytest

from repro.gpu import AMD_A10
from repro.model import clear_calibration_cache, clear_search_cache
from repro.serve import QueryService
from repro.tpch import generate_database, q5, q7, q8, q9, q14

SCALE = 0.002
REPEAT = 2  # 5 distinct shapes x 2 = 10 queries per replay


@pytest.fixture(scope="module")
def replay():
    trace = [q5(), q7(), q8(), q9(), q14()] * REPEAT
    clear_calibration_cache()
    clear_search_cache()
    database = generate_database(scale=SCALE)
    service = QueryService(
        database, AMD_A10, policy="sjf", max_concurrent=8
    )

    start = time.perf_counter()
    cold = service.run(trace)
    cold_seconds = time.perf_counter() - start
    cold_rows = [
        service.result_for(ticket).sorted_rows()
        for ticket in range(len(trace))
    ]

    start = time.perf_counter()
    warm = service.run(trace)
    warm_seconds = time.perf_counter() - start
    warm_rows = [
        service.result_for(len(trace) + ticket).sorted_rows()
        for ticket in range(len(trace))
    ]

    return {
        "trace_len": len(trace),
        "cold": cold,
        "warm": warm,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "cold_rows": cold_rows,
        "warm_rows": warm_rows,
    }


def test_serving_throughput(benchmark, replay, report):
    data = benchmark.pedantic(lambda: replay, rounds=1, iterations=1)
    cold, warm = data["cold"], data["warm"]
    speedup = data["cold_seconds"] / data["warm_seconds"]
    # The committed report holds only simulated numbers, so a full run of
    # the suite leaves ``benchmarks/results/`` byte-identical; the
    # wall-clock lines go to stdout (visible with ``-s``).
    report(
        "serving_throughput",
        f"Serving {data['trace_len']} queries (sjf, 8 concurrent, "
        f"AMD, scale {SCALE}):\n"
        f"  simulated makespan {cold.makespan_ms:8.3f} ms vs "
        f"sequential {cold.sequential_ms:8.3f} ms "
        f"({cold.sequential_ms / cold.makespan_ms:.2f}x overlap)\n"
        f"  throughput {cold.throughput_qps:8.1f} q/s | "
        f"p50 {cold.p50_latency_ms:.3f} ms, p95 {cold.p95_latency_ms:.3f} ms",
    )
    print(
        f"  wall-clock throughput {data['trace_len'] / data['cold_seconds']:8.1f}"
        f" q/s cold, {data['trace_len'] / data['warm_seconds']:8.1f} q/s warm\n"
        f"  cold wall {data['cold_seconds']:8.3f} s "
        f"(plan cache {cold.plan_cache['misses']} misses)\n"
        f"  warm wall {data['warm_seconds']:8.3f} s "
        f"(plan cache {warm.plan_cache['hits']} hits, "
        f"{warm.plan_cache['misses']} misses) -> {speedup:.1f}x"
    )
    # Every query answered, both replays.
    assert cold.completed == data["trace_len"]
    assert warm.completed == data["trace_len"]
    # Concurrent rounds beat the no-overlap baseline.
    assert cold.makespan_ms < cold.sequential_ms
    # The warm replay re-plans nothing...
    assert warm.plan_cache["misses"] == 0
    assert warm.calibration_cache["misses"] == 0
    # ...which is worth at least 2x in wall-clock time...
    assert data["warm_seconds"] * 2 <= data["cold_seconds"]
    # ...without changing a single row.
    assert data["cold_rows"] == data["warm_rows"]
