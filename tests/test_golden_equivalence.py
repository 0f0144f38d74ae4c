"""Golden equivalence: the vectorized runtime produces the seed's results.

The fixtures under ``tests/fixtures/`` were recorded from the seed commit
*before* the group-by/probe/simulator fast paths landed:

* ``golden_rows_sf005.json`` — a sha1 digest of the sorted, rounded
  result rows for every catalogue query (TPC-H Q5/Q7/Q8/Q9/Q14 and SSB
  Q1.1–Q4.3) under every engine at SF 0.05;
* ``trace_q9_gpl_sf005.json`` — the byte-exact ``--trace-out`` JSON of a
  traced GPL Q9 run;
* ``counters_q9_gpl_sf005.json`` — the simulator counters (elapsed
  cycles, cost breakdown, row count) of that same run;
* ``trace_serve_sha1.json`` — sha1 digests of ``Tracer.to_json()`` for
  three serve drains at SF 0.02 (clean, fault storm, device relocation),
  recorded at dcbcc26 before the host-thread path was deleted: the
  absolute pin on the drain's and the scatter's span structure, event
  order and shifted-float timestamps.

Together they pin the optimization contract: identical rows, identical
simulator arithmetic, byte-identical trace export.  A legitimate
*model* change that moves cycles must re-record the fixtures and say so;
a perf-only change must never trip these tests.

The trace fixture was re-recorded once when ``CATEGORY_TRACKS`` gained
the ``shard`` track: only the header's track-name metadata changed —
every span event, counter, and cycle count stayed byte-identical.
"""

import hashlib
import json
import pathlib

import pytest

from repro.core import GPLEngine, GPLWithoutCEEngine
from repro.faults import FaultPlan
from repro.gpu import AMD_A10
from repro.gpu.simulator import simulation_memo_stats
from repro.kbe import KBEEngine
from repro.model import clear_calibration_cache, clear_search_cache
from repro.obs import Tracer, use_tracer
from repro.serve import QueryService
from repro.shard import DevicePool
from repro.ssb import generate_ssb, ssb_query
from repro.tpch import generate_database, query_by_name

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
ENGINES = {
    "GPLEngine": GPLEngine,
    "GPLWithoutCEEngine": GPLWithoutCEEngine,
    "KBEEngine": KBEEngine,
}
TPCH_QUERIES = ("Q5", "Q7", "Q8", "Q9", "Q14")
SSB_QUERIES = (
    "Q1.1", "Q1.2", "Q1.3",
    "Q2.1", "Q2.2", "Q2.3",
    "Q3.1", "Q3.2", "Q3.3", "Q3.4",
    "Q4.1", "Q4.2", "Q4.3",
)


@pytest.fixture(scope="module")
def golden():
    return json.loads((FIXTURES / "golden_rows_sf005.json").read_text())


@pytest.fixture(scope="module")
def tpch_db():
    return generate_database(scale=0.05)


@pytest.fixture(scope="module")
def ssb_db():
    return generate_ssb(scale=0.05)


def _digest(result) -> str:
    rows = sorted(
        tuple(round(float(value), 6) for value in row)
        for row in result.rows()
    )
    return hashlib.sha1(repr(rows).encode()).hexdigest()


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
@pytest.mark.parametrize("query", TPCH_QUERIES)
def test_tpch_rows_match_seed(golden, tpch_db, query, engine_name):
    engine = ENGINES[engine_name](tpch_db, AMD_A10)
    result = engine.execute(query_by_name(query))
    assert _digest(result) == golden[f"tpch/{query}/{engine_name}"]


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
@pytest.mark.parametrize("query", SSB_QUERIES)
def test_ssb_rows_match_seed(golden, ssb_db, query, engine_name):
    engine = ENGINES[engine_name](ssb_db, AMD_A10)
    result = engine.execute(ssb_query(query))
    assert _digest(result) == golden[f"ssb/{query}/{engine_name}"]


def assert_no_new_simulation(before):
    """Everything memoizable since ``before`` was replayed, not re-run."""
    after = simulation_memo_stats()
    assert after["misses"] == before["misses"]
    assert after["hits"] > before["hits"]


def test_traced_run_matches_seed_byte_for_byte(tpch_db, tmp_path):
    """Simulator determinism: counters and trace export are bit-equal."""
    from repro.model.search import clear_search_cache

    clear_search_cache()  # the fixture was recorded with a cold cache
    tracer = Tracer()
    with use_tracer(tracer):
        result = GPLEngine(tpch_db, AMD_A10).execute(query_by_name("Q9"))
    out = tmp_path / "trace.json"
    tracer.write_json(str(out))
    expected = (FIXTURES / "trace_q9_gpl_sf005.json").read_bytes()
    assert out.read_bytes() == expected

    witness = json.loads(
        (FIXTURES / "counters_q9_gpl_sf005.json").read_text()
    )
    assert result.counters.elapsed_cycles == witness["elapsed_cycles"]
    assert result.num_rows == witness["rows"]
    breakdown = {
        key: float(value)
        for key, value in result.counters.breakdown().items()
    }
    assert breakdown == witness["breakdown"]


def test_traced_run_replays_with_the_simulation_memo_warm(tpch_db, tmp_path):
    """The same fixture bytes when every segment is a memo hit."""
    test_traced_run_matches_seed_byte_for_byte(tpch_db, tmp_path)
    before = simulation_memo_stats()
    test_traced_run_matches_seed_byte_for_byte(tpch_db, tmp_path)
    assert_no_new_simulation(before)


def _drain_clean(database):
    specs = [query_by_name(name) for name in ("Q5", "Q9", "Q14") * 3]
    report = QueryService(database, AMD_A10).run(specs)
    assert report.completed == 9


def _drain_fault_storm(database):
    """Retries, fallbacks, breaker trips and degraded arrivals, plus one
    failure settled on a closed breaker and one on a degraded scope."""
    service = QueryService(
        database, AMD_A10, breaker_threshold=1, breaker_cooldown=1
    )
    for offset, name in enumerate(("Q5", "Q9", "Q14") * 2):
        service.enqueue(
            query_by_name(name),
            fault_plan=FaultPlan.from_seed(378 + offset, count=3),
        )
    report = service.drain()
    results = [service.results.get(record.index) for record in report.records]
    resilience = [r.resilience for r in results if r is not None]
    assert report.failed == 2 and report.breaker_degraded == 3
    assert sum(r.retries for r in resilience) >= 1
    assert sum(r.fallbacks for r in resilience) >= 1


def _drain_relocation(database):
    service = QueryService(database, AMD_A10, pool=DevicePool(4))
    service.enqueue(
        query_by_name("Q5"), fault_plan=FaultPlan.parse("device_down@dev1")
    )
    service.enqueue(query_by_name("Q9"))
    service.enqueue(query_by_name("Q14"))
    report = service.drain()
    assert report.completed == 3 and report.relocations == 1


SERVE_TRACE_SCENARIOS = {
    "drain": _drain_clean,
    "fault_storm": _drain_fault_storm,
    "relocation": _drain_relocation,
}


@pytest.fixture(scope="module")
def serve_db():
    return generate_database(scale=0.02)


def serve_trace_sha1(scenario, database) -> str:
    clear_calibration_cache()  # the digests were recorded cold
    clear_search_cache()
    tracer = Tracer()
    with use_tracer(tracer):
        SERVE_TRACE_SCENARIOS[scenario](database)
    return hashlib.sha1(tracer.to_json().encode()).hexdigest()


@pytest.mark.parametrize("scenario", sorted(SERVE_TRACE_SCENARIOS))
def test_serve_trace_matches_recorded_digest(serve_db, scenario):
    recorded = json.loads((FIXTURES / "trace_serve_sha1.json").read_text())
    assert serve_trace_sha1(scenario, serve_db) == recorded[scenario]


@pytest.mark.parametrize("scenario", sorted(SERVE_TRACE_SCENARIOS))
def test_serve_trace_replays_with_the_simulation_memo_warm(
    serve_db, scenario
):
    """Faulted attempts bypass the memo and everything else hits it; the
    digest cannot tell."""
    recorded = json.loads((FIXTURES / "trace_serve_sha1.json").read_text())
    serve_trace_sha1(scenario, serve_db)
    before = simulation_memo_stats()
    assert serve_trace_sha1(scenario, serve_db) == recorded[scenario]
    assert_no_new_simulation(before)


def test_golden_fixture_covers_every_combination(golden):
    expected = {
        f"tpch/{query}/{engine}"
        for query in TPCH_QUERIES
        for engine in ENGINES
    } | {
        f"ssb/{query}/{engine}"
        for query in SSB_QUERIES
        for engine in ENGINES
    }
    assert set(golden) == expected
