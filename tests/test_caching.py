"""Result/segment caching and batched admission (see docs/caching.md).

The contract under test: caching never changes an answer.  A hot drain
answers from the result cache with byte-identical rows, cross-query
segment reuse splices only outputs an execution produced, dedupe runs
one leader per identical group and fans its result out, and eviction
under byte pressure degrades to plain execution — never to wrong rows.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import GPLConfig, GPLEngine
from repro.core.checkpoint import SegmentCache, SegmentCheckpoint
from repro.faults import FaultPlan
from repro.gpu import (
    AMD_A10,
    NVIDIA_K40,
    clear_simulation_memo,
    simulation_memo_stats,
)
from repro.kbe import KBEEngine
from repro.model import (
    CALIBRATION_SIZES,
    TILE_SIZE_CANDIDATES,
    ConfigurationSearch,
    calibrate_channels,
    calibration_cache_stats,
    clear_calibration_cache,
    clear_search_cache,
    plan_cost_inputs,
    search_cache_stats,
)
from repro.ocelot import OcelotEngine
from repro.plans import TableRef, plan_cache_key, plan_environment
from repro.relational import Database, Table
from repro.serve import PlanCache, QueryService, ResultCache
from repro.shard import DevicePool, ShardedExecutor
from repro.tpch import generate_database, q5, q9, q14

MIB = 1024 * 1024


def service_for(db, **kwargs):
    kwargs.setdefault("max_concurrent", 4)
    return QueryService(db, AMD_A10, **kwargs)


def _env(database, device=AMD_A10, **knobs):
    """The plan environment of an engine on ``device`` over ``database``."""
    return plan_environment(database, device.name, **knobs)


def rows_for(service, ticket):
    return service.result_for(ticket).sorted_rows()


class _FakeResult:
    """Just enough of a QueryResult for ResultCache accounting."""

    def __init__(self, num_floats):
        self.batch = {"col": np.zeros(num_floats, dtype=np.float64)}


# ---------------------------------------------------------------------------
# ResultCache unit behavior
# ---------------------------------------------------------------------------


class TestResultCache:
    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError):
            ResultCache(max_bytes=0)

    def test_hit_miss_accounting(self):
        cache = ResultCache(max_bytes=MIB)
        result = _FakeResult(8)
        assert cache.lookup("k") is None
        assert cache.store("k", result)
        assert cache.lookup("k") is result
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.live_bytes == 64

    def test_lru_eviction_under_byte_pressure(self):
        one = _FakeResult(8)  # 64 bytes each
        cache = ResultCache(max_bytes=2 * 64)
        cache.store("a", one)
        cache.store("b", _FakeResult(8))
        cache.lookup("a")  # refresh: b is now LRU
        cache.store("c", _FakeResult(8))
        assert cache.lookup("b") is None
        assert cache.lookup("a") is one
        assert cache.lookup("c") is not None
        assert cache.stats.evictions == 1
        assert cache.live_bytes == 2 * 64

    def test_oversized_result_never_admitted(self):
        cache = ResultCache(max_bytes=63)
        cache.store("small", _FakeResult(4))
        assert not cache.store("big", _FakeResult(8))
        # the oversized store evicted nothing
        assert cache.lookup("small") is not None
        assert len(cache) == 1

    def test_restore_refreshes_in_place(self):
        cache = ResultCache(max_bytes=MIB)
        cache.store("k", _FakeResult(8))
        cache.store("k", _FakeResult(16))
        assert len(cache) == 1
        assert cache.live_bytes == 128
        counters = cache.counters_dict()
        assert counters["stored"] == 2
        assert counters["evictions"] == 0
        assert counters["peak_bytes"] == 128


# ---------------------------------------------------------------------------
# SegmentCache unit behavior
# ---------------------------------------------------------------------------


def _segment(segment_id, num_floats):
    batch = {"col": np.zeros(num_floats, dtype=np.float64)}
    return SegmentCheckpoint.capture(segment_id, {segment_id: batch}, {})


class TestSegmentCacheBounds:
    def test_byte_pressure_evicts_lru(self):
        cache = SegmentCache(max_bytes=2 * 64, max_segments=256)
        cache.store("a", _segment("a", 8))
        cache.store("b", _segment("b", 8))
        cache.store("c", _segment("c", 8))
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.peek("a") is None
        assert cache.live_bytes == 2 * 64

    def test_segment_count_bound(self):
        cache = SegmentCache(max_bytes=MIB, max_segments=1)
        cache.store("a", _segment("a", 8))
        cache.store("b", _segment("b", 8))
        assert len(cache) == 1
        assert cache.peek("b") is not None

    def test_oversized_segment_rejected(self):
        cache = SegmentCache(max_bytes=63, max_segments=256)
        assert not cache.store("big", _segment("big", 8))
        assert len(cache) == 0


# ---------------------------------------------------------------------------
# engine-level segment reuse
# ---------------------------------------------------------------------------


class TestEngineSegmentCache:
    def test_repeat_query_resumes_every_segment(self, tiny_db):
        reference = GPLEngine(tiny_db, AMD_A10).execute(q5()).sorted_rows()
        cache = SegmentCache()
        engine = GPLEngine(tiny_db, AMD_A10)
        engine.segment_cache = cache
        cold = engine.execute(q5())
        assert cache.stats.hits == 0
        assert cache.stats.stored == len(engine.prepare(q5()).pipelines)
        hot = engine.execute(q5())
        assert cache.stats.hits == cache.stats.stored
        assert cold.sorted_rows() == reference
        assert hot.sorted_rows() == reference

    def test_cross_query_prefix_reuse(self, tiny_db):
        # Two specs that differ only in LIMIT share every pipeline
        # except the one whose sink applies it — the shared prefix
        # resumes from the first query's materialized outputs.
        base = q5()
        variant = dataclasses.replace(base, limit=3)
        cache = SegmentCache()
        engine = GPLEngine(tiny_db, AMD_A10)
        engine.segment_cache = cache
        full = engine.execute(base)
        assert cache.stats.hits == 0
        engine_b = GPLEngine(tiny_db, AMD_A10)
        engine_b.segment_cache = cache
        limited = engine_b.execute(variant)
        assert cache.stats.hits > 0  # the shared build prefix was spliced
        reference = GPLEngine(tiny_db, AMD_A10).execute(variant)
        assert limited.sorted_rows() == reference.sorted_rows()
        assert len(limited.rows()) == 3
        assert full.sorted_rows() == GPLEngine(
            tiny_db, AMD_A10
        ).execute(base).sorted_rows()

    def test_captured_outputs_are_read_only(self, tiny_db):
        # The cache holds segment outputs by reference; numpy enforces
        # that nobody writes into them.
        cache = SegmentCache()
        engine = KBEEngine(tiny_db, AMD_A10)
        engine.segment_cache = cache
        engine.execute(q5())
        keys = cache.keys_for(engine.prepare(q5()), _env(tiny_db))
        captured = [
            array
            for key in keys
            for batch in cache.peek(key).intermediates.values()
            for array in batch.values()
        ]
        assert captured
        for array in captured:
            with pytest.raises(ValueError, match="read-only"):
                array[:1] = 0

    def test_database_change_changes_keys(self, tiny_db):
        other_db = generate_database(scale=0.002, seed=99)
        cache = SegmentCache()
        engine = GPLEngine(tiny_db, AMD_A10)
        engine.segment_cache = cache
        keys_a = cache.keys_for(engine.prepare(q5()), _env(tiny_db))
        keys_b = cache.keys_for(engine.prepare(q5()), _env(other_db))
        assert keys_a != keys_b


# ---------------------------------------------------------------------------
# key inputs: computed once per spec and once per database
# ---------------------------------------------------------------------------


def _copy_of(database):
    """A new, separately mutable ``Database`` over the same tables."""
    copy = Database()
    for name in database.names:
        copy.add(name, database.table(name))
    return copy


def _count_calls(monkeypatch, owner, attr):
    """Count calls of ``owner.attr`` (a method or a property getter)."""
    calls = []
    original = owner.__dict__[attr]
    if isinstance(original, property):
        def counting(self):
            calls.append(self)
            return original.fget(self)
        monkeypatch.setattr(owner, attr, property(counting))
    else:
        def counting(self, *args, **kwargs):
            calls.append(self)
            return original(self, *args, **kwargs)
        monkeypatch.setattr(owner, attr, counting)
    return calls


# One row per (store, perturbed input).  A driver builds the store over
# a private database and returns ``lookup(**inputs)``, which runs the
# store's computation once and reports "hit" or "miss".
_BASE = dict(
    device=AMD_A10, pj=False, np=16, af=False, tile=GPLConfig().tile_bytes,
    pool=1, grid=False, spec=q14(),
)
_PERTURBED = {
    "device": dict(device=AMD_A10.with_overrides(num_cus=2)),
    "concurrency": dict(device=AMD_A10.with_overrides(concurrency=1)),
    "pj": dict(pj=True),
    "np": dict(np=8),
    "af": dict(af=True),
    "tile": dict(tile=GPLConfig().tile_bytes // 4),
    "pool": dict(pool=2),
    "grid": dict(grid=True),
    "shape": dict(spec=dataclasses.replace(q14(), limit=3)),
    "deadline": dict(spec=dataclasses.replace(q14(), deadline_cycles=1e15)),
}


def _outcome(hits, misses):
    if hits and not misses:
        return "hit"
    if misses and not hits:
        return "miss"
    return f"{hits} hits, {misses} misses"


def _counted(counters, run):
    """A lookup that reads its outcome off the store's running totals."""
    def lookup(**inputs):
        before = counters()
        run(**inputs)
        after = counters()
        return _outcome(
            after["hits"] - before["hits"], after["misses"] - before["misses"]
        )
    return lookup


def _engine(database, device, pj, np, af, **_):
    return GPLEngine(
        database, device, partitioned_joins=pj, num_partitions=np,
        adaptive_fact=af,
    )


def _plan_store(database):
    cache = PlanCache()

    def run(spec, **inputs):
        engine = _engine(database, **inputs)
        engine.plan_cache = cache
        engine.prepare(spec)
    return _counted(cache.counters, run)


def _result_store(database):
    cache = ResultCache(64 * MIB)

    def run(pj, tile, pool, spec, **_):
        service = service_for(
            database, result_cache=cache, partitioned_joins=pj,
            config=GPLConfig(tile_bytes=tile),
            pool=DevicePool(pool) if pool > 1 else None,
        )
        service.run([spec])
    return _counted(cache.counters, run)


def _segment_store(database):
    cache = SegmentCache()

    def run(spec, **inputs):
        engine = _engine(database, **inputs)
        engine.segment_cache = cache
        engine.execute(spec)
    return _counted(cache.counters, run)


def _partition_store(database):
    executor = ShardedExecutor(database, DevicePool(2))
    return _counted(
        executor._partition_cache.counters,
        lambda spec, **_: executor.execute(spec),
    )


def _search_memo(database):
    clear_search_cache()
    plan = GPLEngine(database, AMD_A10).prepare(q14())
    segments = plan_cost_inputs(plan, database)

    def run(device, grid, **_):
        tiles = TILE_SIZE_CANDIDATES[:-1] if grid else TILE_SIZE_CANDIDATES
        search = ConfigurationSearch(
            device, calibrate_channels(device), tile_candidates=tiles
        )
        search.optimize_plan(segments)
    return _counted(search_cache_stats, run)


def _simulation_memo(database):
    clear_simulation_memo()

    def run(device, spec, **_):
        GPLEngine(database, device).execute(spec)
    return _counted(simulation_memo_stats, run)


def _gamma_memo(database):
    clear_calibration_cache()

    def run(device, grid, **_):
        sizes = CALIBRATION_SIZES[:-1] if grid else CALIBRATION_SIZES
        calibrate_channels(device, sizes=sizes)
    return _counted(calibration_cache_stats, run)


def _ocelot_builds(database):
    """A build hits when it launches fewer kernels than a fresh engine's."""
    engine = OcelotEngine(database, AMD_A10)

    def lookup(spec, **_):
        launches = engine.execute(spec).counters.kernel_launches
        fresh = OcelotEngine(database, AMD_A10).execute(spec)
        return "miss" if launches == fresh.counters.kernel_launches else "hit"
    return lookup


def _dedupe_key(database):
    """A follower hits when the drain dedupes it onto ``q14()``."""
    service = service_for(database, batch_dedupe=True)

    def lookup(spec, **_):
        return "hit" if service.run([q14(), spec]).deduped else "miss"
    return lookup


_KEYED_STORES = {
    "plan": _plan_store,
    "result": _result_store,
    "segment": _segment_store,
    "partition": _partition_store,
    "search": _search_memo,
    "simulation": _simulation_memo,
    "gamma": _gamma_memo,
    "ocelot": _ocelot_builds,
    "dedupe": _dedupe_key,
}
_KEY_ROWS = [
    (store, perturbation, "miss")
    for store, perturbations in (
        ("plan", ("add", "pj", "np", "af")),
        ("result", ("add", "pj", "tile", "pool")),
        ("segment", ("add", "pj", "np", "af")),
        ("partition", ("add",)),
        ("search", ("device", "grid")),
        # Δ reaches the simulator only through a segment's tile plan, so
        # a segment that fits one tile at both sizes rightly hits.
        ("simulation", ("device", "concurrency")),
        ("gamma", ("device", "grid")),
        ("ocelot", ("add",)),
        ("dedupe", ("shape", "deadline")),
    )
    for perturbation in perturbations
] + [
    # Plans and segments read no device field: a serving round member
    # runs on a same-named variant at reduced concurrency and must hit.
    ("plan", "concurrency", "hit"),
    ("segment", "concurrency", "hit"),
]


class TestKeyMemo:
    def test_spec_is_serialized_once(self, tiny_db, monkeypatch):
        spec = q5()
        serialized = _count_calls(monkeypatch, TableRef, "__repr__")
        for device in (AMD_A10, NVIDIA_K40):
            for partitioned in (False, True):
                plan_cache_key(
                    spec, _env(tiny_db, device, partitioned_joins=partitioned)
                )
        service = service_for(
            tiny_db, result_cache_bytes=64 * MIB, batch_dedupe=True
        )
        service.run([spec, spec, spec])  # result, dedupe and plan keys
        hot = service.run([spec])
        assert hot.cached == 1
        assert len(serialized) == len(spec.tables)
        assert spec.fingerprint is spec.fingerprint

    def test_database_is_fingerprinted_once(self, tiny_db, monkeypatch):
        database = _copy_of(tiny_db)
        plan = GPLEngine(database, AMD_A10).prepare(q5())
        measured = _count_calls(monkeypatch, Table, "nbytes")
        cache = SegmentCache()
        for device in (AMD_A10, NVIDIA_K40):
            plan_cache_key(q5(), _env(database, device))
            plan_cache_key(q9(), _env(database, device))
            cache.keys_for(plan, _env(database, device))
        assert len(measured) == len(database.names)

    def test_replace_rekeys_only_what_shapes_the_plan(self, tiny_db):
        spec = q5()
        key = plan_cache_key(spec, _env(tiny_db))
        limited = dataclasses.replace(spec, limit=3)
        assert limited.fingerprint != spec.fingerprint
        assert plan_cache_key(limited, _env(tiny_db)) != key
        bounded = dataclasses.replace(spec, deadline_cycles=1e9)
        assert bounded.fingerprint == spec.fingerprint
        assert plan_cache_key(bounded, _env(tiny_db)) == key

    def test_add_changes_plan_and_segment_keys(self, tiny_db):
        database = _copy_of(tiny_db)
        engine = GPLEngine(database, AMD_A10)
        plan = engine.prepare(q5())
        cache = SegmentCache()
        plan_key = plan_cache_key(q5(), _env(database))
        segment_keys = cache.keys_for(plan, _env(database))
        assert plan_key == plan_cache_key(q5(), _env(tiny_db))
        lineitem = database.table("lineitem")
        database.add("lineitem", lineitem.slice(0, lineitem.num_rows // 2))
        assert plan_cache_key(q5(), _env(database)) != plan_key
        new_keys = cache.keys_for(plan, _env(database))
        assert len(new_keys) == len(segment_keys)
        assert not set(new_keys) & set(segment_keys)

    @pytest.mark.parametrize("store, perturbation, expected", _KEY_ROWS)
    def test_each_key_reads_what_its_computation_reads(
        self, tiny_db, store, perturbation, expected
    ):
        # Warm the store, perturb one input, then repeat the unperturbed
        # call.  An add cannot be undone, so after one the unperturbed
        # call reads the replaced table.
        database = _copy_of(tiny_db)
        lookup = _KEYED_STORES[store](database)
        lookup(**_BASE)
        inputs = dict(_BASE)
        if perturbation == "add":
            part = database.table("part")
            database.add("part", part.filter(np.arange(part.num_rows) % 2 == 0))
        else:
            inputs.update(_PERTURBED[perturbation])
        assert lookup(**inputs) == expected
        assert lookup(**_BASE) == "hit"

    def test_service_misses_after_add(self, tiny_db):
        database = _copy_of(tiny_db)
        service = service_for(
            database, result_cache_bytes=64 * MIB, segment_cache_bytes=256 * MIB
        )
        service.run([q14()])
        stale = rows_for(service, 0)
        assert service.run([q14()]).cached == 1
        lineitem = database.table("lineitem")
        database.add("lineitem", lineitem.slice(0, lineitem.num_rows // 2))
        report = service.run([q14()])
        assert report.cached == 0
        assert report.result_cache["misses"] == 1
        fresh = KBEEngine(database, AMD_A10).execute(q14()).sorted_rows()
        assert rows_for(service, 2) == fresh
        assert fresh != stale

    def test_service_misses_after_same_shape_add(self, tiny_db):
        database = _copy_of(tiny_db)
        service = service_for(
            database, result_cache_bytes=64 * MIB, segment_cache_bytes=256 * MIB
        )
        service.run([q5()])
        stale = rows_for(service, 0)
        lineitem = database.table("lineitem")
        price = lineitem.column("l_extendedprice")
        database.add(
            "lineitem",
            Table(lineitem.schema, {**lineitem.columns, "l_extendedprice": price * 2}),
        )
        assert database.table("lineitem").nbytes == lineitem.nbytes
        report = service.run([q5()])
        assert report.cached == 0
        assert report.result_cache["misses"] == 1
        fresh = KBEEngine(database, AMD_A10).execute(q5()).sorted_rows()
        assert rows_for(service, 1) == fresh
        assert fresh != stale


# ---------------------------------------------------------------------------
# service-level: hot drains, dedupe, shared-scan rounds
# ---------------------------------------------------------------------------


class TestServiceResultCache:
    def test_hot_drain_answers_from_cache(self, tiny_db):
        service = service_for(
            tiny_db, result_cache_bytes=64 * MIB, segment_cache_bytes=256 * MIB
        )
        trace = [q5(), q9(), q14()]
        cold = service.run(trace)
        assert cold.cached == 0
        cold_rows = [rows_for(service, t) for t in range(len(trace))]
        hot = service.run(trace)
        assert hot.cached == len(trace)
        assert all(r.outcome == "cached" for r in hot.records)
        assert all(r.round == -1 and r.exec_ms == 0.0 for r in hot.records)
        hot_rows = [
            rows_for(service, len(trace) + t) for t in range(len(trace))
        ]
        assert hot_rows == cold_rows
        assert hot.result_cache["hits"] == len(trace)
        counters = hot.counters_dict()
        assert sum(counters["outcomes"].values()) == len(hot.records)

    def test_cached_rows_match_both_engines(self, tiny_db):
        service = service_for(tiny_db, result_cache_bytes=64 * MIB)
        service.run([q9()])
        hot = service.run([q9()])
        assert hot.cached == 1
        served = rows_for(service, 1)
        gpl = GPLEngine(tiny_db, AMD_A10).execute(q9()).sorted_rows()
        kbe = KBEEngine(tiny_db, AMD_A10).execute(q9()).sorted_rows()
        assert served == gpl == kbe

    def test_cached_result_is_read_only(self, tiny_db):
        service = service_for(tiny_db, result_cache_bytes=64 * MIB)
        service.run([q9()])
        assert service.run([q9()]).cached == 1
        served = service.result_for(1).batch
        assert served
        for array in served.values():
            with pytest.raises(ValueError, match="read-only"):
                array[:1] = 0

    def test_eviction_under_pressure_stays_correct(self, tiny_db):
        probe = service_for(tiny_db, result_cache_bytes=64 * MIB)
        trace = [q5(), q9(), q14()]
        probe.run(trace)
        sizes = [
            ResultCache.result_bytes(probe.result_for(t))
            for t in range(len(trace))
        ]
        # a budget of one largest result: every store evicts the last
        service = service_for(tiny_db, result_cache=ResultCache(max(sizes)))
        service.run(trace)
        expected = [rows_for(service, t) for t in range(len(trace))]
        hot = service.run(trace)
        assert 0 < hot.cached < len(trace)
        assert service.result_cache.stats.evictions > 0
        actual = [rows_for(service, len(trace) + t) for t in range(len(trace))]
        assert actual == expected

    def test_fault_plans_bypass_the_cache(self, tiny_db):
        service = service_for(
            tiny_db,
            result_cache_bytes=64 * MIB,
            fault_plan=FaultPlan.parse("oom"),
        )
        service.run([q14()])
        hot = service.run([q14()])
        assert hot.cached == 0
        assert hot.result_cache == {} or hot.result_cache.get("hits", 0) == 0

    def test_per_query_fault_plan_bypasses_reads(self, tiny_db):
        service = service_for(tiny_db, result_cache_bytes=64 * MIB)
        service.run([q14()])  # populates the cache
        service.enqueue(q14(), fault_plan=FaultPlan.parse("oom"))
        report = service.drain()
        assert report.cached == 0
        assert report.records[0].outcome == "ok"  # resilient, not cached


class TestBatchedAdmission:
    def test_dedupe_executes_exactly_once(self, tiny_db):
        n = 6
        service = service_for(tiny_db, batch_dedupe=True)
        report = service.run([q5()] * n)
        executed = [
            r for r in report.records if r.outcome == "ok" and not r.deduped
        ]
        assert len(executed) == 1
        assert report.deduped == n - 1
        reference = GPLEngine(tiny_db, AMD_A10).execute(q5()).sorted_rows()
        for ticket in range(n):
            assert rows_for(service, ticket) == reference
        followers = [r for r in report.records if r.deduped]
        assert all(r.exec_ms == 0.0 for r in followers)
        assert all(r.num_rows == len(reference) for r in report.records)

    def test_distinct_deadlines_are_not_deduped(self, tiny_db):
        generous = dataclasses.replace(q5(), deadline_cycles=1e15)
        service = service_for(tiny_db, batch_dedupe=True)
        report = service.run([q5(), generous])
        assert report.deduped == 0
        assert all(r.outcome == "ok" for r in report.records)

    def test_shared_scan_rounds_group_same_fact(self, tiny_db):
        # Q5 and Q9 both stream lineitem: with dedupe/batching on they
        # land in one shared-scan round instead of two solo rounds.
        service = service_for(tiny_db, batch_dedupe=True)
        report = service.run([q5(), q9()])
        assert report.shared_scan_rounds == 1
        assert report.num_rounds == 1
        plain = service_for(tiny_db)
        baseline = plain.run([q5(), q9()])
        assert baseline.shared_scan_rounds == 0
        rows = [rows_for(service, t) for t in range(2)]
        expected = [rows_for(plain, t) for t in range(2)]
        assert rows == expected


class TestPooledCaching:
    def test_hot_pooled_drain_matches_single_device(self, tiny_db):
        trace = [q5(), q9(), q14()]
        single = service_for(tiny_db, result_cache_bytes=64 * MIB)
        single.run(trace)
        pooled = service_for(
            tiny_db,
            pool=DevicePool(4),
            result_cache_bytes=64 * MIB,
            segment_cache_bytes=256 * MIB,
            batch_dedupe=True,
        )
        cold = pooled.run(trace)
        assert cold.cached == 0
        hot = pooled.run(trace)
        assert hot.cached == len(trace)
        for t in range(len(trace)):
            expected = single.result_for(t)
            # sharded sums reassociate; a cache hit must return the
            # *byte-identical* rows of the pooled cold run
            assert pooled.result_for(t).approx_equals(expected)
            assert rows_for(pooled, len(trace) + t) == rows_for(pooled, t)

    def test_pool_width_salts_the_result_key(self, tiny_db):
        shared = ResultCache(64 * MIB)
        single = service_for(tiny_db, result_cache=shared)
        single.run([q14()])
        pooled = service_for(
            tiny_db, pool=DevicePool(2), result_cache=shared
        )
        report = pooled.run([q14()])
        assert report.cached == 0  # differently-pooled services never alias


class TestDeterminism:
    def test_same_trace_same_witness(self):
        def one_run():
            clear_calibration_cache()
            clear_search_cache()
            db = generate_database(scale=0.002, seed=7)
            service = QueryService(
                db,
                AMD_A10,
                max_concurrent=4,
                result_cache_bytes=64 * MIB,
                segment_cache_bytes=256 * MIB,
                batch_dedupe=True,
            )
            trace = [q5(), q9(), q5(), q14()]
            cold = service.run(trace)
            hot = service.run(trace)
            return cold.counters_dict(), hot.counters_dict()

        assert one_run() == one_run()
