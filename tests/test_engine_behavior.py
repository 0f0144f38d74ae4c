"""Behavioural tests: the performance properties the paper claims.

These run at a moderate scale so pipelines actually fill; they assert
relative orderings (who is faster, who materializes less), never absolute
times.
"""

import json

import pytest

from repro.core import GPLConfig, GPLEngine, GPLWithoutCEEngine
from repro.core.tiling import Tiler
from repro.kbe import KBEEngine
from repro.obs import Tracer, use_tracer
from repro.ocelot import OcelotEngine
from repro.plans import ExecutionContext, GroupAggState, HashTable
from repro.plans.runtime import batch_rows
from repro.serve import PlanCache
from repro.ssb import SSB_QUERIES, generate_ssb
from repro.tpch import QUERIES, generate_database, query_by_name


@pytest.fixture(scope="module")
def db():
    return generate_database(scale=0.05)


@pytest.fixture(scope="module")
def runs(db, request):
    """One execution of Q8 per engine, shared across tests."""
    from repro.gpu import AMD_A10

    spec = query_by_name("Q8")
    return {
        "KBE": KBEEngine(db, AMD_A10).execute(spec),
        "GPL": GPLEngine(db, AMD_A10).execute(spec),
        "woCE": GPLWithoutCEEngine(db, AMD_A10).execute(spec),
        "Ocelot": OcelotEngine(db, AMD_A10).execute(spec),
    }


class TestRelativePerformance:
    def test_gpl_beats_kbe(self, runs):
        assert runs["GPL"].elapsed_ms < runs["KBE"].elapsed_ms

    def test_without_ce_loses_gpl_advantage(self, runs):
        assert runs["woCE"].elapsed_ms > runs["GPL"].elapsed_ms

    def test_all_queries_gpl_beats_kbe(self, db, amd):
        for name in ("Q5", "Q7", "Q9", "Q14"):
            spec = query_by_name(name)
            kbe = KBEEngine(db, amd).execute(spec)
            gpl = GPLEngine(db, amd).execute(spec)
            assert gpl.elapsed_ms < kbe.elapsed_ms, name

    def test_nvidia_gpl_beats_kbe(self, db, nvidia):
        spec = query_by_name("Q8")
        kbe = KBEEngine(db, nvidia).execute(spec)
        gpl = GPLEngine(db, nvidia).execute(spec)
        assert gpl.elapsed_ms < kbe.elapsed_ms


class TestMaterialization:
    def test_gpl_materializes_fraction_of_kbe(self, runs):
        ratio = runs["GPL"].counters.bytes_materialized / (
            runs["KBE"].counters.bytes_materialized
        )
        assert 0.0 < ratio < 0.4  # paper: 15-33%

    def test_gpl_moves_data_through_channels(self, runs):
        assert runs["GPL"].counters.bytes_channel > 0
        assert runs["KBE"].counters.bytes_channel == 0

    def test_hash_tables_still_materialized_in_gpl(self, runs):
        # Blocking kernels (hash build) cannot avoid global memory.
        assert runs["GPL"].counters.bytes_materialized > 0


class TestCounters:
    def test_kbe_launches_once_per_kernel(self, db, amd):
        engine = KBEEngine(db, amd)
        plan = engine.prepare(query_by_name("Q14"))
        expected = sum(
            len(op.kbe_kernels())
            for pipeline in plan.pipelines
            for op in pipeline.ops
        ) + sum(
            len(pipeline.sink.kbe_kernels()) for pipeline in plan.pipelines
        )
        result = engine.execute(query_by_name("Q14"))
        assert result.counters.kernel_launches == expected

    def test_gpl_launches_once_per_segment_kernel(self, db, amd):
        engine = GPLEngine(db, amd)
        result = engine.execute(query_by_name("Q14"))
        kbe_launches = KBEEngine(db, amd).execute(
            query_by_name("Q14")
        ).counters.kernel_launches
        assert result.counters.kernel_launches < kbe_launches

    def test_without_ce_launches_per_tile(self, db, amd):
        gpl = GPLEngine(db, amd).execute(query_by_name("Q14"))
        woce = GPLWithoutCEEngine(db, amd).execute(query_by_name("Q14"))
        assert woce.counters.kernel_launches > gpl.counters.kernel_launches

    def test_breakdown_sums_to_one(self, runs):
        for run in runs.values():
            breakdown = run.counters.breakdown()
            assert sum(breakdown.values()) == pytest.approx(1.0)

    def test_kbe_has_no_channel_or_delay(self, runs):
        breakdown = runs["KBE"].counters.breakdown()
        assert breakdown["DC_cost"] == 0.0
        assert breakdown["Delay"] == 0.0

    def test_utilization_in_unit_range(self, runs):
        for run in runs.values():
            assert 0.0 <= run.counters.valu_busy <= 1.0
            assert 0.0 <= run.counters.mem_unit_busy <= 1.0

    def test_profiler_report(self, runs):
        report = runs["GPL"].report
        assert report.elapsed_ms == pytest.approx(runs["GPL"].elapsed_ms)
        assert report.kernels, "per-kernel profiles present"
        for kernel in report.kernels:
            assert 0.0 <= kernel.valu_busy <= 1.0
            assert 0.0 <= kernel.occupancy <= 1.0


class TestConfiguration:
    def test_segment_configs_override(self, db, amd):
        base = GPLConfig()
        override = GPLConfig(tile_bytes=4 << 20)
        engine = GPLEngine(
            db, amd, base, segment_configs={"main": override}
        )
        assert engine.config_for("main") is override
        assert engine.config_for("anything_else") is base

    def test_without_ce_engine_name(self, db, amd):
        assert GPLWithoutCEEngine(db, amd).name == "GPL (w/o CE)"
        assert GPLEngine(db, amd).name == "GPL"
        assert GPLEngine(
            db, amd, GPLConfig(concurrent=False)
        ).name == "GPL (w/o CE)"

    def test_determinism_across_runs(self, db, amd):
        spec = query_by_name("Q5")
        a = GPLEngine(db, amd).execute(spec)
        b = GPLEngine(db, amd).execute(spec)
        assert a.counters.elapsed_cycles == b.counters.elapsed_cycles


def _pass_totals(engine, plan, tiles):
    """Per-pipeline ``(rows_in, rows_out, sink_rows, output rows)`` of
    the shared functional pass, with each source cut by ``tiles``."""
    context = ExecutionContext()
    totals = {}
    for pipeline in plan.pipelines:
        source = engine._source_batch(pipeline, context)
        output, rows_in, rows_out, sink_rows = engine._functional_pass(
            pipeline,
            tiles(source, max(1, pipeline.source_row_width)),
            context,
        )
        totals[pipeline.pipeline_id] = (
            rows_in, rows_out, sink_rows,
            None if output is None else batch_rows(output),
        )
    return totals


@pytest.fixture(scope="module")
def ssb_db():
    return generate_ssb(scale=0.01)


class TestFunctionalPass:
    """Every engine runs one functional pass; its row totals — all the
    simulated side reads of it — do not depend on how input is tiled."""

    @pytest.mark.parametrize(
        "workload,query",
        [("tpch", name) for name in QUERIES]
        + [("ssb", name) for name in SSB_QUERIES],
    )
    def test_row_totals_do_not_depend_on_tiling(
        self, small_db, ssb_db, amd, workload, query
    ):
        if workload == "tpch":
            database, spec = small_db, QUERIES[query]
        else:
            database, spec = ssb_db, SSB_QUERIES[query]
        engine = KBEEngine(database, amd)
        plan = engine.prepare(spec)
        untiled = _pass_totals(engine, plan, lambda batch, width: [batch])
        for tile_bytes in (16 * 1024, 1 << 20):
            tiler = Tiler(tile_bytes)
            assert _pass_totals(engine, plan, tiler.tiles) == untiled
        assert any(sum(totals[0]) for totals in untiled.values())


class TestOcelotBehavior:
    def test_hash_table_cache_speeds_second_run(self, db, amd):
        engine = OcelotEngine(db, amd)
        first = engine.execute(query_by_name("Q5"))
        second = engine.execute(query_by_name("Q5"))
        assert second.elapsed_ms < first.elapsed_ms

    def test_cache_clear_restores_cost(self, db, amd):
        engine = OcelotEngine(db, amd)
        first = engine.execute(query_by_name("Q5"))
        engine.clear_hash_table_cache()
        third = engine.execute(query_by_name("Q5"))
        assert third.elapsed_ms == pytest.approx(first.elapsed_ms)

    def test_bitmap_kernel_used(self, db, amd):
        result = OcelotEngine(db, amd).execute(query_by_name("Q14"))
        names = {k.name for k in result.counters.kernel_stats}
        assert "k_bitmap_select" in names
        # No prefix-sum/scatter selection kernels in Ocelot.
        assert "k_scatter" not in names

    def test_ocelot_fewer_kernels_than_kbe(self, db, amd):
        spec = query_by_name("Q14")
        ocelot = OcelotEngine(db, amd).execute(spec)
        kbe = KBEEngine(db, amd).execute(spec)
        assert (
            ocelot.counters.kernel_launches < kbe.counters.kernel_launches
        )


def _traced(engine, spec):
    """Run ``spec`` under a tracer; return the result and its events
    without the ``plan`` track, which differs by design (a cache hit
    neither optimizes nor lowers)."""
    tracer = Tracer()
    with use_tracer(tracer):
        result = engine.execute(spec)
    events = json.loads(tracer.to_json())["traceEvents"]
    return result, [event for event in events if event.get("cat") != "plan"]


def _held_state(sink):
    """Attributes through which ``sink`` still reaches run data."""
    return [
        name
        for name, value in vars(sink).items()
        if isinstance(value, (HashTable, GroupAggState, dict))
        or (isinstance(value, list) and value)
    ]


class TestCachedPlanReplay:
    """A cached plan re-executes exactly like a freshly lowered one.

    Q5 and Q9 both end in a ``SortSink``.  Its kernels are sized from
    the row count an engine passes in, never from what the sink holds,
    and the sink drops its rows in ``finalize``: a plan's history can
    move neither the rows nor the cycles of its next run.
    """

    @pytest.mark.parametrize("query", ["Q5", "Q9"])
    @pytest.mark.parametrize(
        "engine_cls",
        [GPLEngine, GPLWithoutCEEngine, KBEEngine, OcelotEngine],
        ids=["gpl", "gpl-woce", "kbe", "ocelot"],
    )
    def test_second_run_matches_a_fresh_plan(self, db, amd, engine_cls, query):
        spec = query_by_name(query)
        cached = engine_cls(db, amd)
        cached.plan_cache = PlanCache()
        fresh = engine_cls(db, amd)  # plans anew on every execute
        # Both engines run twice, so engine-level state (Ocelot's
        # hash-table cache) matches and only the plan's origin differs.
        cached.execute(spec)
        fresh.execute(spec)
        warm, warm_events = _traced(cached, spec)
        cold, cold_events = _traced(fresh, spec)
        assert cached.plan_cache.stats.hits == 1
        assert warm.rows() == cold.rows()
        assert warm.counters == cold.counters
        assert warm_events == cold_events

        plan = cached.prepare(spec)  # the cached plan itself
        assert {
            pipeline.pipeline_id: _held_state(pipeline.sink)
            for pipeline in plan.pipelines
        } == {pipeline.pipeline_id: [] for pipeline in plan.pipelines}

    @pytest.mark.parametrize(
        "engine_cls", [KBEEngine, OcelotEngine], ids=["kbe", "ocelot"]
    )
    def test_order_by_costs_the_same_on_a_cached_plan(
        self, db, amd, engine_cls
    ):
        # Q9 ends in ORDER BY, and KBE's sort kernel is sized by the rows
        # that reached the sink: fresh and cached plans cost the same.
        spec = query_by_name("Q9")
        cached = engine_cls(db, amd)
        cached.plan_cache = PlanCache()
        cycles = []
        for _ in range(2):
            if isinstance(cached, OcelotEngine):
                cached.clear_hash_table_cache()  # rebuild, as a fresh run
            cycles.append(cached.execute(spec).counters.elapsed_cycles)
        fresh = engine_cls(db, amd).execute(spec).counters.elapsed_cycles
        assert cached.plan_cache.stats.hits == 1
        assert cycles == [fresh, fresh]
