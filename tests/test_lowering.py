"""Tests for logical -> physical lowering."""

import pytest

from repro.plans import SelingerOptimizer, lower, plan_cache_key
from repro.plans.physical import (
    AggSink,
    BuildSink,
    CollectSink,
    FilterOp,
    ProbeOp,
    SortSink,
)
from repro.tpch import q5, q7, q8, q9, q14


@pytest.fixture()
def plans(tiny_db):
    optimizer = SelingerOptimizer(tiny_db)

    def make(spec):
        return lower(optimizer.optimize(spec), tiny_db)

    return make


class TestStructure:
    def test_q14_pipelines(self, plans):
        plan = plans(q14())
        ids = [p.pipeline_id for p in plan.pipelines]
        assert "main" in ids and "epilogue" in ids
        builds = [p for p in plan.pipelines if isinstance(p.sink, BuildSink)]
        assert len(builds) == 1  # one join -> one hash table

    @pytest.mark.parametrize(
        "factory,expected_builds",
        [(q5, 5), (q7, 5), (q8, 7), (q9, 5), (q14, 1)],
    )
    def test_build_count_matches_joins(self, plans, factory, expected_builds):
        plan = plans(factory())
        builds = [p for p in plan.pipelines if isinstance(p.sink, BuildSink)]
        assert len(builds) == expected_builds

    def test_builds_precede_main(self, plans):
        plan = plans(q5())
        ids = [p.pipeline_id for p in plan.pipelines]
        main_pos = ids.index("main")
        for position, pipeline in enumerate(plan.pipelines):
            if isinstance(pipeline.sink, BuildSink):
                assert position < main_pos

    def test_main_probe_chain_order(self, plans, tiny_db):
        optimizer = SelingerOptimizer(tiny_db)
        optimized = optimizer.optimize(q5())
        plan = lower(optimized, tiny_db)
        main = plan.pipeline("main")
        probes = [op for op in main.ops if isinstance(op, ProbeOp)]
        probe_aliases = [op.build_id.split("_", 2)[2] for op in probes]
        assert probe_aliases == list(optimized.join_order)

    def test_main_sink_is_aggregate(self, plans):
        for factory in (q5, q7, q8, q9, q14):
            plan = plans(factory())
            assert isinstance(plan.pipeline("main").sink, AggSink)

    def test_epilogue_sort(self, plans):
        plan = plans(q5())
        assert isinstance(plan.pipeline("epilogue").sink, SortSink)

    def test_epilogue_collect_for_q14(self, plans):
        # Q14 has no ORDER BY, only the post-projection.
        plan = plans(q14())
        assert isinstance(plan.pipeline("epilogue").sink, CollectSink)

    def test_describe_is_textual(self, plans):
        text = plans(q14()).describe()
        assert "main" in text and "ProbeOp" in text

    def test_pipeline_lookup_error(self, plans):
        from repro.errors import PlanError

        with pytest.raises(PlanError):
            plans(q14()).pipeline("nope")


class TestColumnPruning:
    def test_q14_fact_columns_minimal(self, plans):
        plan = plans(q14())
        main = plan.pipeline("main")
        # Q14 needs only partkey, price, discount and the shipdate filter.
        assert set(main.source_columns) == {
            "l_partkey",
            "l_extendedprice",
            "l_discount",
            "l_shipdate",
        }

    def test_filter_drops_spent_columns(self, plans):
        plan = plans(q14())
        main = plan.pipeline("main")
        filters = [op for op in main.ops if isinstance(op, FilterOp)]
        assert filters, "Q14 has a shipdate filter"
        # After the filter, shipdate is no longer needed.
        assert "l_shipdate" not in filters[0].out_columns

    def test_widths_positive(self, plans):
        for factory in (q5, q8, q14):
            plan = plans(factory())
            for pipeline in plan.pipelines:
                assert pipeline.source_row_width > 0
                for op in pipeline.ops:
                    assert op.in_width > 0

    def test_build_payload_subset_of_needs(self, plans):
        plan = plans(q5())
        nation_build = next(
            p for p in plan.pipelines if p.pipeline_id.endswith("nation")
        )
        sink = nation_build.sink
        # Q5 needs n_name (group key) and n_regionkey (region join).
        assert set(sink.payload_columns) == {"n_name", "n_regionkey"}

    def test_output_columns(self, plans):
        assert plans(q14()).output_columns == ("promo_revenue",)
        assert plans(q5()).output_columns == ("n_name", "revenue")
        assert plans(q8()).output_columns == ("o_year", "mkt_share")


class TestEstimates:
    def test_probe_selectivities_positive(self, plans):
        plan = plans(q8())
        for op in plan.pipeline("main").ops:
            if isinstance(op, ProbeOp):
                assert op.est_selectivity > 0.0

    def test_filter_selectivity_below_one(self, plans):
        plan = plans(q14())
        filters = [
            op for op in plan.pipeline("main").ops if isinstance(op, FilterOp)
        ]
        assert 0.0 < filters[0].est_selectivity < 0.2


class TestPlanCacheKey:
    def test_key_is_pinned(self, tiny_db, amd):
        """Recorded before ``Table.nbytes`` was precomputed: the database
        digest inside the key reads every table's row count and nbytes."""
        assert plan_cache_key(q14(), tiny_db, amd.name) == (
            "44b73c2dad7442a30fbb75fd617d25ea53bf1484/"
            "4632f6490d169e18db6d1b7012db99a7bb90c683/"
            "AMD A10 APU/pj=0/np=16/af=0"
        )
        assert plan_cache_key(
            q9(), tiny_db, amd.name, partitioned_joins=True
        ) == (
            "ed41bd02677c4537a118832dd53355e9a4a81742/"
            "4632f6490d169e18db6d1b7012db99a7bb90c683/"
            "AMD A10 APU/pj=1/np=16/af=0"
        )
