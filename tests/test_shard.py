"""Multi-device sharded execution: pools, partitioning, scatter-gather.

The sharding contract: a :class:`~repro.shard.ShardedExecutor` over any
:class:`~repro.shard.DevicePool` answers every query with rows identical
to single-device GPL execution — partials re-aggregate (never average
averages), ordered output re-sorts after the merge, empty shards never
poison global min/max — and does so deterministically: the same pool
spec always derives the same per-device seeds and the same partition
assignment.  The full-catalogue equivalence matrix (every TPC-H/SSB
bench query on 1, 2, and 4 devices) lives in
``test_shard_equivalence.py``; this module covers the units and the
edge cases.
"""

import numpy as np
import pytest

import repro.core.base
from repro.core import GPLEngine
from repro.errors import ExecutionError, PlanError, SchemaError
from repro.faults import FaultPlan
from repro.gpu import AMD_A10, NVIDIA_K40
from repro.kbe import KBEEngine
from repro.plans import (
    AggSpec,
    JoinEdge,
    QuerySpec,
    SelingerOptimizer,
    TableRef,
)
from repro.relational import (
    Arith,
    Col,
    ColumnDef,
    Database,
    DataType,
    PartitionMetadata,
    Table,
    TableSchema,
    col,
    hash_shard_assignment,
    lit,
    partition_database,
    partition_table,
    round_robin_assignment,
)
from repro.serve import PlanCache, QueryService
from repro.shard import (
    DEFAULT_POOL_SEED,
    DevicePool,
    PARTIALS_TABLE,
    ShardedExecutor,
    choose_partition_key,
    decompose,
    substitute_columns,
)
from repro.tpch import generate_database, q5, q9, q14, query_by_name

# ---------------------------------------------------------------------------
# device pools
# ---------------------------------------------------------------------------


class TestDevicePool:
    def test_count_form_replicates_default_preset(self):
        pool = DevicePool(3)
        assert len(pool) == 3
        assert [slot.name for slot in pool] == ["dev0", "dev1", "dev2"]
        assert all(slot.spec is AMD_A10 for slot in pool)

    def test_mixed_presets_by_name_and_spec(self):
        pool = DevicePool(["amd", NVIDIA_K40, "nvidia"])
        assert pool.specs == (AMD_A10, NVIDIA_K40, NVIDIA_K40)
        assert pool.total_kernel_slots == sum(
            spec.concurrency for spec in pool.specs
        )

    def test_seeds_deterministic_and_distinct(self):
        first, second = DevicePool(4), DevicePool(4)
        seeds = [slot.seed for slot in first]
        assert seeds == [slot.seed for slot in second]
        assert len(set(seeds)) == 4
        reseeded = DevicePool(4, seed=DEFAULT_POOL_SEED + 1)
        assert seeds != [slot.seed for slot in reseeded]

    def test_budget_scalar_broadcasts_and_sequence_must_match(self):
        pool = DevicePool(2, memory_budget_bytes=1024.0)
        assert [s.effective_budget_bytes for s in pool] == [1024.0, 1024.0]
        per_device = DevicePool(2, memory_budget_bytes=[None, 2048.0])
        assert per_device.slot(0).effective_budget_bytes == float(
            AMD_A10.global_mem_bytes
        )
        assert per_device.slot(1).effective_budget_bytes == 2048.0
        with pytest.raises(SchemaError):
            DevicePool(2, memory_budget_bytes=[1.0, 2.0, 3.0])

    def test_empty_pools_rejected(self):
        with pytest.raises(SchemaError):
            DevicePool(0)
        with pytest.raises(SchemaError):
            DevicePool([])

    def test_from_spec_count_and_preset_list(self):
        assert len(DevicePool.from_spec("4")) == 4
        assert DevicePool.from_spec("4", default="nvidia").specs == (
            NVIDIA_K40,
        ) * 4
        mixed = DevicePool.from_spec(" amd , nvidia ")
        assert mixed.specs == (AMD_A10, NVIDIA_K40)

    def test_from_spec_rejects_garbage(self):
        with pytest.raises(SchemaError):
            DevicePool.from_spec("")
        with pytest.raises(SchemaError):
            DevicePool.from_spec("amd,warp9")


# ---------------------------------------------------------------------------
# partitioning (satellite: edge cases + determinism)
# ---------------------------------------------------------------------------


def _table(**columns) -> Table:
    defs = []
    arrays = {}
    for name, values in columns.items():
        array = np.asarray(values)
        dtype = (
            DataType.INT64
            if np.issubdtype(array.dtype, np.integer)
            else DataType.FLOAT64
        )
        defs.append(ColumnDef(name, dtype))
        arrays[name] = array
    return Table(TableSchema(tuple(defs)), arrays)


class TestPartitioning:
    def test_hash_assignment_pinned(self):
        # Locks the splitmix64 mix cross-platform: partition layout is
        # part of the determinism contract, not an implementation detail.
        assert hash_shard_assignment(np.arange(12), 4).tolist() == [
            3, 1, 2, 1, 2, 2, 0, 3, 2, 0, 2, 1,
        ]

    def test_equal_keys_share_a_shard(self):
        keys = np.asarray([7, 3, 7, 7, 3, 11, 3])
        assignment = hash_shard_assignment(keys, 3)
        for key in (3, 7, 11):
            assert len(set(assignment[keys == key].tolist())) == 1

    def test_hash_requires_integral_keys(self):
        with pytest.raises(SchemaError):
            hash_shard_assignment(np.asarray([1.5, 2.5]), 2)
        with pytest.raises(SchemaError):
            hash_shard_assignment(np.arange(4), 0)

    def test_round_robin_balances_perfectly(self):
        assignment = round_robin_assignment(10, 3)
        counts = np.bincount(assignment, minlength=3).tolist()
        assert counts == [4, 3, 3]

    def test_partition_deterministic_across_runs(self, tiny_db):
        lineitem = tiny_db.table("lineitem")
        first_tables, first_assign = partition_table(
            lineitem, 4, key="l_orderkey"
        )
        second_tables, second_assign = partition_table(
            lineitem, 4, key="l_orderkey"
        )
        assert np.array_equal(first_assign, second_assign)
        for a, b in zip(first_tables, second_tables):
            assert a.num_rows == b.num_rows
            for name in a.schema.names:
                assert np.array_equal(a.column(name), b.column(name))

    def test_skewed_keys_all_rows_one_shard(self):
        table = _table(k=[42] * 8, v=np.arange(8.0))
        shards, assignment = partition_table(table, 4, key="k")
        assert len(set(assignment.tolist())) == 1
        rows = [shard.num_rows for shard in shards]
        assert sorted(rows) == [0, 0, 0, 8]
        meta = PartitionMetadata(
            table="t", scheme="hash", key="k",
            num_shards=4, shard_rows=tuple(rows),
        )
        assert meta.skew == 4.0  # worst case: sharding bought nothing
        assert meta.empty_shards == 3

    def test_more_shards_than_rows(self):
        table = _table(k=[1, 2, 3], v=[0.0, 1.0, 2.0])
        shards, _ = partition_table(table, 8, key="k")
        rows = [shard.num_rows for shard in shards]
        assert sum(rows) == 3
        assert sum(1 for r in rows if r == 0) >= 5

    def test_empty_table_partitions_to_empty_shards(self):
        table = _table(k=np.asarray([], dtype=np.int64))
        shards, assignment = partition_table(table, 3, key="k")
        assert assignment.size == 0
        assert all(shard.num_rows == 0 for shard in shards)

    def test_partition_database_shares_dimension_tables(self, tiny_db):
        shard_dbs, meta = partition_database(
            tiny_db, 2, "lineitem", key="l_orderkey"
        )
        assert meta.scheme == "hash" and meta.key == "l_orderkey"
        assert meta.total_rows == tiny_db.table("lineitem").num_rows
        # dimension tables are replicated by reference, not copied
        assert shard_dbs[0].table("nation") is tiny_db.table("nation")
        assert shard_dbs[1].table("nation") is tiny_db.table("nation")
        assert (
            shard_dbs[0].table("lineitem").num_rows
            + shard_dbs[1].table("lineitem").num_rows
            == meta.total_rows
        )


# ---------------------------------------------------------------------------
# planner: decomposition, avg rewrite, limit pushdown
# ---------------------------------------------------------------------------


def _selection_spec(limit=None, order=True) -> QuerySpec:
    return QuerySpec(
        name="sel",
        tables=(TableRef("lineitem", "lineitem"),),
        join_edges=(),
        fact="lineitem",
        filters={"lineitem": col("l_quantity").gt(45.0)},
        order_by=("l_extendedprice",) if order else (),
        order_desc=(True,) if order else (),
        limit=limit,
    )


def _avg_spec(group=True) -> QuerySpec:
    return QuerySpec(
        name="avg_price",
        tables=(TableRef("lineitem", "lineitem"),),
        join_edges=(),
        fact="lineitem",
        group_keys=("l_suppkey",) if group else (),
        aggregates=(
            AggSpec("avg_price", "avg", col("l_extendedprice")),
            AggSpec("n", "count", None),
        ),
        order_by=("l_suppkey",) if group else (),
    )


class TestPlanner:
    def test_substitute_columns_rewrites_nested_trees(self):
        expr = Arith("+", col("a"), Arith("*", col("b"), lit(2.0)))
        swapped = substitute_columns(expr, {"b": col("c")})
        assert isinstance(swapped.right.left, Col)
        assert swapped.right.left.name == "c"
        assert swapped.left.name == "a"
        # untouched trees come back identical, not copied
        assert substitute_columns(expr, {"zzz": col("c")}) is expr

    def test_avg_rewritten_to_sum_count_pair(self, tiny_db):
        plan = decompose(_avg_spec(), tiny_db)
        names = [agg.name for agg in plan.scatter_spec.aggregates]
        assert names == ["avg_price__psum", "avg_price__pcnt", "n"]
        funcs = [agg.func for agg in plan.scatter_spec.aggregates]
        assert funcs == ["sum", "count", "count"]
        # gather re-sums the pair and projects avg back by division
        merged = {a.name: a.func for a in plan.gather_spec.aggregates}
        assert merged == {
            "avg_price__psum": "sum", "avg_price__pcnt": "sum", "n": "sum",
        }
        assert [n for n, _ in plan.gather_spec.post_projection] == [
            "avg_price", "n",
        ]
        assert plan.merge_kind == "reaggregate"

    def test_aggregate_epilogue_stays_on_gather_side(self, tiny_db):
        plan = decompose(query_by_name("Q5"), tiny_db)
        assert plan.scatter_spec.order_by == ()
        assert plan.scatter_spec.limit is None
        assert plan.scatter_spec.post_projection == ()
        assert plan.gather_spec.order_by == q5().order_by
        assert plan.gather_spec.limit == q5().limit
        assert plan.gather_spec.fact == PARTIALS_TABLE

    def test_ungrouped_aggregates_carry_shard_rows_guard(self, tiny_db):
        plan = decompose(_avg_spec(group=False), tiny_db)
        assert plan.scatter_spec.aggregates[-1].name == "__shard_rows"
        assert PARTIALS_TABLE in plan.gather_spec.filters

    def test_selection_limit_pushes_down_with_its_ordering(self, tiny_db):
        # A per-shard limit without the sort would keep K arbitrary rows.
        plan = decompose(_selection_spec(limit=10), tiny_db)
        assert plan.gather_spec is None and plan.merge_kind == "concat"
        assert plan.scatter_spec.limit == 10
        assert plan.scatter_spec.order_by == ("l_extendedprice",)
        unlimited = decompose(_selection_spec(limit=None), tiny_db)
        assert unlimited.scatter_spec.order_by == ()

    def test_choose_partition_key_prefers_fact_join_keys(self, tiny_db):
        key = choose_partition_key(q5(), tiny_db)
        assert key in tiny_db.table("lineitem").schema.names
        # a keyless single-table selection falls back to round-robin
        assert choose_partition_key(_selection_spec(), tiny_db) is None

    def test_decompose_rejects_unknown_fact_table(self):
        with pytest.raises(PlanError):
            decompose(_selection_spec(), Database())


# ---------------------------------------------------------------------------
# scatter-gather executor: edge-case equivalence with one device
# ---------------------------------------------------------------------------


def _rows(result):
    # Round-6 rows: the repo-wide float-equivalence standard (matches
    # the golden fixtures and the bench checksums).  Shard-order sums
    # can differ from single-device sums in the last ULP.
    return sorted(
        tuple(round(float(v), 6) for v in row) for row in result.rows()
    )


@pytest.fixture(scope="module")
def pool3():
    return DevicePool(3)


class TestShardedEquivalence:
    def assert_matches_single(self, db, spec, pool, ordered=False):
        single = GPLEngine(db, AMD_A10).execute(spec)
        sharded = ShardedExecutor(db, pool).execute(spec)
        if ordered:
            assert single.rows() == sharded.rows()
        else:
            assert _rows(single) == _rows(sharded)
        return sharded

    def test_grouped_avg_reaggregates_not_averages(self, tiny_db, pool3):
        result = self.assert_matches_single(tiny_db, _avg_spec(), pool3)
        assert result.engine.startswith("sharded:")
        assert result.shard.merge_kind == "reaggregate"
        assert result.shard.fanout == 3

    def test_ordered_selection_with_limit(self, tiny_db, pool3):
        self.assert_matches_single(
            tiny_db, _selection_spec(limit=10), pool3, ordered=True
        )

    def test_global_aggregates_survive_empty_filter_shards(self, tiny_db):
        # A filter selective enough that some shard keeps zero rows must
        # not let that shard's identity row poison the min/max merge.
        keys = tiny_db.table("lineitem").column("l_orderkey")
        lone = int(keys[0])
        spec = QuerySpec(
            name="global",
            tables=(TableRef("lineitem", "lineitem"),),
            join_edges=(),
            fact="lineitem",
            filters={"lineitem": col("l_orderkey").eq(float(lone))},
            aggregates=(
                AggSpec("lo", "min", col("l_extendedprice")),
                AggSpec("hi", "max", col("l_extendedprice")),
                AggSpec("total", "sum", col("l_extendedprice")),
                AggSpec("n", "count", None),
                AggSpec("mean", "avg", col("l_extendedprice")),
            ),
        )
        self.assert_matches_single(tiny_db, spec, DevicePool(4))

    def test_filter_rejecting_every_row_matches_identity(self, tiny_db):
        spec = QuerySpec(
            name="void",
            tables=(TableRef("lineitem", "lineitem"),),
            join_edges=(),
            fact="lineitem",
            filters={"lineitem": col("l_quantity").gt(1e9)},
            aggregates=(
                AggSpec("total", "sum", col("l_extendedprice")),
                AggSpec("n", "count", None),
                AggSpec("mean", "avg", col("l_extendedprice")),
            ),
        )
        self.assert_matches_single(tiny_db, spec, DevicePool(3))

    def test_distinct_merges_distinctly(self, tiny_db, pool3):
        spec = QuerySpec(
            name="distinct_nations",
            tables=(TableRef("customer", "customer"),),
            join_edges=(),
            fact="customer",
            filters={"customer": col("c_acctbal").gt(0.0)},
            distinct=("c_nationkey",),
            order_by=("c_nationkey",),
        )
        result = self.assert_matches_single(
            tiny_db, spec, pool3, ordered=True
        )
        assert result.shard.merge_kind == "distinct"

    def test_joined_query_on_mixed_pool(self, tiny_db):
        single = GPLEngine(tiny_db, AMD_A10).execute(q9())
        pool = DevicePool(["amd", "nvidia"])
        sharded = ShardedExecutor(tiny_db, pool).execute(q9())
        assert single.approx_equals(sharded)
        assert sharded.device == "pool[2: AMD A10 APU + NVIDIA Tesla K40]"

    def test_single_device_pool_degenerates_cleanly(self, tiny_db):
        self.assert_matches_single(tiny_db, q14(), DevicePool(1))

    def test_partition_cache_reused_across_queries(self, tiny_db):
        executor = ShardedExecutor(tiny_db, DevicePool(2))
        executor.execute(q5())
        store = executor._partition_cache
        cached = dict(store._entries)
        executor.execute(q5())
        assert dict(store._entries) == cached

    def test_add_repartitions_instead_of_serving_stale_rows(self):
        database = generate_database(scale=0.002, seed=1)
        executor = ShardedExecutor(database, DevicePool(2))
        before = executor.execute(q14()).rows()[0][0]
        assert before == pytest.approx(16.1452, abs=1e-4)
        lineitem = database.table("lineitem")
        database.add(
            "lineitem", lineitem.filter(np.arange(lineitem.num_rows) % 2 == 0)
        )
        after = executor.execute(q14()).rows()[0][0]
        fresh = KBEEngine(database, AMD_A10).execute(q14()).rows()[0][0]
        assert fresh == pytest.approx(9.8605, abs=1e-4)
        assert after == pytest.approx(fresh)

    def test_report_accounting(self, tiny_db, pool3):
        result = ShardedExecutor(tiny_db, pool3).execute(q5())
        report = result.shard
        assert report.devices == 3
        assert report.fanout == sum(
            1 for r in report.records if not r.skipped
        )
        assert report.makespan_ms == pytest.approx(
            max(r.elapsed_ms for r in report.records) + report.merge_ms
        )
        assert result.elapsed_ms == pytest.approx(report.makespan_ms)
        busy = report.device_busy_ms()
        assert set(busy) >= {"dev0"}
        assert busy["dev0"] >= report.merge_ms
        assert report.partition.describe() in report.describe()

    def test_per_device_fault_plans_and_engine_overrides(self, tiny_db):
        pool = DevicePool(2)
        plans = [FaultPlan.parse("abort@*:*,times=2"), None]
        executor = ShardedExecutor(tiny_db, pool, fault_plans=plans)
        result = executor.execute(q5())
        records = result.shard.records
        assert records[0].retries + records[0].fallbacks > 0
        assert records[1].retries == 0 and records[1].fallbacks == 0
        # engines_by_device degrades exactly the named device
        degraded = ShardedExecutor(tiny_db, pool).execute(
            q5(), engines_by_device={1: ("kbe",)}
        )
        assert degraded.shard.records[0].engine == "GPL"
        assert degraded.shard.records[1].engine == "KBE"
        single = GPLEngine(tiny_db, AMD_A10).execute(q5())
        assert single.approx_equals(degraded)


# ---------------------------------------------------------------------------
# serving integration
# ---------------------------------------------------------------------------


class TestPooledService:
    def test_pooled_drain_matches_single_device(self, tiny_db):
        specs = [q5(), q9(), q14()]
        alone = QueryService(tiny_db, AMD_A10, max_concurrent=4)
        rows_alone = {
            spec.name: _rows(alone.submit(spec)) for spec in specs
        }
        pooled = QueryService(
            tiny_db, AMD_A10, max_concurrent=4, pool=DevicePool(2)
        )
        report = pooled.run(specs)
        for spec in specs:
            assert _rows(pooled.submit(spec)) == rows_alone[spec.name]
        assert report.devices == 2
        assert all(r.shards >= 1 for r in report.records)
        assert report.counters_dict()["devices"] == 2

    def test_pooled_report_exports_shard_metrics(self, tiny_db):
        service = QueryService(
            tiny_db, AMD_A10, max_concurrent=2, pool=DevicePool(2)
        )
        report = service.run([q5(), q14()])
        assert report.metrics["shard_queries_total"]["series"]
        fanout = report.metrics["shard_fanout"]["series"][0]
        assert fanout["count"] == 2
        devices = {
            entry["labels"]["device"]
            for entry in report.metrics[
                "shard_device_busy_ms_total"
            ]["series"]
        }
        assert "dev0" in devices
        assert "x2 (sharded)" in report.to_text()

    def test_pooled_breaker_scopes_are_per_device(self, tiny_db):
        service = QueryService(
            tiny_db,
            AMD_A10,
            max_concurrent=2,
            pool=DevicePool(2),
            fault_plan=FaultPlan.parse("stall@main,times=20"),
            breaker_threshold=2,
            breaker_cooldown=2,
        )
        report = service.run([q5() for _ in range(6)])
        assert report.completed == 6
        assert set(report.breaker) == {"Q5@dev0", "Q5@dev1"}
        assert report.breaker_degraded >= 1

    def test_pool_plus_tuned_rejected(self, tiny_db):
        with pytest.raises(ExecutionError):
            QueryService(tiny_db, AMD_A10, tuned=True, pool=DevicePool(2))


# ---------------------------------------------------------------------------
# plan reuse across scatters
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def scatter_db():
    # At SF 0.02 Q9's four shard partitions lower to two plan shapes.
    return generate_database(scale=0.02)


@pytest.fixture()
def planning_calls(monkeypatch):
    """Count optimizer and lowering calls made by any engine."""
    calls = {"optimize": 0, "lower": 0}
    optimize, lower = SelingerOptimizer.optimize, repro.core.base.lower

    def counted_optimize(self, spec):
        calls["optimize"] += 1
        return optimize(self, spec)

    def counted_lower(*args, **kwargs):
        calls["lower"] += 1
        return lower(*args, **kwargs)

    monkeypatch.setattr(SelingerOptimizer, "optimize", counted_optimize)
    monkeypatch.setattr(repro.core.base, "lower", counted_lower)
    return calls


class TestScatterPlanCache:
    """The executor owns a plan cache: a repeated scatter plans nothing."""

    @pytest.mark.parametrize("name", ["Q5", "Q7", "Q8", "Q9", "Q14"])
    def test_second_scatter_reuses_every_plan(
        self, scatter_db, planning_calls, name
    ):
        executor = ShardedExecutor(scatter_db, DevicePool(4))
        spec = query_by_name(name)
        first = executor.execute(spec)
        stats = executor.plan_cache.stats
        # Four shard plans and the gather plan, each looked up twice
        # (resilient admission, then execution).
        assert (stats.misses, stats.hits) == (5, 5)
        assert planning_calls == {"optimize": 5, "lower": 5}

        second = executor.execute(spec)
        assert planning_calls == {"optimize": 5, "lower": 5}
        assert (stats.misses, stats.hits) == (5, 15)
        assert second.rows() == first.rows()
        assert second.counters.elapsed_cycles == first.counters.elapsed_cycles
        assert second.shard == first.shard

    def test_shard_plans_are_cached_per_shard(self, scatter_db, monkeypatch):
        executor = ShardedExecutor(scatter_db, DevicePool(4))
        stored = {}
        put = executor.plan_cache.put

        def recording_put(key, plan):
            stored[key] = plan
            return put(key, plan)

        monkeypatch.setattr(executor.plan_cache, "put", recording_put)
        executor.execute(q9())
        assert len(stored) == 5
        shard_plans = list(stored.values())[:4]  # the gather plan is last
        # One plan rebound to every shard would be wrong here.
        assert len({plan.describe() for plan in shard_plans}) == 2

    def test_passed_cache_is_the_one_used(self, tiny_db):
        cache = PlanCache()
        executor = ShardedExecutor(tiny_db, DevicePool(2), plan_cache=cache)
        assert executor.plan_cache is cache
        executor.execute(q14())
        assert len(cache) == 3

        service = QueryService(tiny_db, AMD_A10, pool=DevicePool(2))
        assert service._sharded.plan_cache is service.plan_cache
