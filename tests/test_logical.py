"""Tests for query specs and logical plan nodes."""

import copy
import dataclasses
import pickle

import pytest

from repro.errors import PlanError
from repro.plans import (
    AggSpec,
    FrozenDict,
    GroupAggregate,
    Join,
    JoinEdge,
    OrderBy,
    Project,
    QuerySpec,
    Scan,
    Select,
    TableRef,
)
from repro.relational import col
from repro.tpch import q5, q7, q8, q9, q14


class TestAggSpec:
    def test_valid_functions(self):
        for func in ("sum", "count", "avg", "min", "max"):
            AggSpec("x", func, col("a"))

    def test_unknown_function(self):
        with pytest.raises(PlanError):
            AggSpec("x", "median", col("a"))

    def test_count_star(self):
        AggSpec("n", "count")  # no expression needed

    def test_sum_requires_expression(self):
        with pytest.raises(PlanError):
            AggSpec("x", "sum")


class TestJoinEdge:
    def test_helpers(self):
        edge = JoinEdge("l", "lk", "r", "rk")
        assert edge.touches("l") and edge.touches("r")
        assert not edge.touches("x")
        assert edge.other("l") == "r"
        assert edge.key_for("l") == "lk"
        assert edge.key_for("r") == "rk"

    def test_bad_alias(self):
        edge = JoinEdge("l", "lk", "r", "rk")
        with pytest.raises(PlanError):
            edge.other("x")
        with pytest.raises(PlanError):
            edge.key_for("x")


class TestTableRef:
    def test_rename_applies(self, tiny_db):
        ref = TableRef("nation", "n1", rename={"n_name": "n1_name"})
        schema = ref.renamed_schema(tiny_db.table("nation").schema)
        assert "n1_name" in schema
        assert "n_name" not in schema


class TestQuerySpecValidation:
    def _tables(self):
        return (
            TableRef("lineitem", "lineitem"),
            TableRef("part", "part"),
        )

    def test_duplicate_alias(self):
        with pytest.raises(PlanError):
            QuerySpec(
                name="bad",
                tables=(TableRef("part", "p"), TableRef("orders", "p")),
                join_edges=(),
                fact="p",
            )

    def test_unknown_fact(self):
        with pytest.raises(PlanError):
            QuerySpec(
                name="bad", tables=self._tables(), join_edges=(), fact="zzz"
            )

    def test_edge_references_unknown_alias(self):
        with pytest.raises(PlanError):
            QuerySpec(
                name="bad",
                tables=self._tables(),
                join_edges=(JoinEdge("lineitem", "l_partkey", "ghost", "x"),),
                fact="lineitem",
            )

    def test_filter_references_unknown_alias(self):
        with pytest.raises(PlanError):
            QuerySpec(
                name="bad",
                tables=self._tables(),
                join_edges=(),
                fact="lineitem",
                filters={"ghost": col("x").eq(1)},
            )

    def test_table_ref_lookup(self):
        spec = q14()
        assert spec.table_ref("part").table == "part"
        with pytest.raises(PlanError):
            spec.table_ref("ghost")

    def test_num_joins(self):
        assert q14().num_joins == 1
        assert q5().num_joins == 5
        assert q8().num_joins == 7


class TestSpecImmutability:
    """Specs are immutable all the way down, so the fingerprint every
    cache key starts from is computed once and can never go stale."""

    MUTATIONS = [
        lambda m: m.__setitem__("x", None),
        lambda m: m.__delitem__(next(iter(m))),
        lambda m: m.update({"x": None}),
        lambda m: m.pop(next(iter(m))),
        lambda m: m.popitem(),
        lambda m: m.setdefault("x", None),
        lambda m: m.clear(),
        lambda m: m.__ior__({"x": None}),
    ]

    @pytest.mark.parametrize("mutate", MUTATIONS)
    def test_filters_refuse_mutation(self, mutate):
        spec = q14()
        before = (dict(spec.filters), spec.fingerprint)
        with pytest.raises(TypeError):
            mutate(spec.filters)
        assert (dict(spec.filters), spec.fingerprint) == before

    @pytest.mark.parametrize("mutate", MUTATIONS)
    def test_rename_refuses_mutation(self, mutate):
        ref = next(ref for ref in q7().tables if ref.rename)
        before = dict(ref.rename)
        with pytest.raises(TypeError):
            mutate(ref.rename)
        assert dict(ref.rename) == before

    def test_wrapping_keeps_the_dict_repr(self):
        filters = {"lineitem": col("l_quantity").lt(3), "part": col("p_size").eq(1)}
        frozen = FrozenDict(filters)
        assert repr(frozen) == repr(filters)
        assert frozen == filters
        spec = QuerySpec(
            name="t",
            tables=(TableRef("lineitem", "lineitem"), TableRef("part", "part")),
            join_edges=(),
            fact="lineitem",
            filters=filters,
        )
        assert isinstance(spec.filters, FrozenDict)
        assert repr(spec.filters) == repr(filters)
        filters.clear()  # the caller's dict stays the caller's
        assert len(spec.filters) == 2

    @pytest.mark.parametrize(
        "duplicate",
        [
            copy.deepcopy,
            copy.copy,
            lambda spec: pickle.loads(pickle.dumps(spec)),
            dataclasses.replace,
        ],
        ids=["deepcopy", "copy", "pickle", "replace"],
    )
    @pytest.mark.parametrize("factory", [q7, q14])
    def test_spec_survives_copies(self, factory, duplicate):
        spec = factory()
        fingerprint = spec.fingerprint
        twin = duplicate(spec)
        assert twin == spec
        assert twin.fingerprint == fingerprint
        assert isinstance(twin.filters, FrozenDict)
        for ref in twin.tables:
            assert isinstance(ref.rename, FrozenDict)
        with pytest.raises(TypeError):
            twin.filters["x"] = None


class TestWorkloadSpecs:
    @pytest.mark.parametrize("factory", [q5, q7, q8, q9, q14])
    def test_all_fact_is_lineitem(self, factory):
        assert factory().fact == "lineitem"

    def test_q14_selectivity_parameter(self):
        default = q14()
        swept = q14(selectivity=0.5)
        assert default.filters["lineitem"] != swept.filters["lineitem"]
        with pytest.raises(ValueError):
            q14(selectivity=0.0)
        with pytest.raises(ValueError):
            q14(selectivity=1.5)

    def test_q7_has_two_nation_aliases(self):
        aliases = [ref.alias for ref in q7().tables]
        assert "n1" in aliases and "n2" in aliases

    def test_q9_residual_composite_key(self):
        spec = q9()
        assert spec.residual_filters, "Q9 needs the ps_suppkey residual"


class TestPlanTree:
    def test_post_order(self):
        ref = TableRef("part", "part")
        tree = OrderBy(
            GroupAggregate(
                Select(Scan(ref), col("p_size").gt(10)),
                ("p_type",),
                (AggSpec("n", "count"),),
            ),
            ("n",),
        )
        nodes = tree.post_order()
        kinds = [type(node).__name__ for node in nodes]
        assert kinds == ["Scan", "Select", "GroupAggregate", "OrderBy"]

    def test_join_children(self):
        left = Scan(TableRef("lineitem", "lineitem"))
        right = Scan(TableRef("part", "part"))
        join = Join(left, right, "l_partkey", "p_partkey")
        assert join.children() == (left, right)

    def test_describe_nested(self):
        tree = Select(
            Scan(TableRef("nation", "n1", rename={"n_name": "n1_name"})),
            col("n1_name").eq(1),
        )
        text = tree.describe()
        assert "Scan(nation AS n1)" in text
        assert "Select" in text

    def test_project_label(self):
        node = Project(
            Scan(TableRef("part", "part")), (("x", col("p_size")),)
        )
        assert "Project(x)" in node.describe()
