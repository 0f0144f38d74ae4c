"""Oracle-based query fuzzing: random specs, engine vs naive interpreter.

Hypothesis composes random-but-valid star queries over the TPC-H schema
(random dimension subsets, filters, aggregates, orderings); every engine
must agree with the row-at-a-time interpreter on all of them.  This is
the widest net in the suite — it exercises plan shapes no handwritten
test anticipates.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import GPLEngine
from repro.kbe import KBEEngine
from repro.plans import AggSpec, JoinEdge, QuerySpec, TableRef
from repro.plans.interpreter import naive_execute
from repro.relational import col
from repro.tpch import generate_database

from .conftest import assert_rows_close

#: Dimensions joinable to lineitem, with their join keys, a pool of
#: numeric columns safe to filter/aggregate/group on, and the largest
#: filter threshold worth drawing.  ``partsupp`` is Q9's edge: its build
#: key repeats (four suppliers per part), so every match expands.
DIMENSIONS = {
    "part": ("l_partkey", "p_partkey", ["p_size"], 40),
    "supplier": ("l_suppkey", "s_suppkey", ["s_nationkey"], 40),
    "orders": ("l_orderkey", "o_orderkey", ["o_custkey"], 40),
    "partsupp": ("l_partkey", "ps_partkey", ["ps_availqty"], 9999),
}

FACT_NUMERIC = ["l_quantity", "l_discount", "l_tax"]
FACT_GROUPABLE = ["l_suppkey", "l_partkey"]

_DB = None


def database():
    global _DB
    if _DB is None:
        _DB = generate_database(scale=0.001)
    return _DB


@st.composite
def query_specs(draw):
    dims = draw(
        st.lists(
            st.sampled_from(sorted(DIMENSIONS)),
            unique=True,
            max_size=3,
        )
    )
    tables = [TableRef("lineitem", "lineitem")] + [
        TableRef(dim, dim) for dim in dims
    ]
    edges = tuple(
        JoinEdge("lineitem", DIMENSIONS[dim][0], dim, DIMENSIONS[dim][1])
        for dim in dims
    )

    filters = {}
    if draw(st.booleans()):
        column = draw(st.sampled_from(FACT_NUMERIC))
        threshold = draw(st.floats(min_value=0.0, max_value=50.0))
        op = draw(st.sampled_from(["le", "ge"]))
        filters["lineitem"] = getattr(col(column), op)(threshold)
    for dim in dims:
        if draw(st.booleans()):
            column = DIMENSIONS[dim][2][0]
            threshold = draw(
                st.integers(min_value=0, max_value=DIMENSIONS[dim][3])
            )
            filters[dim] = col(column).le(threshold)

    groupable = FACT_GROUPABLE + [DIMENSIONS[d][2][0] for d in dims]
    group_keys = tuple(
        draw(
            st.lists(
                st.sampled_from(groupable), unique=True, max_size=2
            )
        )
    )
    aggregates = (
        AggSpec("total_qty", "sum", col("l_quantity")),
        AggSpec("n", "count"),
    )
    if draw(st.booleans()):
        aggregates += (AggSpec("max_disc", "max", col("l_discount")),)
    if draw(st.booleans()):
        aggregates += (AggSpec("min_tax", "min", col("l_tax")),)
    if draw(st.booleans()):
        aggregates += (AggSpec("avg_qty", "avg", col("l_quantity")),)

    order_by = group_keys if draw(st.booleans()) else ("n",)
    limit = draw(st.one_of(st.none(), st.integers(1, 20)))

    return QuerySpec(
        name="fuzz",
        tables=tuple(tables),
        join_edges=edges,
        fact="lineitem",
        filters=filters,
        group_keys=group_keys,
        aggregates=aggregates,
        order_by=tuple(order_by),
        limit=limit,
    )


class TestQueryFuzz:
    @given(spec=query_specs())
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_gpl_matches_interpreter(self, amd, spec):
        db = database()
        reference = naive_execute(spec, db)
        expected = sorted(zip(*[reference[c] for c in reference]))
        result = GPLEngine(db, amd).execute(spec)
        if spec.limit is None:
            assert_rows_close(result.sorted_rows(), expected, rel=1e-8)
        else:
            # With a limit and order-by ties, the kept subset may differ;
            # count and column structure must still agree.
            assert result.num_rows == len(expected)
            assert set(result.columns) == set(reference)

    @given(spec=query_specs())
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_engines_agree(self, amd, spec):
        db = database()
        kbe = KBEEngine(db, amd).execute(spec)
        gpl = GPLEngine(db, amd).execute(spec)
        if spec.limit is None:
            assert kbe.approx_equals(gpl)
        else:
            assert kbe.num_rows == gpl.num_rows
