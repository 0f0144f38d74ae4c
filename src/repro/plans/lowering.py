"""Lowering: logical plan tree -> physical pipelines.

The optimizer's left-deep tree becomes:

* one *build pipeline* per dimension table (scan -> optional filter ->
  hash build), in probe order;
* the *main pipeline* streaming the fact table through its filter, the
  probe chain, residual filters, derived-column computation, and the
  aggregation sink;
* small *epilogue pipelines* for post-aggregation projection and ordering.

Lowering also performs column pruning (live columns are tracked backward
through the chain, so intermediate tuple widths are minimal — these widths
drive all of the simulator's byte accounting) and attaches per-operator
selectivity estimates from the statistics module.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import PlanError
from ..obs.tracing import maybe_span
from ..relational import Database, Expression
from .logical import (
    GroupAggregate,
    Join,
    LogicalPlan,
    OrderBy,
    Project,
    QuerySpec,
    Scan,
    Select,
)
from .optimizer import OptimizedQuery
from .physical import (
    AggSink,
    BuildSink,
    CollectSink,
    ComputeOp,
    FilterOp,
    PartitionOp,
    PartitionedBuildSink,
    PhysicalPlan,
    Pipeline,
    ProbeOp,
    SortSink,
    StreamOp,
)

__all__ = [
    "lower", "plan_cache_key", "plan_environment", "PARTITION_THRESHOLD_ROWS"
]

#: Hash tables expected to stay this small probe fine unpartitioned.
PARTITION_THRESHOLD_ROWS = 50_000


def plan_environment(
    database: Database,
    device_name: str,
    partitioned_joins: bool = False,
    num_partitions: int = 16,
    adaptive_fact: bool = False,
) -> str:
    """Everything besides the query that plan and segment keys read.

    The database's contents (a digest of
    :attr:`~repro.relational.Database.fingerprint`: table names, row
    counts and byte sizes stand in for the statistics the optimizer
    reads), the device *name*, and the engine-level plan knobs.  No
    device field shapes a plan or a segment's rows, so a same-named
    variant — a serving round member at a reduced ``concurrency`` — shares
    the entries of its device.  :attr:`repro.core.EngineBase.plan_env`
    is this value for one engine.
    """
    return "/".join(
        (
            hashlib.sha1(database.fingerprint).hexdigest(),
            device_name,
            f"pj={int(partitioned_joins)}",
            f"np={num_partitions}",
            f"af={int(adaptive_fact)}",
        )
    )


def plan_cache_key(spec: QuerySpec, env: str) -> str:
    """Cache key for a lowered physical plan.

    A plan is reusable exactly when every input to optimization and
    lowering is unchanged: the query's declarative shape
    (:attr:`~repro.plans.logical.QuerySpec.fingerprint`) and its
    environment ``env`` (:func:`plan_environment`).  Changing any
    component — a different scale factor, a different device, toggling
    partitioned joins — produces a different key, which is how the plan
    cache invalidates.  Both fingerprints are computed once per spec and
    once per database, so a repeated key hashes one short string.
    """
    return f"{spec.fingerprint}/{env}"


def _column_widths(optimized: OptimizedQuery, database: Database) -> Dict[str, int]:
    """Byte width of every column that can appear in the chain."""
    widths: Dict[str, int] = {}
    for ref in optimized.spec.tables:
        schema = database.table(ref.table).schema
        renamed = ref.renamed_schema(schema)
        for column in renamed:
            widths[column.name] = column.dtype.width
    for name, _ in optimized.spec.derived:
        widths.setdefault(name, 8)
    for name, _ in optimized.spec.post_projection:
        widths.setdefault(name, 8)
    for agg in optimized.spec.aggregates:
        widths.setdefault(agg.name, 8)
    return widths


class _ChainElement:
    """One step of the main chain, pre-binding."""

    def __init__(self, kind: str, payload) -> None:
        self.kind = kind  # "filter" | "compute" | "join"
        self.payload = payload


def _peel_epilogue(plan: LogicalPlan):
    """Strip OrderBy / post-Project / GroupAggregate off the root."""
    order_by: Optional[OrderBy] = None
    post_projection: Optional[Project] = None
    aggregate: Optional[GroupAggregate] = None

    node = plan
    if isinstance(node, OrderBy):
        order_by = node
        node = node.child
    if isinstance(node, Project) and isinstance(node.child, GroupAggregate):
        post_projection = node
        node = node.child
    if isinstance(node, GroupAggregate):
        aggregate = node
        node = node.child
    return node, aggregate, post_projection, order_by


def _collect_chain(node: LogicalPlan):
    """Walk the left spine into execution-ordered chain elements."""
    elements: List[_ChainElement] = []
    while True:
        if isinstance(node, Select):
            elements.append(_ChainElement("filter", node.predicate))
            node = node.child
        elif isinstance(node, Project):
            elements.append(_ChainElement("compute", node.outputs))
            node = node.child
        elif isinstance(node, Join):
            elements.append(_ChainElement("join", node))
            node = node.left
        elif isinstance(node, Scan):
            elements.reverse()
            return node.ref, elements
        else:
            raise PlanError(
                f"unexpected node {type(node).__name__} in probe chain"
            )


def _dimension_parts(node: LogicalPlan):
    """Decompose a build-side subplan (Scan + optional Select)."""
    predicate: Optional[Expression] = None
    if isinstance(node, Select):
        predicate = node.predicate
        node = node.child
    if not isinstance(node, Scan):
        raise PlanError(
            "build side must be a base table (optionally filtered); "
            f"got {type(node).__name__} — bushy plans are not supported"
        )
    return node.ref, predicate


def lower(
    optimized: OptimizedQuery,
    database: Database,
    partitioned_joins: bool = False,
    num_partitions: int = 16,
    partition_threshold_rows: int = PARTITION_THRESHOLD_ROWS,
) -> PhysicalPlan:
    """Lower an optimized query to a :class:`PhysicalPlan`.

    With ``partitioned_joins``, joins whose build side is expected to
    exceed ``partition_threshold_rows`` use the partitioned hash join of
    Section 3.2: a non-blocking partition kernel on both sides, a
    partitioned table, and partition-local (cache-resident) probes.
    """
    with maybe_span(
        "plan.lower",
        category="plan",
        query=optimized.spec.name,
        partitioned_joins=partitioned_joins,
    ):
        return _lower(
            optimized,
            database,
            partitioned_joins,
            num_partitions,
            partition_threshold_rows,
        )


def _lower(
    optimized: OptimizedQuery,
    database: Database,
    partitioned_joins: bool,
    num_partitions: int,
    partition_threshold_rows: int,
) -> PhysicalPlan:
    spec = optimized.spec
    widths = _column_widths(optimized, database)
    estimator = optimized.estimator

    chain_root, aggregate, post_projection, order_by = _peel_epilogue(
        optimized.plan
    )
    fact_ref, elements = _collect_chain(chain_root)

    # ---- backward pass: live columns ---------------------------------
    if aggregate is not None:
        needed: Set[str] = set(aggregate.group_keys)
        for agg in aggregate.aggregates:
            if agg.expr is not None:
                needed |= agg.expr.columns()
    else:
        needed = set(widths)  # no aggregation: keep whatever flows

    need_after: List[Set[str]] = [set() for _ in elements]
    need_before: List[Set[str]] = [set() for _ in elements]
    current = set(needed)
    for index in range(len(elements) - 1, -1, -1):
        element = elements[index]
        need_after[index] = set(current)
        if element.kind == "filter":
            current = current | element.payload.columns()
        elif element.kind == "compute":
            out_names = {name for name, _ in element.payload}
            exprs_cols: Set[str] = set()
            for _, expr in element.payload:
                exprs_cols |= expr.columns()
            current = (current - out_names) | exprs_cols
        else:  # join
            join: Join = element.payload
            build_ref, _ = _dimension_parts(join.right)
            build_schema = build_ref.renamed_schema(
                database.table(build_ref.table).schema
            )
            build_cols = set(build_schema.names)
            current = (current - build_cols) | {join.left_key}
        need_before[index] = set(current)

    fact_schema = fact_ref.renamed_schema(database.table(fact_ref.table).schema)
    fact_columns = [name for name in fact_schema.names if name in current]
    missing = current - set(fact_schema.names)
    if missing:
        raise PlanError(
            f"chain start requires columns not in fact table: {sorted(missing)}"
        )

    # ---- forward pass: build pipelines and bind ops -------------------
    pipelines: List[Pipeline] = []
    chain_ops: List[StreamOp] = []
    chain_rows = float(database.num_rows(fact_ref.table))
    build_count = 0

    live = list(fact_columns)  # ordered live columns

    def ordered(names: Set[str], reference: Sequence[str]) -> List[str]:
        return [name for name in reference if name in names]

    for index, element in enumerate(elements):
        out_set = need_after[index]
        if element.kind == "filter":
            op = FilterOp(element.payload)
            sel = estimator.selectivity(element.payload)
            out_cols = ordered(out_set, live)
            op.bind(list(live), out_cols, widths, sel)
            chain_ops.append(op)
            chain_rows *= sel
            live = out_cols
        elif element.kind == "compute":
            out_names = [name for name, _ in element.payload]
            out_cols = ordered(out_set, list(live) + out_names)
            op = ComputeOp(element.payload)
            op.bind(list(live), out_cols, widths, 1.0)
            chain_ops.append(op)
            live = out_cols
        else:
            join: Join = element.payload
            build_ref, build_pred = _dimension_parts(join.right)
            build_schema = build_ref.renamed_schema(
                database.table(build_ref.table).schema
            )
            payload_cols = ordered(
                out_set & set(build_schema.names), build_schema.names
            )
            build_id = f"ht_{build_count}_{build_ref.alias}"
            build_count += 1

            build_rows = float(database.num_rows(build_ref.table))
            build_source_cols = list(
                dict.fromkeys([join.right_key] + payload_cols)
            )
            if build_pred is not None:
                build_source_cols = list(
                    dict.fromkeys(
                        build_source_cols + sorted(build_pred.columns())
                    )
                )
            build_ops: List[StreamOp] = []
            if build_pred is not None:
                op = FilterOp(build_pred)
                sel = estimator.selectivity(build_pred)
                filtered = list(
                    dict.fromkeys([join.right_key] + payload_cols)
                )
                op.bind(build_source_cols, filtered, widths, sel)
                build_ops.append(op)
                build_rows *= sel
            use_partitioned = (
                partitioned_joins and build_rows > partition_threshold_rows
            )
            if use_partitioned:
                sink: BuildSink = PartitionedBuildSink(
                    build_id, join.right_key, payload_cols, num_partitions
                )
            else:
                sink = BuildSink(build_id, join.right_key, payload_cols)
            sink.bind(
                build_ops[-1].out_columns if build_ops else build_source_cols,
                widths,
            )
            pipelines.append(
                Pipeline(
                    pipeline_id=build_id,
                    source_table=build_ref.table,
                    source_intermediate=None,
                    source_columns=tuple(build_source_cols),
                    source_rename=dict(build_ref.rename),
                    ops=build_ops,
                    sink=sink,
                    source_row_width=sum(
                        widths.get(c, 8) for c in build_source_cols
                    ),
                    est_source_rows=float(database.num_rows(build_ref.table)),
                )
            )

            new_rows = estimator.join_cardinality(
                chain_rows, max(build_rows, 1.0), join.left_key, join.right_key
            )
            probe_sel = new_rows / chain_rows if chain_rows > 0 else 0.0
            out_cols = ordered(out_set, list(live) + list(build_schema.names))
            if use_partitioned:
                # Cluster the probe stream so each work-group touches one
                # hash-table partition at a time.
                clusterer = PartitionOp(join.left_key, num_partitions)
                clusterer.bind(list(live), list(live), widths, 1.0)
                chain_ops.append(clusterer)
            op = ProbeOp(
                build_id,
                join.left_key,
                payload_cols,
                partitioned=use_partitioned,
                num_partitions=num_partitions,
            )
            op.bind(list(live), out_cols, widths, probe_sel)
            chain_ops.append(op)
            chain_rows = max(new_rows, 1.0)
            live = out_cols

    # ---- main pipeline sink -------------------------------------------
    if aggregate is not None:
        main_sink: "SinkOp" = AggSink(aggregate.group_keys, aggregate.aggregates)
    else:
        main_sink = CollectSink()
    main_sink.bind(list(live), widths)
    main_id = "main"
    pipelines.append(
        Pipeline(
            pipeline_id=main_id,
            source_table=fact_ref.table,
            source_intermediate=None,
            source_columns=tuple(fact_columns),
            source_rename=dict(fact_ref.rename),
            ops=chain_ops,
            sink=main_sink,
            source_row_width=sum(widths.get(c, 8) for c in fact_columns),
            est_source_rows=float(database.num_rows(fact_ref.table)),
        )
    )

    # ---- epilogue pipelines -------------------------------------------
    output_id = main_id
    output_columns: List[str] = list(live)
    if aggregate is not None:
        output_columns = list(aggregate.group_keys) + [
            agg.name for agg in aggregate.aggregates
        ]

    if (
        post_projection is not None
        or order_by is not None
        or spec.limit is not None
    ):
        epilogue_ops: List[StreamOp] = []
        current_cols = list(output_columns)
        if post_projection is not None:
            out_names = [name for name, _ in post_projection.outputs]
            out_cols = list(dict.fromkeys(current_cols + out_names))
            op = ComputeOp(post_projection.outputs)
            op.bind(current_cols, out_cols, widths, 1.0)
            epilogue_ops.append(op)
            current_cols = out_cols
        if order_by is not None:
            sink: "SinkOp" = SortSink(
                order_by.keys, order_by.descending, limit=spec.limit
            )
        else:
            sink = CollectSink(limit=spec.limit)
        sink.bind(current_cols, widths)
        epilogue_id = "epilogue"
        pipelines.append(
            Pipeline(
                pipeline_id=epilogue_id,
                source_table=None,
                source_intermediate=output_id,
                source_columns=tuple(output_columns),
                source_rename={},
                ops=epilogue_ops,
                sink=sink,
                source_row_width=sum(
                    widths.get(c, 8) for c in output_columns
                ),
                est_source_rows=estimator.group_cardinality(
                    chain_rows,
                    aggregate.group_keys if aggregate is not None else (),
                ),
            )
        )
        output_id = epilogue_id
        output_columns = current_cols

    # The user-visible result: group keys plus post-projection outputs if
    # one exists (Q14's promo_revenue, Q8's mkt_share), else keys + aggs.
    if aggregate is not None:
        if post_projection is not None:
            output_columns = list(aggregate.group_keys) + [
                name for name, _ in post_projection.outputs
            ]
        else:
            output_columns = list(aggregate.group_keys) + [
                agg.name for agg in aggregate.aggregates
            ]

    # Dictionary-encoded output columns keep their decode tables for
    # presentation (e.g. Q5's n_name codes back to nation names).
    dictionaries = {}
    for ref in spec.tables:
        schema = ref.renamed_schema(database.table(ref.table).schema)
        for column in schema:
            if column.dictionary is not None:
                dictionaries[column.name] = column.dictionary
    # Derived columns that are pure renames (Q7's supp_nation = n1_name)
    # inherit the source column's dictionary.
    from ..relational import Col

    for name, expr in spec.derived:
        if isinstance(expr, Col) and expr.name in dictionaries:
            dictionaries[name] = dictionaries[expr.name]
    output_dictionaries = {
        name: dictionaries[name]
        for name in output_columns
        if name in dictionaries
    }

    return PhysicalPlan(
        name=spec.name,
        pipelines=pipelines,
        output_pipeline=output_id,
        output_columns=tuple(output_columns),
        output_dictionaries=output_dictionaries,
    )
