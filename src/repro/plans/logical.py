"""Logical query representation.

Two levels live here:

* :class:`QuerySpec` — the declarative form of a query: aliased tables with
  local filters, an equi-join graph, derived columns, grouping/aggregation,
  a post-aggregation projection, and an ordering.  The five TPC-H queries
  of the paper are expressed as specs (:mod:`repro.tpch.queries`).

* the logical plan tree (:class:`Scan`, :class:`Select`, :class:`Join`, …)
  that the Selinger-style optimizer produces from a spec.  The tree is the
  paper's ``T``; traversing it post-order yields the operator sequence
  ``O`` that physical lowering turns into kernels.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import PlanError
from ..relational import Expression, TableSchema

__all__ = [
    "AggSpec",
    "FrozenDict",
    "JoinEdge",
    "TableRef",
    "QuerySpec",
    "LogicalPlan",
    "Scan",
    "Select",
    "Project",
    "Join",
    "GroupAggregate",
    "OrderBy",
]

AGG_FUNCS = ("sum", "count", "avg", "min", "max")


class FrozenDict(dict):
    """A ``dict`` that refuses in-place mutation.

    The mapping fields of :class:`TableRef` and :class:`QuerySpec` are
    stored as one, so a spec really is immutable: its fingerprint (and
    every plan / result / segment key built from it) is computed once
    and can never go stale.  Subclassing ``dict`` keeps ``repr``,
    equality and iteration those of a plain dict, so fingerprints are
    byte-identical to the dict they replace (``types.MappingProxyType``
    would change the ``repr``).  Every mutator raises ``TypeError``.
    """

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        # pickle / deepcopy rebuild from a plain dict: the default dict
        # protocol would refill the new object through ``__setitem__``.
        return (type(self), (dict(self),))


def _frozen(mapping: Mapping) -> FrozenDict:
    return mapping if isinstance(mapping, FrozenDict) else FrozenDict(mapping)


@dataclass(frozen=True)
class AggSpec:
    """One aggregate: ``func(expr) AS name``."""

    name: str
    func: str
    expr: Optional[Expression] = None  # None only for count(*)

    def __post_init__(self) -> None:
        if self.func not in AGG_FUNCS:
            raise PlanError(f"unknown aggregate function {self.func!r}")
        if self.expr is None and self.func != "count":
            raise PlanError(f"aggregate {self.func!r} requires an expression")


@dataclass(frozen=True)
class JoinEdge:
    """Equi-join predicate ``left_alias.left_col = right_alias.right_col``.

    Column names are post-rename names (see :class:`TableRef`).
    """

    left_alias: str
    left_col: str
    right_alias: str
    right_col: str

    def touches(self, alias: str) -> bool:
        return alias in (self.left_alias, self.right_alias)

    def other(self, alias: str) -> str:
        if alias == self.left_alias:
            return self.right_alias
        if alias == self.right_alias:
            return self.left_alias
        raise PlanError(f"edge does not touch alias {alias!r}")

    def key_for(self, alias: str) -> str:
        if alias == self.left_alias:
            return self.left_col
        if alias == self.right_alias:
            return self.right_col
        raise PlanError(f"edge does not touch alias {alias!r}")


@dataclass(frozen=True)
class TableRef:
    """An aliased base table, with optional column renames.

    Renames let a table appear twice in a query (Q7/Q8 join ``nation``
    as ``n1`` and ``n2``) without column-name collisions.
    """

    table: str
    alias: str
    rename: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rename", _frozen(self.rename))

    def renamed_schema(self, schema: TableSchema) -> TableSchema:
        return schema.rename(dict(self.rename))


@dataclass(frozen=True)
class QuerySpec:
    """Declarative query description consumed by the optimizer.

    ``residual_filters`` are predicates spanning multiple tables that are
    not equi-joins (Q5's ``c_nationkey = s_nationkey`` pattern and Q7's
    cross-nation disjunction); they are applied as soon as all referenced
    columns are available in the probe chain.

    A spec is immutable all the way down: every nested value is a frozen
    dataclass, a tuple or a :class:`FrozenDict`, so :attr:`fingerprint`
    is computed on first use and kept.
    """

    name: str
    tables: Tuple[TableRef, ...]
    join_edges: Tuple[JoinEdge, ...]
    fact: str  # alias of the chain-driving (largest / streamed) table
    filters: Mapping[str, Expression] = field(default_factory=dict)
    residual_filters: Tuple[Expression, ...] = ()
    derived: Tuple[Tuple[str, Expression], ...] = ()
    group_keys: Tuple[str, ...] = ()
    aggregates: Tuple[AggSpec, ...] = ()
    post_projection: Tuple[Tuple[str, Expression], ...] = ()
    order_by: Tuple[str, ...] = ()
    order_desc: Tuple[bool, ...] = ()
    #: SELECT DISTINCT over these columns (mutually exclusive with
    #: aggregates; lowers to a keys-only hash aggregation).
    distinct: Tuple[str, ...] = ()
    #: Keep only the first N result rows (after ordering).
    limit: Optional[int] = None
    #: Cooperative-cancellation deadline in simulated device cycles,
    #: cumulative across resilient retries; ``None`` means no deadline.
    #: Deliberately excluded from :attr:`fingerprint` — the plan shape
    #: does not depend on it, so queries with different deadlines still
    #: share plan-cache entries.
    deadline_cycles: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "filters", _frozen(self.filters))
        aliases = [ref.alias for ref in self.tables]
        if len(set(aliases)) != len(aliases):
            raise PlanError(f"duplicate table aliases in {self.name}")
        if self.fact not in aliases:
            raise PlanError(f"fact alias {self.fact!r} not among tables")
        for edge in self.join_edges:
            for alias in (edge.left_alias, edge.right_alias):
                if alias not in aliases:
                    raise PlanError(f"join edge references unknown {alias!r}")
        for alias in self.filters:
            if alias not in aliases:
                raise PlanError(f"filter references unknown alias {alias!r}")
        if self.distinct and self.aggregates:
            raise PlanError(
                "DISTINCT and aggregates are mutually exclusive; use "
                "group_keys for grouped aggregation"
            )
        if self.limit is not None and self.limit < 1:
            raise PlanError("limit must be a positive row count")
        if self.deadline_cycles is not None and self.deadline_cycles <= 0:
            raise PlanError("deadline_cycles must be positive when set")

    def table_ref(self, alias: str) -> TableRef:
        for ref in self.tables:
            if ref.alias == alias:
                return ref
        raise PlanError(f"no table aliased {alias!r}")

    @property
    def num_joins(self) -> int:
        return len(self.join_edges)

    @cached_property
    def fingerprint(self) -> str:
        """Deterministic digest of the query's declarative form.

        ``repr`` of the fields is a complete, canonical serialization of
        the query's *shape* (see the class docstring), hashed once per
        spec: ``dataclasses.replace`` makes a new spec with no digest.
        The digest is the query component of a plan cache key
        (:func:`repro.plans.lowering.plan_cache_key`): two specs with the
        same fingerprint optimize and lower identically against the same
        database.
        """
        payload = repr(
            (
                self.name,
                self.tables,
                self.join_edges,
                self.fact,
                sorted(self.filters.items()),
                self.residual_filters,
                self.derived,
                self.group_keys,
                self.aggregates,
                self.post_projection,
                self.order_by,
                self.order_desc,
                self.distinct,
                self.limit,
            )
        )
        return hashlib.sha1(payload.encode()).hexdigest()


# ---------------------------------------------------------------------------
# logical plan tree
# ---------------------------------------------------------------------------


class LogicalPlan:
    """Base class of logical plan nodes."""

    def children(self) -> Sequence["LogicalPlan"]:
        raise NotImplementedError

    def post_order(self) -> List["LogicalPlan"]:
        """Operators with every child before its parent (the paper's O)."""
        nodes: List[LogicalPlan] = []

        def visit(node: LogicalPlan) -> None:
            for child in node.children():
                visit(child)
            nodes.append(node)

        visit(self)
        return nodes

    def describe(self, indent: int = 0) -> str:
        """Human-readable plan tree."""
        line = " " * indent + self._label()
        parts = [line]
        for child in self.children():
            parts.append(child.describe(indent + 2))
        return "\n".join(parts)

    def _label(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class Scan(LogicalPlan):
    """Leaf: scan one aliased base table."""

    ref: TableRef

    def children(self) -> Sequence[LogicalPlan]:
        return ()

    def _label(self) -> str:
        if self.ref.alias != self.ref.table:
            return f"Scan({self.ref.table} AS {self.ref.alias})"
        return f"Scan({self.ref.table})"


@dataclass(frozen=True)
class Select(LogicalPlan):
    """Filter rows by a predicate."""

    child: LogicalPlan
    predicate: Expression

    def children(self) -> Sequence[LogicalPlan]:
        return (self.child,)

    def _label(self) -> str:
        return f"Select({self.predicate!r})"


@dataclass(frozen=True)
class Project(LogicalPlan):
    """Compute named output expressions (also used for derived columns)."""

    child: LogicalPlan
    outputs: Tuple[Tuple[str, Expression], ...]
    keep_input: bool = False  # append outputs instead of replacing columns

    def children(self) -> Sequence[LogicalPlan]:
        return (self.child,)

    def _label(self) -> str:
        names = ", ".join(name for name, _ in self.outputs)
        return f"Project({names})"


@dataclass(frozen=True)
class Join(LogicalPlan):
    """Hash equi-join; ``right`` is the build side (a dimension table)."""

    left: LogicalPlan
    right: LogicalPlan
    left_key: str
    right_key: str

    def children(self) -> Sequence[LogicalPlan]:
        return (self.left, self.right)

    def _label(self) -> str:
        return f"Join({self.left_key} = {self.right_key})"


@dataclass(frozen=True)
class GroupAggregate(LogicalPlan):
    """Hash aggregation with optional grouping keys."""

    child: LogicalPlan
    group_keys: Tuple[str, ...]
    aggregates: Tuple[AggSpec, ...]

    def children(self) -> Sequence[LogicalPlan]:
        return (self.child,)

    def _label(self) -> str:
        keys = ", ".join(self.group_keys) or "<global>"
        aggs = ", ".join(f"{a.func}->{a.name}" for a in self.aggregates)
        return f"GroupAggregate(keys=[{keys}], aggs=[{aggs}])"


@dataclass(frozen=True)
class OrderBy(LogicalPlan):
    """Sort the (usually small) final result."""

    child: LogicalPlan
    keys: Tuple[str, ...]
    descending: Tuple[bool, ...] = ()

    def children(self) -> Sequence[LogicalPlan]:
        return (self.child,)

    def _label(self) -> str:
        return f"OrderBy({', '.join(self.keys)})"
