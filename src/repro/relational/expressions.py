"""Expression trees evaluated over columnar data.

Expressions serve three consumers:

* engines evaluate them vectorized over numpy columns (``evaluate``);
* the physical planner derives per-tuple *compute instruction counts* from
  them (``instruction_count``), which feed the GPU kernel cost model
  (paper Eq. 4 uses ``c_inst_Ki`` from program analysis);
* the statistics module inspects referenced columns (``columns``).

The grammar covers everything TPC-H Q5/Q7/Q8/Q9/Q14 need: column
references, literals, arithmetic, comparisons, boolean connectives,
``BETWEEN``-style range predicates, ``IN``-lists, and ``CASE WHEN``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Mapping, Sequence, Tuple, Union

import numpy as np

from ..errors import ExpressionError

__all__ = [
    "Expression",
    "Col",
    "Lit",
    "Arith",
    "Compare",
    "And",
    "Or",
    "Not",
    "InList",
    "CaseWhen",
    "YearOf",
    "col",
    "lit",
]

ArrayMap = Mapping[str, np.ndarray]

_ARITH_OPS: Dict[str, Callable] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}

_COMPARE_OPS: Dict[str, Callable] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

# Rough per-tuple instruction weights used by program analysis.  Division is
# micro-coded on GCN-class hardware and substantially more expensive than
# add/multiply; comparisons and boolean ops are single VALU instructions.
_ARITH_COST = {"+": 4, "-": 4, "*": 4, "/": 32}
_COMPARE_COST = 4
_BOOL_COST = 2
_SELECT_COST = 8  # CASE WHEN lowers to a compare + conditional move


class Expression:
    """Base class for all expression nodes."""

    def evaluate(self, data: ArrayMap) -> np.ndarray:
        """Vectorized evaluation against a name -> array mapping."""
        raise NotImplementedError

    def columns(self) -> FrozenSet[str]:
        """Names of all columns referenced anywhere in the tree."""
        raise NotImplementedError

    def instruction_count(self) -> int:
        """Approximate per-tuple VALU instructions to evaluate this tree."""
        raise NotImplementedError

    def memory_reads(self) -> int:
        """Distinct column loads needed per tuple (memory instructions)."""
        return len(self.columns())

    # -- operator sugar ------------------------------------------------

    def __add__(self, other: "ExpressionLike") -> "Arith":
        return Arith("+", self, _wrap(other))

    def __sub__(self, other: "ExpressionLike") -> "Arith":
        return Arith("-", self, _wrap(other))

    def __mul__(self, other: "ExpressionLike") -> "Arith":
        return Arith("*", self, _wrap(other))

    def __truediv__(self, other: "ExpressionLike") -> "Arith":
        return Arith("/", self, _wrap(other))

    def __radd__(self, other: "ExpressionLike") -> "Arith":
        return Arith("+", _wrap(other), self)

    def __rsub__(self, other: "ExpressionLike") -> "Arith":
        return Arith("-", _wrap(other), self)

    def __rmul__(self, other: "ExpressionLike") -> "Arith":
        return Arith("*", _wrap(other), self)

    def eq(self, other: "ExpressionLike") -> "Compare":
        return Compare("==", self, _wrap(other))

    def ne(self, other: "ExpressionLike") -> "Compare":
        return Compare("!=", self, _wrap(other))

    def lt(self, other: "ExpressionLike") -> "Compare":
        return Compare("<", self, _wrap(other))

    def le(self, other: "ExpressionLike") -> "Compare":
        return Compare("<=", self, _wrap(other))

    def gt(self, other: "ExpressionLike") -> "Compare":
        return Compare(">", self, _wrap(other))

    def ge(self, other: "ExpressionLike") -> "Compare":
        return Compare(">=", self, _wrap(other))

    def between(self, low: "ExpressionLike", high: "ExpressionLike") -> "And":
        """Inclusive range predicate ``low <= self <= high``."""
        return And(self.ge(low), self.le(high))

    def isin(self, values: Sequence) -> "InList":
        return InList(self, tuple(values))

    def __and__(self, other: "Expression") -> "And":
        return And(self, other)

    def __or__(self, other: "Expression") -> "Or":
        return Or(self, other)

    def __invert__(self) -> "Not":
        return Not(self)


ExpressionLike = Union[Expression, int, float]


def _wrap(value: ExpressionLike) -> Expression:
    if isinstance(value, Expression):
        return value
    if isinstance(value, (int, float, np.integer, np.floating)):
        return Lit(value)
    raise ExpressionError(f"cannot use {value!r} as an expression")


@dataclass(frozen=True)
class Col(Expression):
    """Reference to a column by name."""

    name: str

    def evaluate(self, data: ArrayMap) -> np.ndarray:
        try:
            return data[self.name]
        except KeyError:
            raise ExpressionError(f"column {self.name!r} not in input") from None

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def instruction_count(self) -> int:
        return 0


@dataclass(frozen=True)
class Lit(Expression):
    """A scalar literal."""

    value: Union[int, float]

    def evaluate(self, data: ArrayMap) -> np.ndarray:
        return np.asarray(self.value)

    def columns(self) -> FrozenSet[str]:
        return frozenset()

    def instruction_count(self) -> int:
        return 0


@dataclass(frozen=True)
class Arith(Expression):
    """Binary arithmetic: ``+``, ``-``, ``*``, ``/``."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _ARITH_OPS:
            raise ExpressionError(f"unknown arithmetic operator {self.op!r}")

    def evaluate(self, data: ArrayMap) -> np.ndarray:
        left = self.left.evaluate(data)
        right = self.right.evaluate(data)
        if self.op == "/" and _division_needs_cast(left, right):
            left = np.asarray(left, dtype=np.float64)
        return _ARITH_OPS[self.op](left, right)

    def columns(self) -> FrozenSet[str]:
        return self.left.columns() | self.right.columns()

    def instruction_count(self) -> int:
        return (
            self.left.instruction_count()
            + self.right.instruction_count()
            + _ARITH_COST[self.op]
        )


def _division_needs_cast(left: np.ndarray, right: np.ndarray) -> bool:
    """Whether ``/`` must widen ``left`` to float64 to keep its contract.

    Division always produces float64 values.  ``np.true_divide`` on
    integer (or boolean) operands already computes in — and returns —
    float64, so casting first would only allocate a same-valued copy of
    the whole column.  Only an *inexact* narrower result type (e.g.
    float32 operands, where true_divide would stay float32) needs the
    explicit widening.
    """
    result = np.result_type(left, right)
    return result != np.float64 and np.issubdtype(result, np.inexact)


@dataclass(frozen=True)
class Compare(Expression):
    """Binary comparison producing a boolean mask."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _COMPARE_OPS:
            raise ExpressionError(f"unknown comparison operator {self.op!r}")

    def evaluate(self, data: ArrayMap) -> np.ndarray:
        return _COMPARE_OPS[self.op](
            self.left.evaluate(data), self.right.evaluate(data)
        )

    def columns(self) -> FrozenSet[str]:
        return self.left.columns() | self.right.columns()

    def instruction_count(self) -> int:
        return (
            self.left.instruction_count()
            + self.right.instruction_count()
            + _COMPARE_COST
        )


@dataclass(frozen=True)
class And(Expression):
    """Boolean conjunction."""

    left: Expression
    right: Expression

    def evaluate(self, data: ArrayMap) -> np.ndarray:
        return np.logical_and(
            self.left.evaluate(data), self.right.evaluate(data)
        )

    def columns(self) -> FrozenSet[str]:
        return self.left.columns() | self.right.columns()

    def instruction_count(self) -> int:
        return (
            self.left.instruction_count()
            + self.right.instruction_count()
            + _BOOL_COST
        )


@dataclass(frozen=True)
class Or(Expression):
    """Boolean disjunction."""

    left: Expression
    right: Expression

    def evaluate(self, data: ArrayMap) -> np.ndarray:
        return np.logical_or(
            self.left.evaluate(data), self.right.evaluate(data)
        )

    def columns(self) -> FrozenSet[str]:
        return self.left.columns() | self.right.columns()

    def instruction_count(self) -> int:
        return (
            self.left.instruction_count()
            + self.right.instruction_count()
            + _BOOL_COST
        )


@dataclass(frozen=True)
class Not(Expression):
    """Boolean negation."""

    operand: Expression

    def evaluate(self, data: ArrayMap) -> np.ndarray:
        return np.logical_not(self.operand.evaluate(data))

    def columns(self) -> FrozenSet[str]:
        return self.operand.columns()

    def instruction_count(self) -> int:
        return self.operand.instruction_count() + _BOOL_COST


@dataclass(frozen=True)
class InList(Expression):
    """Membership test against a small literal list."""

    operand: Expression
    values: Tuple

    def evaluate(self, data: ArrayMap) -> np.ndarray:
        operand = self.operand.evaluate(data)
        return np.isin(operand, np.asarray(self.values))

    def columns(self) -> FrozenSet[str]:
        return self.operand.columns()

    def instruction_count(self) -> int:
        return self.operand.instruction_count() + _COMPARE_COST * max(
            1, len(self.values)
        )


@dataclass(frozen=True)
class CaseWhen(Expression):
    """``CASE WHEN cond THEN a ELSE b END`` (Q8's market-share numerator)."""

    condition: Expression
    then: Expression
    otherwise: Expression

    def evaluate(self, data: ArrayMap) -> np.ndarray:
        condition = self.condition.evaluate(data)
        # Both branches are evaluated eagerly over every row, so a guard
        # like ``count > 0 ? sum / count : 0`` still divides 0 by 0 on
        # the rows it then discards; those lanes never reach the result.
        with np.errstate(divide="ignore", invalid="ignore"):
            then = self.then.evaluate(data)
            otherwise = self.otherwise.evaluate(data)
        return np.where(condition, then, otherwise)

    def columns(self) -> FrozenSet[str]:
        return (
            self.condition.columns()
            | self.then.columns()
            | self.otherwise.columns()
        )

    def instruction_count(self) -> int:
        return (
            self.condition.instruction_count()
            + self.then.instruction_count()
            + self.otherwise.instruction_count()
            + _SELECT_COST
        )


@dataclass(frozen=True)
class YearOf(Expression):
    """Extract the calendar year from a DATE column (epoch days).

    Implements SQL's ``extract(year from ...)`` used by Q7/Q8/Q9.  The
    conversion is exact (numpy datetime64 calendar), not an approximation.
    """

    operand: Expression

    def evaluate(self, data: ArrayMap) -> np.ndarray:
        days = np.asarray(self.operand.evaluate(data), dtype=np.int64)
        years = days.astype("datetime64[D]").astype("datetime64[Y]")
        return years.astype(np.int64) + 1970

    def columns(self) -> FrozenSet[str]:
        return self.operand.columns()

    def instruction_count(self) -> int:
        # Division plus calendar correction; comparable to one division.
        return self.operand.instruction_count() + _ARITH_COST["/"]


def col(name: str) -> Col:
    """Shorthand constructor for a column reference."""
    return Col(name)


def lit(value: Union[int, float]) -> Lit:
    """Shorthand constructor for a literal."""
    return Lit(value)
