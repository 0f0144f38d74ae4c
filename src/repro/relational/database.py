"""The database: a catalog of named tables plus per-column statistics.

Statistics power the Selinger-style optimizer (paper Section 3.1) and the
cost model's data-reduction ratios ``lambda_Ki`` (paper Table 2 — the ratio
of intermediate data produced by a kernel to the tile size, "obtained from
the database query optimizer").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional

import numpy as np

from ..errors import SchemaError
from .table import Table

__all__ = ["ColumnStats", "Database"]

#: Widest presence bitmap the exact distinct counter will allocate
#: (64 MiB of bools); wider integer ranges fall back to ``np.unique``.
_DISTINCT_BITMAP_LIMIT = 1 << 26


def _distinct_count(array: np.ndarray, minimum, maximum) -> int:
    """Exact distinct count, avoiding the ``np.unique`` sort/hash when a
    presence bitmap over the value range is cheaper (integer keys with
    bounded range — every catalogue fact/dimension key qualifies).
    """
    if np.issubdtype(array.dtype, np.integer) or array.dtype == np.bool_:
        span = int(maximum) - int(minimum) + 1
        if span <= max(65536, 4 * array.size) and span <= _DISTINCT_BITMAP_LIMIT:
            seen = np.zeros(span, dtype=bool)
            seen[array.astype(np.int64) - int(minimum)] = True
            return int(np.count_nonzero(seen))
    return int(np.unique(array).size)


@dataclass(frozen=True)
class ColumnStats:
    """Min/max/distinct-count summary of one column."""

    minimum: float
    maximum: float
    distinct: int
    count: int

    @classmethod
    def from_array(cls, array: np.ndarray) -> "ColumnStats":
        if array.size == 0:
            return cls(0.0, 0.0, 0, 0)
        minimum = array.min()
        maximum = array.max()
        return cls(
            minimum=float(minimum),
            maximum=float(maximum),
            distinct=_distinct_count(array, minimum, maximum),
            count=int(array.size),
        )

    def range_selectivity(self, low: Optional[float], high: Optional[float]) -> float:
        """Estimated fraction of rows in ``[low, high]`` assuming uniformity."""
        if self.count == 0:
            return 0.0
        span = self.maximum - self.minimum
        if span <= 0:
            return 1.0
        lo = self.minimum if low is None else max(low, self.minimum)
        hi = self.maximum if high is None else min(high, self.maximum)
        if hi < lo:
            return 0.0
        return min(1.0, max(0.0, (hi - lo) / span))

    def equality_selectivity(self) -> float:
        """Estimated fraction of rows matching one value (1 / distinct)."""
        if self.distinct == 0:
            return 0.0
        return 1.0 / self.distinct


class Database:
    """Named tables plus lazily computed column statistics."""

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}
        self._stats: Dict[str, Dict[str, ColumnStats]] = {}
        self._fingerprint: Optional[bytes] = None
        self._replacements = 0

    def add(self, name: str, table: Table) -> None:
        """Register ``table`` under ``name`` (replacing any previous one).

        The only mutation a database has (:class:`Table` methods return
        new tables), so it is also the only thing that resets
        :attr:`fingerprint`; replacing a table also bumps the
        replacement generation the fingerprint carries.
        """
        if name in self._tables:
            self._replacements += 1
        self._tables[name] = table
        self._stats.pop(name, None)
        self._fingerprint = None

    @property
    def fingerprint(self) -> bytes:
        """Canonical description of the contents, computed on first use.

        ``repr`` of ``(name, rows, bytes)`` per table in catalog order:
        row counts and byte sizes stand in for the statistics planning
        reads.  A same-shape replacement keeps them, so the number of
        replacements so far follows them when it is non-zero (a database
        built once fingerprints as before).  Plan, result, segment and
        partition keys all hash it, so replacing a table through
        :meth:`add` invalidates them all.
        """
        if self._fingerprint is None:
            catalog = tuple(
                (name, table.num_rows, table.nbytes)
                for name, table in self._tables.items()
            )
            if self._replacements:
                catalog += (self._replacements,)
            self._fingerprint = repr(catalog).encode()
        return self._fingerprint

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError(f"no table named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[str]:
        return iter(self._tables)

    @property
    def names(self) -> tuple:
        return tuple(self._tables)

    def num_rows(self, name: str) -> int:
        return self.table(name).num_rows

    def total_bytes(self) -> int:
        """Total payload bytes across all tables (the paper's "input size")."""
        return sum(table.nbytes for table in self._tables.values())

    def stats(self, table_name: str, column_name: str) -> ColumnStats:
        """Statistics for one column, computed on first use and cached."""
        per_table = self._stats.setdefault(table_name, {})
        if column_name not in per_table:
            array = self.table(table_name).column(column_name)
            per_table[column_name] = ColumnStats.from_array(array)
        return per_table[column_name]

    def analyze(self) -> None:
        """Eagerly compute statistics for every column of every table."""
        for name, table in self._tables.items():
            for column in table.schema:
                self.stats(name, column.name)
