"""Columnar tables backed by numpy arrays.

A :class:`Table` pairs a :class:`~repro.relational.schema.TableSchema` with
one numpy array per column.  Tables are the unit of data exchanged between
the workload generator, the engines, and the reference executor.  All
operations return *new* tables; the underlying arrays may be shared (numpy
views) because engines never mutate column data in place.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import SchemaError
from .schema import ColumnDef, TableSchema
from .types import DataType

__all__ = ["Table"]


class Table:
    """An immutable-by-convention columnar table."""

    def __init__(self, schema: TableSchema, columns: Mapping[str, np.ndarray]):
        lengths = set()
        data: Dict[str, np.ndarray] = {}
        for column in schema:
            if column.name not in columns:
                raise SchemaError(f"missing data for column {column.name!r}")
            array = np.asarray(columns[column.name], dtype=column.dtype.numpy_dtype)
            if array.ndim != 1:
                raise SchemaError(f"column {column.name!r} must be 1-D")
            data[column.name] = array
            lengths.add(array.shape[0])
        extra = set(columns) - set(schema.names)
        if extra:
            raise SchemaError(f"data for unknown columns: {sorted(extra)}")
        if len(lengths) > 1:
            raise SchemaError(f"ragged columns: lengths {sorted(lengths)}")
        self._schema = schema
        self._data = data
        self._num_rows = lengths.pop() if lengths else 0
        self._nbytes = self._num_rows * schema.row_width

    # -- construction ------------------------------------------------------

    @classmethod
    def empty(cls, schema: TableSchema) -> "Table":
        """A zero-row table with the given schema."""
        return cls(
            schema,
            {c.name: np.empty(0, dtype=c.dtype.numpy_dtype) for c in schema},
        )

    @classmethod
    def from_rows(
        cls, schema: TableSchema, rows: Iterable[Sequence]
    ) -> "Table":
        """Build a table from an iterable of row tuples (testing helper)."""
        transposed = list(zip(*rows))  # one pass over the row iterable
        columns = {}
        for position, column in enumerate(schema):
            values = transposed[position] if transposed else ()
            columns[column.name] = np.asarray(
                values, dtype=column.dtype.numpy_dtype
            )
        return cls(schema, columns)

    # -- basic accessors ---------------------------------------------------

    @property
    def schema(self) -> TableSchema:
        return self._schema

    @property
    def num_rows(self) -> int:
        return self._num_rows

    def __len__(self) -> int:
        return self._num_rows

    @property
    def nbytes(self) -> int:
        """Total payload bytes; the simulator's unit of data volume."""
        return self._nbytes

    def column(self, name: str) -> np.ndarray:
        """The numpy array backing column ``name``."""
        try:
            return self._data[name]
        except KeyError:
            raise SchemaError(f"no column named {name!r}") from None

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name)

    @property
    def columns(self) -> Dict[str, np.ndarray]:
        """Name-to-array mapping (shared, do not mutate)."""
        return dict(self._data)

    # -- relational helpers ------------------------------------------------

    def project(self, names: Sequence[str]) -> "Table":
        """Keep only ``names``, in the given order."""
        schema = self._schema.project(names)
        return Table(schema, {name: self._data[name] for name in names})

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        """Rename columns per ``mapping`` (old name -> new name)."""
        schema = self._schema.rename(dict(mapping))
        data = {
            mapping.get(name, name): array for name, array in self._data.items()
        }
        return Table(schema, data)

    def filter(self, mask: np.ndarray) -> "Table":
        """Rows where boolean ``mask`` is true."""
        if mask.dtype != np.bool_ or mask.shape != (self._num_rows,):
            raise SchemaError("filter mask must be boolean of table length")
        return Table(
            self._schema,
            {name: array[mask] for name, array in self._data.items()},
        )

    def take(self, indices: np.ndarray) -> "Table":
        """Rows at ``indices`` (gather)."""
        return Table(
            self._schema,
            {name: array[indices] for name, array in self._data.items()},
        )

    def slice(self, start: int, stop: int) -> "Table":
        """Rows in ``[start, stop)`` as numpy views (zero copy)."""
        return Table(
            self._schema,
            {name: array[start:stop] for name, array in self._data.items()},
        )

    def with_column(self, column: ColumnDef, values: np.ndarray) -> "Table":
        """A new table with one extra column appended."""
        schema = TableSchema(self._schema.columns + (column,))
        data = dict(self._data)
        data[column.name] = values
        return Table(schema, data)

    def concat_rows(self, other: "Table") -> "Table":
        """Vertical concatenation; schemas must match exactly."""
        if other.schema.names != self._schema.names:
            raise SchemaError("concat_rows requires identical schemas")
        data = {
            name: np.concatenate([self._data[name], other.column(name)])
            for name in self._schema.names
        }
        return Table(self._schema, data)

    @classmethod
    def concat_all(cls, tables: Sequence["Table"]) -> "Table":
        """Concatenate many same-schema tables efficiently."""
        if not tables:
            raise SchemaError("concat_all requires at least one table")
        schema = tables[0].schema
        for table in tables[1:]:
            if table.schema.names != schema.names:
                raise SchemaError("concat_all requires identical schemas")
        data = {
            name: np.concatenate([table.column(name) for table in tables])
            for name in schema.names
        }
        return cls(schema, data)

    def sort_by(
        self, keys: Sequence[str], descending: Sequence[bool] = ()
    ) -> "Table":
        """Stable multi-key sort.  ``descending[i]`` flips key ``keys[i]``."""
        if not keys:
            return self
        desc = list(descending) + [False] * (len(keys) - len(descending))
        order = np.arange(self._num_rows)
        # numpy lexsort sorts by the *last* key first; apply keys in reverse.
        for key, is_desc in reversed(list(zip(keys, desc))):
            values = self._data[key][order]
            perm = np.argsort(values, kind="stable")
            if is_desc:
                perm = perm[::-1]
                # keep stability under reversal: reverse equal runs back
                rev_values = values[perm]
                boundaries = np.flatnonzero(rev_values[1:] != rev_values[:-1])
                starts = np.concatenate([[0], boundaries + 1])
                ends = np.concatenate([boundaries + 1, [len(perm)]])
                fixed = np.empty_like(perm)
                for s, e in zip(starts, ends):
                    fixed[s:e] = perm[s:e][::-1]
                perm = fixed
            order = order[perm]
        return self.take(order)

    def to_rows(self) -> List[Tuple]:
        """Materialize as a list of row tuples (testing / presentation)."""
        arrays = [self._data[name] for name in self._schema.names]
        return [tuple(values) for values in zip(*arrays)] if arrays else []

    def decoded_rows(self) -> List[Tuple]:
        """Rows with DICT codes decoded back to strings."""
        rows = []
        columns = list(self._schema)
        raw = self.to_rows()
        for row in raw:
            decoded = []
            for column, value in zip(columns, row):
                if column.dtype is DataType.DICT and column.dictionary:
                    decoded.append(column.decode(int(value)))
                else:
                    decoded.append(value)
            rows.append(tuple(decoded))
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Table({self._num_rows} rows, "
            f"columns={list(self._schema.names)!r})"
        )
