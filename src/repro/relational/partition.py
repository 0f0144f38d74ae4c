"""Deterministic table partitioning for multi-device execution.

The shard layer (:mod:`repro.shard`) splits one logical database into N
per-shard databases: the *partitioned* table (normally the fact table a
query streams) is cut into N disjoint row sets, every other table is
replicated by reference (tables are immutable, so replication is free).

Two schemes, both fully deterministic:

* **hash** — rows go to ``mix64(key) % num_shards`` where ``mix64`` is
  the splitmix64 finalizer.  Equal keys always land on the same shard,
  so hash partitioning on a join key keeps one build-side match group
  per shard; partitioning on a group key keeps whole groups per shard.
  The mix is platform-independent (pure int64 arithmetic), so the same
  table and key give the same assignment on every machine and run.
* **round-robin** — row ``i`` goes to shard ``i % num_shards``.  The
  fallback when no integral key exists; balances perfectly but gives no
  locality guarantee.

:func:`partition_database` returns the per-shard databases plus a
:class:`PartitionMetadata` record (scheme, per-shard row counts, skew)
that the scatter-gather executor surfaces on its shard report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.store import BoundedStore
from ..errors import SchemaError
from .database import Database
from .table import Table

__all__ = [
    "PartitionCache",
    "PartitionMetadata",
    "hash_shard_assignment",
    "round_robin_assignment",
    "partition_table",
    "partition_database",
]


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer over an int64 array (vectorized).

    A strong deterministic mixer: consecutive key ranges (orderkeys,
    dictionary codes) spread uniformly instead of striping.
    """
    with np.errstate(over="ignore"):
        z = values.astype(np.uint64, copy=True)
        z += np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return z


def hash_shard_assignment(keys: np.ndarray, num_shards: int) -> np.ndarray:
    """Shard index per row: ``mix64(key) % num_shards``.

    ``keys`` must be integral (or boolean); callers fall back to
    :func:`round_robin_assignment` otherwise.
    """
    if num_shards < 1:
        raise SchemaError("num_shards must be at least 1")
    if not (
        np.issubdtype(keys.dtype, np.integer) or keys.dtype == np.bool_
    ):
        raise SchemaError(
            f"hash partitioning needs an integral key column, got "
            f"{keys.dtype}"
        )
    mixed = _splitmix64(keys.astype(np.int64))
    return (mixed % np.uint64(num_shards)).astype(np.int64)


def round_robin_assignment(num_rows: int, num_shards: int) -> np.ndarray:
    """Shard index per row: ``row % num_shards``."""
    if num_shards < 1:
        raise SchemaError("num_shards must be at least 1")
    return np.arange(num_rows, dtype=np.int64) % num_shards


@dataclass(frozen=True)
class PartitionMetadata:
    """How one table was cut into shards (surfaced on shard reports)."""

    table: str
    scheme: str  # "hash" | "round-robin"
    key: Optional[str]  # partitioning column; None for round-robin
    num_shards: int
    shard_rows: Tuple[int, ...]

    @property
    def total_rows(self) -> int:
        return sum(self.shard_rows)

    @property
    def empty_shards(self) -> int:
        return sum(1 for rows in self.shard_rows if rows == 0)

    @property
    def skew(self) -> float:
        """Largest shard over the mean shard (1.0 = perfectly balanced).

        The standard imbalance measure: a skew of N on N shards means
        every row hashed to one shard and sharding buys nothing.
        """
        if self.total_rows == 0 or self.num_shards == 0:
            return 1.0
        mean = self.total_rows / self.num_shards
        return max(self.shard_rows) / mean

    def describe(self) -> str:
        target = f"{self.table}.{self.key}" if self.key else self.table
        return (
            f"{self.scheme}({target}) x{self.num_shards}: "
            f"rows {list(self.shard_rows)}, skew {self.skew:.2f}"
        )


def partition_table(
    table: Table,
    num_shards: int,
    key: Optional[str] = None,
) -> Tuple[List[Table], np.ndarray]:
    """Cut ``table`` into ``num_shards`` disjoint row subsets.

    Hash-partitions on ``key`` when given (the column must be integral);
    round-robins otherwise.  Returns the per-shard tables and the
    per-row shard assignment.  Row order *within* each shard preserves
    the source row order (assignments are applied with boolean masks),
    so two runs produce byte-identical shards.
    """
    if key is not None:
        assignment = hash_shard_assignment(table.column(key), num_shards)
    else:
        assignment = round_robin_assignment(table.num_rows, num_shards)
    shards = [
        table.filter(assignment == shard) for shard in range(num_shards)
    ]
    return shards, assignment


class PartitionCache(BoundedStore):
    """Compute-once LRU memo of partition layouts.

    The sharded executor partitions the same table for every query that
    streams it, so it keys layouts by ``(table, key, pool width,
    database fingerprint)``: replacing a table through
    :meth:`Database.add` changes the key, and the bound retires the
    stale layouts.  Concurrent requesters of one layout compute it once
    (see :meth:`BoundedStore.get_or_compute`) — partitioning is pure, so
    which thread wins never matters.  A pool partitions each fact
    table at a few widths (relocations shrink it), so 16 layouts hold
    the working set.
    """

    def __init__(self) -> None:
        super().__init__(max_entries=16)

    def get_or_compute(
        self, key: Hashable, factory: Callable[[], object]
    ) -> object:
        """The layout under ``key``, partitioning on the first request."""
        return super().get_or_compute(key, factory)


def partition_database(
    database: Database,
    num_shards: int,
    table: str,
    key: Optional[str] = None,
) -> Tuple[List[Database], PartitionMetadata]:
    """Per-shard databases: ``table`` partitioned, everything else shared.

    Each returned :class:`Database` holds shard ``i`` of the partitioned
    table plus every other table *by reference* — tables are immutable,
    so the only per-shard cost is the partitioned table's row subset and
    a fresh (lazily computed) statistics cache.
    """
    source = database.table(table)
    shard_tables, _ = partition_table(source, num_shards, key=key)
    shard_databases: List[Database] = []
    for shard_table in shard_tables:
        shard_db = Database()
        for name in database.names:
            shard_db.add(name, shard_table if name == table else database.table(name))
        shard_databases.append(shard_db)
    metadata = PartitionMetadata(
        table=table,
        scheme="hash" if key is not None else "round-robin",
        key=key,
        num_shards=num_shards,
        shard_rows=tuple(shard.num_rows for shard in shard_tables),
    )
    return shard_databases, metadata
