"""Runtime data structures shared by all engines.

Engines execute physical pipelines over *batches* — plain ``dict[str,
numpy.ndarray]`` column maps — and share three stateful structures:

* :class:`HashTable` — the build side of a hash join.  Implemented over
  key-sorted build rows, probed through a direct-address index when the
  keys are dense integers and by binary search otherwise; either way it
  has hash-join semantics (equi-match, multi-match expansion) with fully
  vectorized numpy probing.  Build is incremental per tile; ``finalize``
  is the blocking barrier the paper requires after hash build.
* :class:`GroupAggState` — streaming hash aggregation state: each batch
  folds into per-group accumulators (GPL's packet-by-packet ``k_reduce*``
  behaviour); ``result`` is the tiny blocking epilogue.
* :class:`ExecutionContext` — named hash tables and materialized
  intermediates produced by earlier pipelines.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ExecutionError
from .logical import AggSpec

__all__ = [
    "Batch",
    "batch_rows",
    "batch_bytes",
    "HashTable",
    "PartitionedHashTable",
    "GroupAggState",
    "ExecutionContext",
]

Batch = Dict[str, np.ndarray]


def batch_rows(batch: Batch) -> int:
    """Row count of a batch (0 for an empty dict)."""
    for array in batch.values():
        return int(array.shape[0])
    return 0


def batch_bytes(batch: Batch) -> int:
    """Total payload bytes of a batch."""
    return int(sum(array.nbytes for array in batch.values()))


def _concat_batches(parts: Sequence[Batch], columns: Sequence[str]) -> Batch:
    if not parts:
        return {name: np.empty(0) for name in columns}
    return {
        name: np.concatenate([part[name] for part in parts])
        for name in columns
    }


#: A build side whose integer key range spans at most this many slots per
#: row — or this many slots outright — is indexed by direct address.
DENSE_SLOTS_PER_ROW = 8
DENSE_MIN_SLOTS = 65_536


def _direct_addressable(keys: np.ndarray) -> bool:
    """Whether ``key - low`` is exact in int64 for this key dtype."""
    return keys.dtype.kind in "iu" and keys.dtype != np.uint64


class HashTable:
    """Incrementally built equi-join index: key -> payload rows.

    ``finalize`` sorts the build side by key.  When the keys are integers
    whose range is within :data:`DENSE_SLOTS_PER_ROW` slots per row (or
    :data:`DENSE_MIN_SLOTS`), it also builds an ``int32`` direct-address
    index over ``[min, max]`` and ``probe`` is a subtract and a gather;
    otherwise ``probe`` binary-searches the sorted keys.  Both return the
    same pairs in the same order.
    """

    def __init__(self, key: str, payload_columns: Sequence[str]):
        self.key = key
        self.payload_columns = tuple(payload_columns)
        self._parts: List[Batch] = []
        self._keys: Optional[np.ndarray] = None
        self._payload: Optional[Batch] = None
        self._unique_keys = False
        # Direct-address index, one slot per key value in [low, low + span)
        # plus one trailing slot every out-of-range probe key maps to.
        # Unique keys: slot -> sorted position, -1 when absent.  Duplicate
        # keys: slot -> start of the key's run (CSR row pointers, so the
        # run length is the next slot's start minus this one's).
        self._index: Optional[np.ndarray] = None
        self._low = 0
        self._span = 0

    @property
    def finalized(self) -> bool:
        return self._keys is not None

    @property
    def unique_keys(self) -> bool:
        """Whether no two build rows share a key (after ``finalize``)."""
        return self._unique_keys

    def insert(self, batch: Batch) -> None:
        """Fold one batch of build-side rows into the table."""
        if self.finalized:
            raise ExecutionError("insert after hash-table finalize")
        needed = (self.key,) + tuple(
            c for c in self.payload_columns if c != self.key
        )
        self._parts.append({name: batch[name] for name in needed})

    def finalize(self) -> None:
        """The blocking barrier: sort keys, index them, freeze the table."""
        columns = (self.key,) + tuple(
            c for c in self.payload_columns if c != self.key
        )
        merged = _concat_batches(self._parts, columns)
        self._parts = []
        order = np.argsort(merged[self.key], kind="stable")
        self._keys = merged[self.key][order]
        self._payload = {
            name: merged[name][order] for name in self.payload_columns
        }
        # The unsorted copies are dead weight while the index is built.
        del merged, order
        # Unique-key tables (the dimension-table common case) probe with
        # a single lookup instead of a start/count pair.
        self._unique_keys = bool(
            self._keys.size <= 1 or np.all(self._keys[1:] != self._keys[:-1])
        )
        self._build_index()

    def _build_index(self) -> None:
        keys = self._keys
        if keys.size == 0 or not _direct_addressable(keys):
            return
        low = int(keys[0])
        span = int(keys[-1]) - low + 1
        if span > max(DENSE_SLOTS_PER_ROW * keys.size, DENSE_MIN_SLOTS):
            return
        slots = keys.astype(np.int64) - low
        if self._unique_keys:
            index = np.full(span + 1, -1, dtype=np.int32)
            index[slots] = np.arange(keys.size, dtype=np.int32)
        else:
            index = np.zeros(span + 2, dtype=np.int32)
            np.cumsum(np.bincount(slots, minlength=span), out=index[1:-1])
            index[-1] = index[-2]
        self._index, self._low, self._span = index, low, span

    @property
    def num_rows(self) -> int:
        if self._keys is None:
            return sum(batch_rows(part) for part in self._parts)
        return int(self._keys.size)

    @property
    def nbytes(self) -> int:
        """Approximate size of the modelled table (keys + payload, never
        the host-side index); the probe's auxiliary working set."""
        if self._keys is None:
            return sum(batch_bytes(part) for part in self._parts)
        return int(
            self._keys.nbytes
            + sum(array.nbytes for array in self._payload.values())
        )

    def probe(self, probe_keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Match ``probe_keys`` against the table.

        Returns ``(probe_idx, build_idx)``: parallel index arrays such that
        ``probe_keys[probe_idx[i]] == keys[build_idx[i]]``, with one entry
        per match (multi-matches expand).
        """
        if self._keys is None:
            raise ExecutionError("probe before hash-table finalize")
        if self._keys.size == 0 or probe_keys.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        if self._index is not None and _direct_addressable(probe_keys):
            left, counts = self._probe_direct(probe_keys)
        else:
            left, counts = self._probe_sorted(probe_keys)
        if counts is None:
            # 0/1 matches per probe key; ``left`` is -1 where there is none.
            probe_idx = np.flatnonzero(left >= 0)
            return probe_idx, left.take(probe_idx).astype(np.int64, copy=False)
        total = int(counts.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        probe_idx = np.repeat(np.arange(probe_keys.size), counts)
        # build_idx: for each match m, left[probe_idx[m]] + offset-in-run.
        offsets = np.arange(total) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        build_idx = np.repeat(left, counts) + offsets
        return probe_idx, build_idx

    def _probe_direct(
        self, probe_keys: np.ndarray
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Run start (and length, for duplicate keys) per probe key."""
        # int64, never the probe column's own width: an int32 key near the
        # limits minus a negative ``low`` must not wrap into the table.
        slots = probe_keys.astype(np.int64, copy=False) - self._low
        if slots.min() < 0 or slots.max() >= self._span:
            slots[(slots < 0) | (slots >= self._span)] = self._span
        left = self._index.take(slots)
        if self._unique_keys:
            return left, None
        return left, self._index[1:].take(slots) - left

    def _probe_sorted(
        self, probe_keys: np.ndarray
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The same by binary search: sparse, float or uint64 keys."""
        left = np.searchsorted(self._keys, probe_keys, side="left")
        if self._unique_keys:
            clipped = np.minimum(left, self._keys.size - 1)
            left[self._keys[clipped] != probe_keys] = -1
            return left, None
        right = np.searchsorted(self._keys, probe_keys, side="right")
        return left, right - left

    def payload_rows(self, build_idx: np.ndarray) -> Batch:
        """Gather payload columns for matched build rows."""
        if self._payload is None:
            raise ExecutionError("payload access before finalize")
        return {
            name: array.take(build_idx)
            for name, array in self._payload.items()
        }


class PartitionedHashTable:
    """A hash table split into key-range partitions (paper Section 3.2:
    "Partitioned hash joins can be implemented similarly, where the
    partition phase also can be implemented in a non-blocking manner").

    Partitioning bounds the *probe working set*: a probe whose input is
    partition-clustered touches one partition's worth of table at a time,
    which keeps the structure cache-resident even when the whole table is
    not — the classic radix-join rationale.
    """

    def __init__(
        self,
        key: str,
        payload_columns: Sequence[str],
        num_partitions: int = 16,
    ):
        if num_partitions < 1:
            raise ExecutionError("need at least one partition")
        self.key = key
        self.payload_columns = tuple(payload_columns)
        self.num_partitions = num_partitions
        self._partitions = [
            HashTable(key, payload_columns) for _ in range(num_partitions)
        ]
        self._finalized = False

    def partition_of(self, keys: np.ndarray) -> np.ndarray:
        """Partition id per key (multiplicative hash on the low bits)."""
        return (
            np.asarray(keys, dtype=np.int64) * np.int64(2654435761)
        ) % self.num_partitions

    @property
    def finalized(self) -> bool:
        return self._finalized

    @property
    def unique_keys(self) -> bool:
        """Equal keys share a partition, so unique per partition is unique."""
        return all(partition.unique_keys for partition in self._partitions)

    def insert(self, batch: Batch) -> None:
        if self._finalized:
            raise ExecutionError("insert after hash-table finalize")
        parts = self.partition_of(batch[self.key])
        for partition in range(self.num_partitions):
            mask = parts == partition
            if not mask.any():
                continue
            self._partitions[partition].insert(
                {name: array[mask] for name, array in batch.items()}
            )

    def finalize(self) -> None:
        for partition in self._partitions:
            partition.finalize()
        self._finalized = True

    @property
    def num_rows(self) -> int:
        return sum(partition.num_rows for partition in self._partitions)

    @property
    def nbytes(self) -> int:
        return sum(partition.nbytes for partition in self._partitions)

    @property
    def probe_working_set(self) -> int:
        """Bytes a partition-clustered probe touches at a time."""
        if not self._finalized:
            return self.nbytes
        return max(
            (partition.nbytes for partition in self._partitions), default=0
        )

    def probe(self, probe_keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Match ``probe_keys``; returns global (probe_idx, partition-local
        build handle) index pairs exactly like :meth:`HashTable.probe`.

        The build indices are encoded as (partition, local) pairs packed
        into one int64 so :meth:`payload_rows` can decode them.
        """
        if not self._finalized:
            raise ExecutionError("probe before hash-table finalize")
        probe_keys = np.asarray(probe_keys)
        parts = self.partition_of(probe_keys)
        probe_chunks: List[np.ndarray] = []
        build_chunks: List[np.ndarray] = []
        for partition in range(self.num_partitions):
            mask = parts == partition
            if not mask.any():
                continue
            local_positions = np.flatnonzero(mask)
            local_probe, local_build = self._partitions[partition].probe(
                probe_keys[mask]
            )
            if local_probe.size == 0:
                continue
            probe_chunks.append(local_positions[local_probe])
            build_chunks.append(
                np.int64(partition) * np.int64(1 << 40) + local_build
            )
        if not probe_chunks:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        probe_idx = np.concatenate(probe_chunks)
        build_idx = np.concatenate(build_chunks)
        order = np.argsort(probe_idx, kind="stable")
        return probe_idx[order], build_idx[order]

    def payload_rows(self, build_idx: np.ndarray) -> Batch:
        partitions = (build_idx >> np.int64(40)).astype(np.int64)
        locals_ = build_idx & np.int64((1 << 40) - 1)
        columns = {
            name: [] for name in self.payload_columns
        }
        order_chunks = []
        position = np.arange(build_idx.size)
        for partition in range(self.num_partitions):
            mask = partitions == partition
            if not mask.any():
                continue
            rows = self._partitions[partition].payload_rows(locals_[mask])
            for name in self.payload_columns:
                columns[name].append(rows[name])
            order_chunks.append(position[mask])
        if not order_chunks:
            return {
                name: np.empty(0) for name in self.payload_columns
            }
        order = np.concatenate(order_chunks)
        inverse = np.empty_like(order)
        inverse[order] = np.arange(order.size)
        return {
            name: np.concatenate(chunks)[inverse]
            for name, chunks in columns.items()
        }


class GroupAggState:
    """Streaming grouped aggregation (handles the global case too).

    The per-tile fold is fully vectorized.  Group keys are *radix-packed*
    into a single int64 code when every key column is integral and the
    combined value ranges fit 63 bits (true for all SSB/TPC-H catalogue
    queries: dictionary codes, years, region keys); one 1-D
    ``np.unique`` over the packed codes factorizes the tile — no
    ``np.unique(..., axis=0)`` row sort, no per-group Python loop.  Wide
    or non-integral keys fall back to a lexsort-based factorization.

    Accumulators live in flat numpy arrays (one slot per group) merged
    by packed code; each tile contributes exactly one addition per group
    in tile order, the same float operation sequence as the historical
    per-group Python fold, so results are bitwise identical.
    """

    def __init__(self, group_keys: Sequence[str], aggregates: Sequence[AggSpec]):
        self.group_keys = tuple(group_keys)
        self.aggregates = tuple(aggregates)
        self._num_groups = 0
        # Flat per-slot state: one array per key column plus one
        # accumulator row per aggregate and the per-group row counts.
        self._key_arrays: List[np.ndarray] = []
        self._acc = np.empty((len(self.aggregates), 0), dtype=np.float64)
        self._count = np.empty(0, dtype=np.int64)
        # Packed-key bookkeeping: per-column bases/bit-widths, and the
        # known codes kept sorted for vectorized code -> slot resolution.
        self._base: Optional[List[int]] = None
        self._bits: Optional[List[int]] = None
        self._codes = np.empty(0, dtype=np.int64)
        self._codes_sorted = np.empty(0, dtype=np.int64)
        self._slots_sorted = np.empty(0, dtype=np.int64)
        # Fallback: key tuple -> slot, used when packing is infeasible.
        self._tuple_slots: Optional[Dict[tuple, int]] = None
        # Global (key-less) aggregation keeps the historical scalar path.
        self._global_acc: Optional[List[float]] = None
        self._global_count = 0

    def _initial_scalar(self) -> List[float]:
        accumulators: List[float] = []
        for agg in self.aggregates:
            if agg.func in ("sum", "avg", "count"):
                accumulators.append(0.0)
            elif agg.func == "min":
                accumulators.append(np.inf)
            else:  # max
                accumulators.append(-np.inf)
        return accumulators

    # -- per-tile fold ---------------------------------------------------

    def update(self, batch: Batch) -> None:
        """Fold one batch into the per-group accumulators."""
        rows = batch_rows(batch)
        if rows == 0:
            return
        values = []
        for agg in self.aggregates:
            if agg.expr is None:
                values.append(np.ones(rows))
            else:
                evaluated = np.asarray(agg.expr.evaluate(batch), dtype=np.float64)
                values.append(np.broadcast_to(evaluated, (rows,)))

        if not self.group_keys:
            if self._global_acc is None:
                self._global_acc = self._initial_scalar()
            self._global_count += rows
            for index, agg in enumerate(self.aggregates):
                column = values[index]
                if agg.func in ("sum", "avg", "count"):
                    self._global_acc[index] += float(column.sum())
                elif agg.func == "min":
                    self._global_acc[index] = min(
                        self._global_acc[index], float(column.min())
                    )
                else:
                    self._global_acc[index] = max(
                        self._global_acc[index], float(column.max())
                    )
            return

        columns = [np.asarray(batch[key]) for key in self.group_keys]
        first_row, inverse, counts = self._factorize(columns)
        num_unique = first_row.size

        folded = []
        for agg, value in zip(self.aggregates, values):
            if agg.func in ("sum", "avg", "count"):
                folded.append(
                    np.bincount(inverse, weights=value, minlength=num_unique)
                )
            elif agg.func == "min":
                out = np.full(num_unique, np.inf)
                np.minimum.at(out, inverse, value)
                folded.append(out)
            else:
                out = np.full(num_unique, -np.inf)
                np.maximum.at(out, inverse, value)
                folded.append(out)

        slots = self._resolve_slots(columns, first_row)
        self._count[slots] += counts
        for index, agg in enumerate(self.aggregates):
            if agg.func in ("sum", "avg", "count"):
                self._acc[index, slots] += folded[index]
            elif agg.func == "min":
                self._acc[index, slots] = np.minimum(
                    self._acc[index, slots], folded[index]
                )
            else:
                self._acc[index, slots] = np.maximum(
                    self._acc[index, slots], folded[index]
                )

    # -- factorization ---------------------------------------------------

    def _factorize(
        self, columns: List[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Distinct key rows of one tile, without ``np.unique(axis=0)``.

        Returns ``(first_row, inverse, counts)``: the row index of each
        distinct group's first occurrence (groups ordered ascending by
        key tuple), the per-row group index, and per-group row counts.
        """
        packed = self._pack_codes(columns)
        if packed is not None:
            _, first_row, inverse, counts = np.unique(
                packed,
                return_index=True,
                return_inverse=True,
                return_counts=True,
            )
            return first_row, inverse, counts
        # Lexsort fallback: order rows by key tuple, then cut group runs
        # at boundaries.  np.lexsort keys run last-to-first.
        order = np.lexsort(tuple(reversed(columns)))
        boundary = np.zeros(order.size, dtype=bool)
        boundary[0] = True
        for column in columns:
            sorted_column = column[order]
            boundary[1:] |= sorted_column[1:] != sorted_column[:-1]
        group_of_sorted = np.cumsum(boundary) - 1
        inverse = np.empty(order.size, dtype=np.int64)
        inverse[order] = group_of_sorted
        starts = np.flatnonzero(boundary)
        first_row = order[starts]
        counts = np.diff(np.append(starts, order.size))
        return first_row, inverse, counts

    def _pack_codes(self, columns: List[np.ndarray]) -> Optional[np.ndarray]:
        """Radix-pack integral key columns into one int64 code per row.

        Bases/widths are established from the first tile and widened
        (with existing groups re-coded) when later tiles step outside
        them; packing keeps the most significant bits on the first key,
        so packed-code order equals key-tuple order.
        """
        if self._tuple_slots is not None:
            return None
        for column in columns:
            if not np.issubdtype(column.dtype, np.integer):
                self._demote_to_tuples()
                return None
        lows = [int(column.min()) for column in columns]
        highs = [int(column.max()) for column in columns]
        if self._base is None:
            base = lows
            spans = [high - low for high, low in zip(highs, lows)]
        else:
            base = [min(b, low) for b, low in zip(self._base, lows)]
            tops = [
                max(b + (1 << bits) - 1, high)
                for b, bits, high in zip(self._base, self._bits, highs)
            ]
            spans = [top - b for top, b in zip(tops, base)]
        bits = [max(1, span.bit_length()) for span in spans]
        if sum(bits) > 63:
            self._demote_to_tuples()
            return None
        if self._base is None or base != self._base or bits != self._bits:
            self._rebase(base, bits)
        return self._encode(columns, slice(None))

    def _encode(self, columns: List[np.ndarray], rows) -> np.ndarray:
        """Packed int64 code of ``columns[rows]`` under current params."""
        codes: Optional[np.ndarray] = None
        shift = 0
        for column, low, field_bits in zip(
            reversed(columns), reversed(self._base), reversed(self._bits)
        ):
            field = (column[rows].astype(np.int64) - low) << shift
            codes = field if codes is None else codes + field
            shift += field_bits
        return codes

    def _rebase(self, base: List[int], bits: List[int]) -> None:
        """Adopt new packing parameters; re-code every known group."""
        self._base, self._bits = base, bits
        n = self._num_groups
        codes = (
            self._encode([keys[:n] for keys in self._key_arrays], slice(None))
            if n
            else np.empty(0, dtype=np.int64)
        )
        self._codes = codes
        order = np.argsort(codes, kind="stable")
        self._codes_sorted = codes[order]
        self._slots_sorted = order.astype(np.int64)

    def _demote_to_tuples(self) -> None:
        """Switch (permanently) to the tuple-keyed slot map."""
        if self._tuple_slots is not None:
            return
        n = self._num_groups
        rows = zip(*(keys[:n].tolist() for keys in self._key_arrays)) if n else ()
        self._tuple_slots = {tuple(row): slot for slot, row in enumerate(rows)}
        self._base = self._bits = None

    # -- slot resolution -------------------------------------------------

    def _grow(self, extra: int, columns: List[np.ndarray]) -> None:
        needed = self._num_groups + extra
        capacity = self._count.size
        if needed <= capacity:
            return
        new_capacity = max(needed, max(16, capacity * 2))
        grown_count = np.zeros(new_capacity, dtype=np.int64)
        grown_count[:capacity] = self._count
        self._count = grown_count
        grown_acc = np.empty((len(self.aggregates), new_capacity))
        for index, agg in enumerate(self.aggregates):
            if agg.func == "min":
                grown_acc[index] = np.inf
            elif agg.func == "max":
                grown_acc[index] = -np.inf
            else:
                grown_acc[index] = 0.0
            grown_acc[index, :capacity] = self._acc[index]
        self._acc = grown_acc
        if not self._key_arrays:
            self._key_arrays = [
                np.empty(new_capacity, dtype=column.dtype)
                for column in columns
            ]
        else:
            self._key_arrays = [
                np.concatenate(
                    [keys, np.empty(new_capacity - keys.size, dtype=keys.dtype)]
                )
                for keys in self._key_arrays
            ]

    def _resolve_slots(
        self, columns: List[np.ndarray], first_row: np.ndarray
    ) -> np.ndarray:
        """Global slot index per tile-distinct group, appending new ones."""
        if self._tuple_slots is not None:
            return self._resolve_slots_tuples(columns, first_row)
        self._promote_key_dtypes(columns)
        codes = self._encode(columns, first_row)
        position = np.searchsorted(self._codes_sorted, codes)
        clipped = np.minimum(position, max(0, self._codes_sorted.size - 1))
        known = (
            (position < self._codes_sorted.size)
            & (self._codes_sorted[clipped] == codes)
            if self._codes_sorted.size
            else np.zeros(codes.size, dtype=bool)
        )
        slots = np.empty(codes.size, dtype=np.int64)
        slots[known] = self._slots_sorted[clipped[known]]
        fresh = np.flatnonzero(~known)
        if fresh.size:
            self._grow(fresh.size, columns)
            start = self._num_groups
            new_slots = np.arange(start, start + fresh.size, dtype=np.int64)
            slots[fresh] = new_slots
            for keys, column in zip(self._key_arrays, columns):
                keys[start : start + fresh.size] = column[first_row[fresh]]
            self._num_groups += fresh.size
            self._codes = np.concatenate([self._codes, codes[fresh]])
            insert_order = np.argsort(
                np.concatenate([self._codes_sorted, codes[fresh]]),
                kind="stable",
            )
            merged = np.concatenate([self._slots_sorted, new_slots])
            all_codes = np.concatenate([self._codes_sorted, codes[fresh]])
            self._codes_sorted = all_codes[insert_order]
            self._slots_sorted = merged[insert_order]
        return slots

    def _promote_key_dtypes(self, columns: List[np.ndarray]) -> None:
        """Widen stored key arrays if a tile brings a wider key dtype."""
        if not self._key_arrays:
            return
        for index, (keys, column) in enumerate(
            zip(self._key_arrays, columns)
        ):
            wanted = np.promote_types(keys.dtype, column.dtype)
            if wanted != keys.dtype:
                self._key_arrays[index] = keys.astype(wanted)

    def _resolve_slots_tuples(
        self, columns: List[np.ndarray], first_row: np.ndarray
    ) -> np.ndarray:
        table = self._tuple_slots
        self._promote_key_dtypes(columns)
        rows = list(
            zip(*(column[first_row].tolist() for column in columns))
        )
        slots = np.empty(len(rows), dtype=np.int64)
        fresh_positions = []
        for position, row in enumerate(rows):
            slot = table.get(row)
            if slot is None:
                fresh_positions.append(position)
            else:
                slots[position] = slot
        if fresh_positions:
            self._grow(len(fresh_positions), columns)
            for position in fresh_positions:
                slot = self._num_groups
                table[rows[position]] = slot
                slots[position] = slot
                for keys, column in zip(self._key_arrays, columns):
                    keys[slot] = column[first_row[position]]
                self._num_groups += 1
        return slots

    # -- finalize --------------------------------------------------------

    @property
    def num_groups(self) -> int:
        if not self.group_keys:
            return 1 if self._global_acc is not None else 0
        return self._num_groups

    def result(self) -> Batch:
        """Finalize: one row per group, keys first, then aggregates."""
        batch: Batch = {}
        if not self.group_keys:
            accumulators = (
                self._global_acc
                if self._global_acc is not None
                else self._initial_scalar()
            )
            if self._global_acc is None:
                # Global aggregate over empty input still yields one row
                # of zero-ish values, matching SQL's sum() -> NULL
                # simplified to 0.
                batch.update(
                    {agg.name: np.zeros(1) for agg in self.aggregates}
                )
                return batch
            for index, agg in enumerate(self.aggregates):
                value = accumulators[index]
                if agg.func == "avg":
                    value = (
                        value / self._global_count if self._global_count else 0.0
                    )
                batch[agg.name] = np.asarray([value], dtype=np.float64)
            return batch

        n = self._num_groups
        if n == 0:
            for key in self.group_keys:
                batch[key] = np.empty(0)
            for agg in self.aggregates:
                batch[agg.name] = np.zeros(0)
            return batch
        keys = [array[:n] for array in self._key_arrays]
        order = np.lexsort(tuple(reversed(keys)))
        for key, array in zip(self.group_keys, keys):
            batch[key] = array[order]
        for index, agg in enumerate(self.aggregates):
            column = self._acc[index, :n][order]
            if agg.func == "avg":
                counts = self._count[:n][order]
                column = np.where(counts > 0, column / np.maximum(counts, 1), 0.0)
            batch[agg.name] = column.astype(np.float64)
        return batch


class ExecutionContext:
    """Named runtime state flowing between pipelines."""

    def __init__(self) -> None:
        self.hash_tables: Dict[str, HashTable] = {}
        self.intermediates: Dict[str, Batch] = {}

    def hash_table(self, build_id: str) -> HashTable:
        try:
            return self.hash_tables[build_id]
        except KeyError:
            raise ExecutionError(
                f"hash table {build_id!r} has not been built yet"
            ) from None

    def intermediate(self, name: str) -> Batch:
        try:
            return self.intermediates[name]
        except KeyError:
            raise ExecutionError(
                f"intermediate {name!r} has not been produced yet"
            ) from None
