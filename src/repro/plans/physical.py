"""Physical pipelines: the executable, kernel-annotated query form.

A :class:`PhysicalPlan` is an ordered list of :class:`Pipeline` objects —
the paper's *segments*.  Each pipeline streams batches from a source
(a base table or an earlier pipeline's materialized output) through
:class:`StreamOp` operators into one :class:`SinkOp`, which is the
blocking operator that ends the segment (hash build barrier, aggregation
epilogue, sort, or final output).

Every operator carries two kinds of kernel expansion:

* ``gpl_kernels()`` — the fine-grained, non-blocking form (paper
  Section 3.2): selection is a single ``k_map``, probe a single
  ``k_probe``, aggregation a streaming ``k_reduce*``;
* ``kbe_kernels()`` — the conventional kernel-based form: selection is
  ``k_map`` + ``k_prefix_sum`` + ``k_scatter``, probe is count/prefix/
  scatter, aggregation materializes per-tuple values then prefix-scans.
  A sink's form is ``kbe_kernels(rows=0)``: ``rows`` is the number of
  tuples that reached it, which only the sort kernel reads (GPL's
  ``gpl_kernels()`` sort is sized at the 2-row floor).  No template
  reads a sink's run state.

Engines execute the *same* functional ``apply``/``consume`` code for both,
so correctness is engine-independent; only kernel accounting differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ExecutionError, PlanError
from ..gpu.kernel import KernelSpec
from ..relational import Expression
from . import kernels as klib
from .logical import AggSpec
from .runtime import (
    Batch,
    ExecutionContext,
    GroupAggState,
    HashTable,
    PartitionedHashTable,
    batch_rows,
)

__all__ = [
    "KernelTemplate",
    "StreamOp",
    "FilterOp",
    "ComputeOp",
    "ProbeOp",
    "PartitionOp",
    "SinkOp",
    "BuildSink",
    "PartitionedBuildSink",
    "AggSink",
    "SortSink",
    "CollectSink",
    "Pipeline",
    "PhysicalPlan",
]


@dataclass(frozen=True)
class KernelTemplate:
    """A kernel spec plus the data-shape metadata engines need to launch it.

    ``aux_build_id`` names a hash table whose size is the kernel's
    auxiliary working set (resolved at run time, when the table exists).
    ``est_selectivity`` is the optimizer's tuple-survival estimate
    (``lambda`` feeds the cost model); engines use *actual* counts when
    simulating.
    """

    spec: KernelSpec
    in_width: int
    out_width: int
    est_selectivity: float = 1.0
    aux_reads_per_tuple: float = 0.0
    aux_build_id: Optional[str] = None
    #: For partitioned probes: the auxiliary working set shrinks to one
    #: partition's worth of the referenced hash table.
    aux_partitions: int = 1


def _width_of(columns: Sequence[str], widths: Dict[str, int]) -> int:
    return sum(widths.get(name, 8) for name in columns)


class StreamOp:
    """A non-terminal pipeline operator (streamable per batch).

    Lowering fills the column/width metadata after building the chain.
    """

    def __init__(self) -> None:
        self.in_columns: Tuple[str, ...] = ()
        self.out_columns: Tuple[str, ...] = ()
        self.in_width: int = 0
        self.out_width: int = 0
        self.est_selectivity: float = 1.0

    def bind(
        self,
        in_columns: Sequence[str],
        out_columns: Sequence[str],
        widths: Dict[str, int],
        est_selectivity: float,
    ) -> None:
        self.in_columns = tuple(in_columns)
        self.out_columns = tuple(out_columns)
        self.in_width = _width_of(in_columns, widths)
        self.out_width = _width_of(out_columns, widths)
        self.est_selectivity = est_selectivity

    def apply(self, batch: Batch, context: ExecutionContext) -> Batch:
        raise NotImplementedError

    def gpl_kernels(self) -> List[KernelTemplate]:
        raise NotImplementedError

    def kbe_kernels(self) -> List[KernelTemplate]:
        raise NotImplementedError


class FilterOp(StreamOp):
    """Row selection by a predicate."""

    def __init__(self, predicate: Expression):
        super().__init__()
        self.predicate = predicate

    def apply(self, batch: Batch, context: ExecutionContext) -> Batch:
        mask = np.asarray(self.predicate.evaluate(batch), dtype=bool)
        if mask.all():
            return {name: batch[name] for name in self.out_columns}
        # Resolve the selection once; every column then takes the same rows.
        selected = np.flatnonzero(mask)
        return {name: batch[name].take(selected) for name in self.out_columns}

    def gpl_kernels(self) -> List[KernelTemplate]:
        # GPL selection: map only; satisfied tuples go to the channel
        # (paper Section 3.2 removes the prefix-sum kernel).  Unlike KBE's
        # flag map, the pipelined map reads *every* carried column — it
        # forwards whole tuples downstream.
        spec = klib.map_kernel([self.predicate], columns_out=0, name="k_map")
        spec = replace(spec, memory_instr=float(len(self.in_columns)))
        return [
            KernelTemplate(
                spec=spec,
                in_width=self.in_width,
                out_width=self.out_width,
                est_selectivity=self.est_selectivity,
            )
        ]

    def kbe_kernels(self) -> List[KernelTemplate]:
        columns = len(self.out_columns)
        return [
            KernelTemplate(
                spec=klib.flag_map_kernel([self.predicate]),
                in_width=self.in_width,
                out_width=4,  # one int32 flag per tuple
                est_selectivity=1.0,
            ),
            KernelTemplate(
                spec=klib.prefix_sum_kernel(),
                in_width=4,
                out_width=4,
                est_selectivity=1.0,
            ),
            KernelTemplate(
                spec=klib.scatter_kernel(columns),
                in_width=self.in_width + 8,  # tuple + flag + offset
                out_width=self.out_width,
                est_selectivity=self.est_selectivity,
            ),
        ]

    def __repr__(self) -> str:
        return f"FilterOp({self.predicate!r})"


class ComputeOp(StreamOp):
    """Evaluate derived columns (projection with computation)."""

    def __init__(self, outputs: Sequence[Tuple[str, Expression]]):
        super().__init__()
        self.outputs = tuple(outputs)

    def apply(self, batch: Batch, context: ExecutionContext) -> Batch:
        rows = batch_rows(batch)
        result: Batch = {}
        computed = {name: expr for name, expr in self.outputs}
        for name in self.out_columns:
            if name in computed:
                value = np.asarray(computed[name].evaluate(batch))
                result[name] = np.broadcast_to(value, (rows,)).copy() if value.ndim == 0 else value
            else:
                result[name] = batch[name]
        return result

    def _spec(self) -> KernelSpec:
        return klib.map_kernel(
            [expr for _, expr in self.outputs],
            columns_out=len(self.outputs),
            name="k_map",
        )

    def gpl_kernels(self) -> List[KernelTemplate]:
        spec = replace(
            self._spec(), memory_instr=float(len(self.in_columns))
        )
        return [
            KernelTemplate(
                spec=spec,
                in_width=self.in_width,
                out_width=self.out_width,
                est_selectivity=1.0,
            )
        ]

    def kbe_kernels(self) -> List[KernelTemplate]:
        return [
            KernelTemplate(
                spec=self._spec(),
                in_width=self.in_width,
                out_width=self.out_width,
                est_selectivity=1.0,
            )
        ]

    def __repr__(self) -> str:
        return f"ComputeOp({[name for name, _ in self.outputs]})"


class PartitionOp(StreamOp):
    """Cluster a stream by radix partition of a key (Section 3.2).

    Functionally a stable reorder (the row multiset is unchanged); its
    effect on execution is locality: the downstream partitioned probe
    touches one hash-table partition at a time.
    """

    def __init__(self, key: str, num_partitions: int):
        super().__init__()
        self.key = key
        self.num_partitions = num_partitions

    def apply(self, batch: Batch, context: ExecutionContext) -> Batch:
        keys = np.asarray(batch[self.key], dtype=np.int64)
        parts = (keys * np.int64(2654435761)) % self.num_partitions
        order = np.argsort(parts, kind="stable")
        return {name: batch[name][order] for name in self.out_columns}

    def gpl_kernels(self) -> List[KernelTemplate]:
        return [
            KernelTemplate(
                spec=klib.partition_kernel(len(self.in_columns)),
                in_width=self.in_width,
                out_width=self.out_width,
                est_selectivity=1.0,
            )
        ]

    def kbe_kernels(self) -> List[KernelTemplate]:
        # KBE partitions with histogram + prefix sum + scatter.
        return [
            KernelTemplate(
                spec=klib.histogram_kernel(),
                in_width=self.in_width,
                out_width=4,
                est_selectivity=1.0,
            ),
            KernelTemplate(
                spec=klib.prefix_sum_kernel(),
                in_width=4,
                out_width=4,
                est_selectivity=1.0,
            ),
            KernelTemplate(
                spec=klib.scatter_kernel(len(self.out_columns)),
                in_width=self.in_width + 8,
                out_width=self.out_width,
                est_selectivity=1.0,
            ),
        ]

    def __repr__(self) -> str:
        return f"PartitionOp({self.key}, P={self.num_partitions})"


class ProbeOp(StreamOp):
    """Probe a previously built hash table; emit matched, widened rows."""

    def __init__(
        self,
        build_id: str,
        probe_key: str,
        payload_columns: Sequence[str],
        partitioned: bool = False,
        num_partitions: int = 1,
    ):
        super().__init__()
        self.build_id = build_id
        self.probe_key = probe_key
        self.payload_columns = tuple(payload_columns)
        self.partitioned = partitioned
        self.num_partitions = num_partitions if partitioned else 1

    def apply(self, batch: Batch, context: ExecutionContext) -> Batch:
        table = context.hash_table(self.build_id)
        probe_idx, build_idx = table.probe(
            np.asarray(batch[self.probe_key])
        )
        payload = table.payload_rows(build_idx)
        # Every probe row matched exactly once: probe_idx is the identity
        # and the probe-side columns pass through ungathered.
        all_matched = (
            probe_idx.size == batch_rows(batch) and table.unique_keys
        )
        result: Batch = {}
        for name in self.out_columns:
            if name in payload:
                result[name] = payload[name]
            elif all_matched:
                result[name] = batch[name]
            else:
                result[name] = batch[name].take(probe_idx)
        return result

    def gpl_kernels(self) -> List[KernelTemplate]:
        # The pipelined probe forwards whole tuples and gathers its
        # payload columns from the hash table in global memory.
        spec = replace(
            klib.probe_kernel(len(self.payload_columns)),
            memory_instr=float(len(self.in_columns)),
        )
        return [
            KernelTemplate(
                spec=spec,
                in_width=self.in_width,
                out_width=self.out_width,
                est_selectivity=self.est_selectivity,
                aux_reads_per_tuple=2.0 + len(self.payload_columns),
                aux_build_id=self.build_id,
                aux_partitions=self.num_partitions,
            )
        ]

    def kbe_kernels(self) -> List[KernelTemplate]:
        return [
            KernelTemplate(
                spec=klib.probe_count_kernel(),
                in_width=self.in_width,
                out_width=4,
                est_selectivity=1.0,
                aux_reads_per_tuple=2.0,
                aux_build_id=self.build_id,
                aux_partitions=self.num_partitions,
            ),
            KernelTemplate(
                spec=klib.prefix_sum_kernel(),
                in_width=4,
                out_width=4,
                est_selectivity=1.0,
            ),
            KernelTemplate(
                spec=klib.probe_scatter_kernel(len(self.out_columns)),
                in_width=self.in_width + 8,
                out_width=self.out_width,
                est_selectivity=self.est_selectivity,
                aux_reads_per_tuple=2.0,
                aux_build_id=self.build_id,
                aux_partitions=self.num_partitions,
            ),
        ]

    def __repr__(self) -> str:
        return f"ProbeOp({self.build_id}, key={self.probe_key})"


class SinkOp:
    """Terminal operator of a pipeline (the segment-ending blocker)."""

    def __init__(self) -> None:
        self.in_columns: Tuple[str, ...] = ()
        self.in_width: int = 0

    def bind(self, in_columns: Sequence[str], widths: Dict[str, int]) -> None:
        self.in_columns = tuple(in_columns)
        self.in_width = _width_of(in_columns, widths)

    def start(self, context: ExecutionContext) -> None:
        """Reset per-execution state."""

    def consume(self, batch: Batch, context: ExecutionContext) -> None:
        raise NotImplementedError

    def finalize(self, context: ExecutionContext) -> Optional[Batch]:
        """Blocking barrier; returns the materialized output, if any.

        Hands the run's state off and drops it, so a cached plan holds
        no data between executions and re-executes like a fresh one.
        """
        raise NotImplementedError

    def gpl_kernels(self) -> List[KernelTemplate]:
        raise NotImplementedError

    def kbe_kernels(self, rows: int = 0) -> List[KernelTemplate]:
        """KBE's kernels for a sink that consumed ``rows`` tuples."""
        raise NotImplementedError


class BuildSink(SinkOp):
    """Build a hash table; the barrier after it ends the segment."""

    def __init__(self, build_id: str, key: str, payload_columns: Sequence[str]):
        super().__init__()
        self.build_id = build_id
        self.key = key
        self.payload_columns = tuple(payload_columns)
        self._table: Optional[HashTable] = None

    def start(self, context: ExecutionContext) -> None:
        self._table = HashTable(self.key, self.payload_columns)

    def consume(self, batch: Batch, context: ExecutionContext) -> None:
        if self._table is None:
            raise ExecutionError("BuildSink.consume before start")
        self._table.insert(batch)

    def finalize(self, context: ExecutionContext) -> Optional[Batch]:
        if self._table is None:
            raise ExecutionError("BuildSink.finalize before start")
        table, self._table = self._table, None
        table.finalize()
        context.hash_tables[self.build_id] = table
        return None

    def _template(self) -> KernelTemplate:
        return KernelTemplate(
            spec=klib.hash_build_kernel(len(self.payload_columns)),
            in_width=self.in_width,
            out_width=self.in_width + 4,  # payload + bucket entry
            est_selectivity=1.0,
        )

    def gpl_kernels(self) -> List[KernelTemplate]:
        return [self._template()]

    def kbe_kernels(self, rows: int = 0) -> List[KernelTemplate]:
        return [self._template()]

    def __repr__(self) -> str:
        return f"BuildSink({self.build_id}, key={self.key})"


class PartitionedBuildSink(BuildSink):
    """Partitioned hash build: a non-blocking partition kernel feeds the
    build kernel (Section 3.2); the finished table is range-clustered so
    partition-local probes stay cache-resident."""

    def __init__(
        self,
        build_id: str,
        key: str,
        payload_columns: Sequence[str],
        num_partitions: int = 16,
    ):
        super().__init__(build_id, key, payload_columns)
        self.num_partitions = num_partitions

    def start(self, context: ExecutionContext) -> None:
        self._table = PartitionedHashTable(
            self.key, self.payload_columns, self.num_partitions
        )

    def gpl_kernels(self) -> List[KernelTemplate]:
        partition = KernelTemplate(
            spec=klib.partition_kernel(len(self.in_columns)),
            in_width=self.in_width,
            out_width=self.in_width,
            est_selectivity=1.0,
        )
        return [partition, self._template()]

    def kbe_kernels(self, rows: int = 0) -> List[KernelTemplate]:
        partitioner = PartitionOp(self.key, self.num_partitions)
        partitioner.bind(
            self.in_columns, self.in_columns,
            {name: 8 for name in self.in_columns}, 1.0,
        )
        return partitioner.kbe_kernels() + [self._template()]

    def __repr__(self) -> str:
        return (
            f"PartitionedBuildSink({self.build_id}, key={self.key}, "
            f"P={self.num_partitions})"
        )


class AggSink(SinkOp):
    """Grouped (or global) aggregation."""

    def __init__(self, group_keys: Sequence[str], aggregates: Sequence[AggSpec]):
        super().__init__()
        self.group_keys = tuple(group_keys)
        self.aggregates = tuple(aggregates)
        self._state: Optional[GroupAggState] = None

    def start(self, context: ExecutionContext) -> None:
        self._state = GroupAggState(self.group_keys, self.aggregates)

    def consume(self, batch: Batch, context: ExecutionContext) -> None:
        if self._state is None:
            raise ExecutionError("AggSink.consume before start")
        self._state.update(batch)

    def finalize(self, context: ExecutionContext) -> Optional[Batch]:
        if self._state is None:
            raise ExecutionError("AggSink.finalize before start")
        state, self._state = self._state, None
        return state.result()

    @property
    def out_width(self) -> int:
        return 8 * (len(self.group_keys) + len(self.aggregates))

    def _agg_expressions(self) -> List[Expression]:
        return [agg.expr for agg in self.aggregates if agg.expr is not None]

    def gpl_kernels(self) -> List[KernelTemplate]:
        # Streaming accumulate (non-blocking) only: the epilogue that
        # combines partials is negligibly small and modeled inside the
        # engine's segment boundary handling.
        if self.group_keys:
            spec = klib.group_accumulate_kernel(
                self._agg_expressions(), len(self.group_keys)
            )
        else:
            spec = klib.reduce_kernel(self._agg_expressions())
        return [
            KernelTemplate(
                spec=spec,
                in_width=self.in_width,
                out_width=self.out_width,
                est_selectivity=0.0,
            )
        ]

    def kbe_kernels(self, rows: int = 0) -> List[KernelTemplate]:
        # OmniDB-style: materialize per-tuple aggregate inputs, then a
        # blocking prefix scan reduces them.
        value_width = 8 * max(1, len(self.aggregates))
        return [
            KernelTemplate(
                spec=klib.map_kernel(
                    self._agg_expressions(),
                    columns_out=len(self.aggregates) + len(self.group_keys),
                    name="k_agg_map",
                ),
                in_width=self.in_width,
                out_width=value_width + 8 * len(self.group_keys),
                est_selectivity=1.0,
            ),
            KernelTemplate(
                spec=klib.aggregate_finalize_kernel(),
                in_width=value_width + 8 * len(self.group_keys),
                out_width=self.out_width,
                est_selectivity=0.0,
            ),
        ]

    def __repr__(self) -> str:
        return f"AggSink(keys={list(self.group_keys)})"


class SortSink(SinkOp):
    """Materialize and sort (always blocking, both engines).

    With ``limit`` the sink keeps only the top N rows after ordering
    (ORDER BY ... LIMIT N).
    """

    def __init__(
        self,
        keys: Sequence[str],
        descending: Sequence[bool] = (),
        limit: Optional[int] = None,
    ):
        super().__init__()
        self.keys = tuple(keys)
        self.descending = tuple(descending) + (False,) * (
            len(keys) - len(descending)
        )
        self.limit = limit
        self._parts: List[Batch] = []

    def start(self, context: ExecutionContext) -> None:
        self._parts = []

    def consume(self, batch: Batch, context: ExecutionContext) -> None:
        self._parts.append(batch)

    def finalize(self, context: ExecutionContext) -> Optional[Batch]:
        parts, self._parts = self._parts, []
        merged = {
            name: np.concatenate([part[name] for part in parts])
            if parts
            else np.empty(0)
            for name in self.in_columns
        }
        order = np.arange(batch_rows(merged))
        for key, desc in reversed(list(zip(self.keys, self.descending))):
            values = merged[key][order]
            perm = np.argsort(values, kind="stable")
            if desc:
                perm = perm[::-1]
            order = order[perm]
        if self.limit is not None:
            order = order[: self.limit]
        return {name: merged[name][order] for name in self.in_columns}

    def gpl_kernels(self) -> List[KernelTemplate]:
        # GPL launches its sort before any row reaches the sink, so the
        # kernel is sized at the 2-row floor (EXPERIMENTS.md deviation 5).
        return self.kbe_kernels()

    def kbe_kernels(self, rows: int = 0) -> List[KernelTemplate]:
        return [
            KernelTemplate(
                spec=klib.sort_kernel(rows, len(self.in_columns)),
                in_width=self.in_width,
                out_width=self.in_width,
                est_selectivity=1.0,
            )
        ]

    def __repr__(self) -> str:
        return f"SortSink({list(self.keys)})"


class CollectSink(SinkOp):
    """Materialize the stream unchanged (final output / intermediate).

    ``limit`` truncates the materialized result (LIMIT without ORDER BY).
    """

    def __init__(self, limit: Optional[int] = None) -> None:
        super().__init__()
        self.limit = limit
        self._parts: List[Batch] = []

    def start(self, context: ExecutionContext) -> None:
        self._parts = []

    def consume(self, batch: Batch, context: ExecutionContext) -> None:
        self._parts.append(batch)

    def finalize(self, context: ExecutionContext) -> Optional[Batch]:
        parts, self._parts = self._parts, []
        merged = {
            name: np.concatenate([part[name] for part in parts])
            if parts
            else np.empty(0)
            for name in self.in_columns
        }
        if self.limit is not None:
            merged = {
                name: array[: self.limit] for name, array in merged.items()
            }
        return merged

    def gpl_kernels(self) -> List[KernelTemplate]:
        return []

    def kbe_kernels(self, rows: int = 0) -> List[KernelTemplate]:
        return []

    def __repr__(self) -> str:
        return "CollectSink()"


@dataclass
class Pipeline:
    """One segment: source -> stream ops -> blocking sink.

    ``source_table`` and ``source_intermediate`` are mutually exclusive.
    ``source_columns`` are the (possibly renamed) columns the pipeline
    reads; ``source_rename`` maps base-table column names to chain names.
    """

    pipeline_id: str
    source_table: Optional[str]
    source_intermediate: Optional[str]
    source_columns: Tuple[str, ...]
    source_rename: Dict[str, str]
    ops: List[StreamOp]
    sink: SinkOp
    source_row_width: int = 0
    est_source_rows: float = 0.0

    def __post_init__(self) -> None:
        if (self.source_table is None) == (self.source_intermediate is None):
            raise PlanError(
                "pipeline needs exactly one of source_table / "
                "source_intermediate"
            )

    @property
    def output_id(self) -> str:
        """Name under which this pipeline's output is registered."""
        return self.pipeline_id

    def describe(self) -> str:
        source = self.source_table or f"@{self.source_intermediate}"
        chain = " -> ".join(
            [f"scan({source})"]
            + [repr(op) for op in self.ops]
            + [repr(self.sink)]
        )
        return f"[{self.pipeline_id}] {chain}"


@dataclass
class PhysicalPlan:
    """The full executable plan: pipelines in dependency order."""

    name: str
    pipelines: List[Pipeline]
    output_pipeline: str
    output_columns: Tuple[str, ...] = ()
    #: Dictionaries for output columns that carry dictionary-encoded
    #: strings (code -> string), for presentation of result sets.
    output_dictionaries: Dict[str, Tuple[str, ...]] = field(
        default_factory=dict
    )

    def describe(self) -> str:
        lines = [f"PhysicalPlan({self.name})"]
        lines.extend("  " + pipeline.describe() for pipeline in self.pipelines)
        return "\n".join(lines)

    def pipeline(self, pipeline_id: str) -> Pipeline:
        for candidate in self.pipelines:
            if candidate.pipeline_id == pipeline_id:
                return candidate
        raise PlanError(f"no pipeline {pipeline_id!r}")
