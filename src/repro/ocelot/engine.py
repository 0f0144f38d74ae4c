"""Ocelot comparator: a hardware-oblivious, KBE-style engine.

Ocelot (Heimel et al. [18]) replaces MonetDB's operators with OpenCL
kernels; it is kernel-based (no pipelining) but carries two optimizations
the paper singles out in Section 5.5:

1. **Bitmap intermediates** — a selection emits a bitmap instead of a
   compacted tuple array, so no prefix-sum/scatter kernels run and the
   selection intermediate is 1 bit per input tuple;
2. **Hash-table caching** — MonetDB's memory manager keeps previously
   built hash tables, so repeated builds over the same (table, key,
   predicate) are free — until the table is replaced, which the key's
   plan environment (the database fingerprint) notices.

Downstream operators pay for the bitmap's laziness: they scan *all* input
positions (reading the bitmap plus the base columns of candidate rows)
rather than a compacted intermediate.  This is exactly the trade the
paper describes, and it is why Ocelot tracks GPL on selection-dominated
queries but falls behind on join-deep Q8/Q9.

Everything else is :class:`~repro.kbe.KBEEngine`'s: Ocelot overrides only
the operator kernel expansion, the kept selectivities and the build skip.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from ..core.store import BoundedStore
from ..kbe.engine import KBEEngine
from ..plans import KernelTemplate, Pipeline
from ..plans import kernels as klib
from ..plans.physical import BuildSink, FilterOp, StreamOp

__all__ = ["OcelotEngine"]

#: Bitmap width per input tuple, in bytes (1 bit, rounded for accounting).
_BITMAP_WIDTH = 0.125

#: Built hash tables one engine remembers: far more than a workload
#: builds, so the bound only retires the tables of replaced databases.
_HASH_TABLE_CACHE_ENTRIES = 256


class OcelotEngine(KBEEngine):
    """Kernel-based execution with bitmaps and hash-table caching."""

    name = "Ocelot"

    #: A bitmap select writes its bitmap whatever survives it.
    kept_selectivities = KBEEngine.kept_selectivities + (_BITMAP_WIDTH,)

    def __init__(self, database, device, **kwargs):
        super().__init__(database, device, **kwargs)
        self._hash_table_cache = BoundedStore(
            max_entries=_HASH_TABLE_CACHE_ENTRIES
        )

    def clear_hash_table_cache(self) -> None:
        self._hash_table_cache.clear()

    def _skips_kernels(self, pipeline: Pipeline) -> bool:
        """Check/populate the hash-table cache for build pipelines.

        A build is keyed by the plan environment (so replacing a table
        through :meth:`~repro.relational.Database.add` rebuilds it) and
        by its table, key, payload and predicates.
        """
        if not isinstance(pipeline.sink, BuildSink):
            return False
        sink = pipeline.sink
        key = (
            self.plan_env,
            pipeline.source_table,
            sink.key,
            sink.payload_columns,
            tuple(repr(op) for op in pipeline.ops),
        )
        if self._hash_table_cache.get(key) is not None:
            return True
        self._hash_table_cache.put(key, True)
        return False

    def _op_kernels(self, op: StreamOp) -> List[KernelTemplate]:
        """Ocelot's kernel expansion of one operator.

        Selections become a single bitmap kernel (MonetDB candidate
        lists); downstream operators process the qualifying rows plus one
        extra memory access per row for the candidate indirection.
        """
        if isinstance(op, FilterOp):
            # One map kernel writing a bitmap; no prefix sum, no scatter.
            spec = klib.flag_map_kernel([op.predicate])
            spec = replace(spec, name="k_bitmap_select")
            return [
                KernelTemplate(
                    spec=spec,
                    in_width=op.in_width,
                    out_width=1,  # bitmap byte per 8 tuples, rounded up
                    est_selectivity=_BITMAP_WIDTH,
                )
            ]
        return [
            replace(
                template,
                spec=replace(
                    template.spec,
                    memory_instr=template.spec.memory_instr + 1.0,
                ),
            )
            for template in op.kbe_kernels()
        ]
