"""Serving caches: lowered plans and whole query results.

Optimization + lowering is pure — the same :class:`~repro.plans.QuerySpec`
against the same database with the same plan knobs always produces the
same :class:`~repro.plans.PhysicalPlan` — and a lowered plan is
re-executable: every stateful sink resets itself in ``start()`` and all
run state lives in the per-execution
:class:`~repro.plans.ExecutionContext`.  That makes the plan a perfect
cache value, and :func:`~repro.plans.lowering.plan_cache_key` the key:
query shape, database contents, device, and plan knobs.  Change any of
them and the key changes — that is the entire invalidation story.

Engines consult an attached cache through
:meth:`repro.core.EngineBase.prepare`; the serving layer attaches one
cache across every engine it builds so repeat traffic skips the
optimizer entirely.

:class:`ResultCache` applies the same argument one level up: execution
is deterministic, so the *result* is as pure a function of the plan
cache key as the plan is.  The service consults it before admission —
a hit bypasses scheduling and execution entirely (outcome ``cached``).
Results hold materialized rows, so the budget is bytes, not entries:
a byte-budgeted LRU with oversized results simply never admitted.
The cross-query *segment* cache lives with the checkpoint machinery in
:mod:`repro.core.checkpoint` (:class:`~repro.core.checkpoint.SegmentCache`)
and is re-exported here alongside the serving-level caches.
"""

from __future__ import annotations

from typing import Dict

from ..core.checkpoint import SegmentCache
from ..core.store import BoundedStore, CacheStats
from ..plans import PhysicalPlan, QuerySpec
from ..plans.lowering import plan_cache_key
from ..plans.runtime import batch_bytes

__all__ = ["CacheStats", "PlanCache", "ResultCache", "SegmentCache"]


class PlanCache(BoundedStore):
    """LRU cache of lowered physical plans, bounded by ``max_entries``.

    A serving deployment sees a finite set of query shapes, but nothing
    enforces that, so the least recently used plan is evicted once the
    bound is hit.  ``fetch_or_prepare`` deliberately prepares *outside*
    the store's lock — lowering is the expensive part and concurrent
    misses on distinct keys must not serialize.
    """

    def __init__(self, max_entries: int = 128):
        if max_entries < 1:
            raise ValueError("plan cache needs at least one entry")
        super().__init__(max_entries=max_entries)

    def key_for(self, engine, spec: QuerySpec) -> str:
        """The cache key ``engine`` would use for ``spec``."""
        return plan_cache_key(
            spec,
            engine.database,
            engine.device.name,
            partitioned_joins=engine.partitioned_joins,
            num_partitions=engine.num_partitions,
            adaptive_fact=engine.adaptive_fact,
        )

    def fetch_or_prepare(
        self, engine, spec: QuerySpec
    ) -> "tuple[PhysicalPlan, bool]":
        """The engine-facing entry point (see :meth:`EngineBase.prepare`):
        ``(plan, was_hit)`` — the hit flag for *this* call.

        Callers must not infer the flag from a ``stats.hits`` delta: a
        concurrent lookup's hit can land between the snapshots.
        """
        key = self.key_for(engine, spec)
        plan = self.get(key)
        if plan is not None:
            return plan, True
        plan = engine.prepare_uncached(spec)
        self.put(key, plan)
        return plan, False


#: Default result-cache budget: 64 MiB of materialized rows.
DEFAULT_RESULT_CACHE_BYTES = 64 * 1024 * 1024


class ResultCache(BoundedStore):
    """Byte-budgeted LRU cache of whole query results.

    Keyed by :func:`~repro.plans.lowering.plan_cache_key` plus an
    execution salt (tile size, pool width) supplied by the service —
    everything that shaped the *rows* is in the key, so, exactly as for
    the plan cache, invalidation is the key changing.  Results are
    materialized row batches, so the bound is ``max_bytes`` of column
    data (:func:`~repro.plans.runtime.batch_bytes`); least recently
    used results are evicted to fit, and a single result larger than
    the whole budget is never admitted.

    Entries are stored by reference.  That is safe for the same reason
    checkpoint capture-by-reference is: engine outputs are freshly
    materialized per execution and never mutated downstream (an
    engine's sink outputs are read-only arrays).
    """

    def __init__(self, max_bytes: int = DEFAULT_RESULT_CACHE_BYTES):
        if max_bytes < 1:
            raise ValueError("result cache needs a positive byte budget")
        super().__init__(max_bytes=max_bytes)

    @staticmethod
    def result_bytes(result) -> int:
        """The byte footprint charged for ``result``."""
        return int(batch_bytes(result.batch))

    #: The cached result for a key, counting the hit or miss — ``get``
    #: under the serving layer's name, bound on this class so per-layer
    #: tracing can wrap result lookups alone.
    lookup = BoundedStore.get

    def store(self, key: str, result) -> bool:
        """Admit ``result`` under ``key``; ``False`` if it cannot fit."""
        return self.put(key, result, self.result_bytes(result))

    def counters_dict(self) -> Dict[str, int]:
        """Deterministic counters (the serving report embeds these)."""
        return self.counters("live_results")
