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

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

from ..core.checkpoint import SegmentCache
from ..plans import PhysicalPlan, QuerySpec
from ..plans.lowering import plan_cache_key
from ..plans.runtime import batch_bytes

__all__ = ["CacheStats", "PlanCache", "ResultCache", "SegmentCache"]


@dataclass
class CacheStats:
    """Hit/miss/eviction accounting for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        if self.lookups <= 0:
            return 0.0
        return self.hits / self.lookups

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class PlanCache:
    """LRU cache of lowered physical plans.

    ``max_entries`` bounds memory: a serving deployment sees a finite set
    of query shapes, but nothing enforces that, so the least recently
    used plan is evicted once the bound is hit.

    Thread-safe: lookups and stores take a reentrant lock.
    ``fetch_or_prepare`` deliberately prepares *outside* the lock —
    lowering is the expensive part and concurrent misses on distinct
    keys must not serialize.
    """

    def __init__(self, max_entries: int = 128):
        if max_entries < 1:
            raise ValueError("plan cache needs at least one entry")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, PhysicalPlan]" = OrderedDict()
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

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

    def lookup(self, key: str) -> Optional[PhysicalPlan]:
        """The cached plan for ``key``, counting the hit or miss."""
        with self._lock:
            plan = self._entries.get(key)
            if plan is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return plan

    def store(self, key: str, plan: PhysicalPlan) -> None:
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def fetch_or_prepare(
        self, engine, spec: QuerySpec
    ) -> "tuple[PhysicalPlan, bool]":
        """The engine-facing entry point (see :meth:`EngineBase.prepare`):
        ``(plan, was_hit)`` — the hit flag for *this* call.

        Callers must not infer the flag from a ``stats.hits`` delta: a
        concurrent lookup's hit can land between the snapshots.
        """
        key = self.key_for(engine, spec)
        plan = self.lookup(key)
        if plan is not None:
            return plan, True
        plan = engine.prepare_uncached(spec)
        self.store(key, plan)
        return plan, False

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()


#: Default result-cache budget: 64 MiB of materialized rows.
DEFAULT_RESULT_CACHE_BYTES = 64 * 1024 * 1024


class ResultCache:
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
    materialized per execution and never mutated downstream.

    Thread-safe: a reentrant lock keeps the entry map, the size map,
    and the byte accounting in step under concurrent use.
    """

    def __init__(self, max_bytes: int = DEFAULT_RESULT_CACHE_BYTES):
        if max_bytes < 1:
            raise ValueError("result cache needs a positive byte budget")
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        self.live_bytes = 0
        self.peak_bytes = 0
        self.stored = 0
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        self._sizes: Dict[str, int] = {}
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @staticmethod
    def result_bytes(result) -> int:
        """The byte footprint charged for ``result``."""
        return int(batch_bytes(result.batch))

    def lookup(self, key: str):
        """The cached result for ``key``, counting the hit or miss."""
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return result

    def store(self, key: str, result) -> bool:
        """Admit ``result`` under ``key``; ``False`` if it cannot fit."""
        size = self.result_bytes(result)
        if size > self.max_bytes:
            return False
        with self._lock:
            if key in self._entries:
                self.live_bytes -= self._sizes[key]
                del self._entries[key]
                del self._sizes[key]
            while self._entries and self.live_bytes + size > self.max_bytes:
                evicted_key, _ = self._entries.popitem(last=False)
                self.live_bytes -= self._sizes.pop(evicted_key)
                self.stats.evictions += 1
            self._entries[key] = result
            self._sizes[key] = size
            self.live_bytes += size
            self.peak_bytes = max(self.peak_bytes, self.live_bytes)
            self.stored += 1
            return True

    def counters_dict(self) -> Dict[str, int]:
        """Deterministic counters (the serving report embeds these)."""
        with self._lock:
            return {
                "hits": self.stats.hits,
                "misses": self.stats.misses,
                "evictions": self.stats.evictions,
                "stored": self.stored,
                "live_results": len(self._entries),
                "live_bytes": self.live_bytes,
                "peak_bytes": self.peak_bytes,
            }

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._sizes.clear()
            self.stats = CacheStats()
            self.live_bytes = 0
            self.peak_bytes = 0
            self.stored = 0
