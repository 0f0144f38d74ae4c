"""Segment checkpoint/resume for the resilience layer.

GPL's defining structure — plans split into pipelines ("segments") that
*materialize* at blocking kernels — gives retries natural recovery
points: once a segment has finished, its outputs (an intermediate batch
or a built hash table) are complete, engine-independent values sitting
in the :class:`~repro.plans.ExecutionContext`.  A retry therefore never
needs to re-run segments that already completed; it only needs their
materialized outputs back.

Two classes implement this:

* :class:`CheckpointStore` — a bounded, LRU-evicting pool of completed
  segment outputs, shared across the queries of a
  :class:`~repro.serve.QueryService` so checkpoint memory is capped
  service-wide.  Eviction is safe: an evicted segment simply re-executes
  on the next retry.
* :class:`QueryCheckpoint` — one query's window onto the store, alive
  for the duration of one :meth:`ResilientExecutor.execute` call (all
  its retries and engine fallbacks).  The engines call
  :meth:`~QueryCheckpoint.restore` before each segment and
  :meth:`~QueryCheckpoint.record` after it completes.

Because every engine (GPL, GPL w/o CE, KBE) executes the *same* physical
pipelines functionally, checkpoints survive Δ-halving retries *and*
GPL→KBE fallback unchanged; only segments whose pipeline ids disappear
from a re-planned attempt are invalidated (see
:meth:`QueryCheckpoint.begin_attempt`).

A third class, :class:`SegmentCache`, generalizes the same capture
machinery across *queries*: where the checkpoint store keys entries by
a per-execution ticket (so two executions never alias), the segment
cache keys them by a content signature — a running digest of the plan
environment (database fingerprint, device name, plan knobs) and every
lowered pipeline up to and including the segment — so two *distinct* queries
whose plans share a lowered segment prefix (the same scan/filter/build
subplans, in the same order) resume from each other's materialized
outputs.  The signature is the whole invalidation story, exactly like
:func:`~repro.plans.lowering.plan_cache_key`: change the data, the
device name, a knob, or any upstream operator and the key changes.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..plans.runtime import Batch, batch_bytes
from .store import BoundedStore

__all__ = [
    "CheckpointStore",
    "QueryCheckpoint",
    "SegmentCache",
    "SegmentCheckpoint",
]

#: Default service-wide cap on live checkpoint bytes (256 MiB of
#: simulated intermediates — generous for the repro's scale factors while
#: still exercising eviction in soak runs).
DEFAULT_MAX_BYTES = 256 * 1024 * 1024
#: Default cap on the number of live segment checkpoints.
DEFAULT_MAX_SEGMENTS = 256


@dataclass
class SegmentCheckpoint:
    """The materialized outputs one completed segment contributed."""

    segment_id: str
    intermediates: Dict[str, Batch] = field(default_factory=dict)
    hash_tables: Dict[str, object] = field(default_factory=dict)
    nbytes: int = 0

    @staticmethod
    def capture(
        segment_id: str,
        intermediates: Dict[str, Batch],
        hash_tables: Dict[str, object],
    ) -> "SegmentCheckpoint":
        size = sum(batch_bytes(batch) for batch in intermediates.values())
        size += sum(int(table.nbytes) for table in hash_tables.values())
        return SegmentCheckpoint(
            segment_id=segment_id,
            intermediates=dict(intermediates),
            hash_tables=dict(hash_tables),
            nbytes=size,
        )


class CheckpointStore(BoundedStore):
    """Bounded LRU pool of :class:`SegmentCheckpoint` entries.

    Keys are ``(query_ticket, segment_id)`` — ``query_ticket`` is a
    store-issued monotonic id, so two in-flight executions of the same
    query name never alias.  ``max_bytes``/``max_segments`` bound the
    pool; recording a segment evicts least-recently-used entries (from
    *any* query) until the new entry fits.  A segment larger than the
    whole budget is simply not stored.  One store may be shared by
    concurrent executions; ticket issue takes the store's lock.
    """

    def __init__(
        self,
        max_bytes: int = DEFAULT_MAX_BYTES,
        max_segments: int = DEFAULT_MAX_SEGMENTS,
    ):
        super().__init__(max_entries=max_segments, max_bytes=max_bytes)
        self._next_ticket = 0
        self.invalidated_total = 0

    def open(self, query: str = "") -> "QueryCheckpoint":
        """A fresh per-execution window onto this store."""
        with self._lock:
            ticket = self._next_ticket
            self._next_ticket += 1
        return QueryCheckpoint(self, ticket, query)

    def invalidate(self, key: Tuple[int, str]) -> None:
        """Drop ``key`` because a re-planned attempt no longer has it."""
        with self._lock:
            if self.pop(key) is not None:
                self.invalidated_total += 1

    def counters_dict(self) -> Dict[str, int]:
        with self._lock:
            stats = self.stats
            return {
                "live_segments": len(self._entries),
                "live_bytes": self.live_bytes,
                "peak_bytes": self.peak_bytes,
                "recorded": stats.stored,
                "resumed": stats.hits,
                "evicted": stats.evictions,
                "invalidated": self.invalidated_total,
            }


class QueryCheckpoint:
    """One query's checkpoint window, spanning all its retry attempts.

    The engine protocol (driven by ``EngineBase.execute_plan``):

    1. :meth:`begin_attempt` with the attempt's plan signature — drops
       checkpoints for segments the new plan no longer contains;
    2. per segment, :meth:`restore` — on hit, splice the recorded
       outputs back into the context and *skip* execution;
    3. after a segment completes, :meth:`record` — capture the keys this
       segment added to the context.

    Per-execution counters (``segments_recorded`` / ``segments_resumed``
    / ``segments_invalidated``) feed the
    :class:`~repro.core.ResilienceReport`.
    """

    def __init__(self, store: CheckpointStore, ticket: int, query: str = ""):
        self._store = store
        self._ticket = ticket
        self.query = query
        self._segments: "OrderedDict[str, None]" = OrderedDict()
        self._seen_intermediates: set = set()
        self._seen_hash_tables: set = set()
        self.segments_recorded = 0
        self.segments_resumed = 0
        self.segments_invalidated = 0

    def begin_attempt(self, plan_signature: Tuple[str, ...]) -> None:
        """Reset per-attempt state; invalidate re-planned segments."""
        self._seen_intermediates = set()
        self._seen_hash_tables = set()
        current = set(plan_signature)
        for segment_id in list(self._segments):
            if segment_id not in current:
                self._store.invalidate((self._ticket, segment_id))
                del self._segments[segment_id]
                self.segments_invalidated += 1

    def note_restored(
        self, intermediates: Dict[str, Batch], hash_tables: Dict[str, object]
    ) -> None:
        """Mark context keys spliced in by an *external* restore.

        The cross-query :class:`SegmentCache` can satisfy a segment this
        checkpoint never saw; without this notice the next
        :meth:`record` would mistake the restored keys for outputs of
        the segment that follows and double-capture them.
        """
        self._seen_intermediates.update(intermediates)
        self._seen_hash_tables.update(hash_tables)

    def restore(self, segment_id: str, context) -> bool:
        """Splice a recorded segment back into ``context`` if available.

        Returns ``True`` when the segment can be skipped.  A miss (never
        recorded, or evicted by the store) returns ``False`` and the
        segment re-executes — eviction is always safe.
        """
        if segment_id not in self._segments:
            return False
        entry = self._store.get((self._ticket, segment_id))
        if entry is None:  # evicted under memory pressure
            del self._segments[segment_id]
            return False
        context.intermediates.update(entry.intermediates)
        context.hash_tables.update(entry.hash_tables)
        self._seen_intermediates.update(entry.intermediates)
        self._seen_hash_tables.update(entry.hash_tables)
        self.segments_resumed += 1
        return True

    def record(self, segment_id: str, context) -> None:
        """Capture the context keys this just-completed segment added."""
        new_intermediates = {
            key: value
            for key, value in context.intermediates.items()
            if key not in self._seen_intermediates
        }
        new_hash_tables = {
            key: value
            for key, value in context.hash_tables.items()
            if key not in self._seen_hash_tables
        }
        self._seen_intermediates.update(new_intermediates)
        self._seen_hash_tables.update(new_hash_tables)
        if segment_id in self._segments:  # re-recorded after invalidation
            self._store.pop((self._ticket, segment_id))
            del self._segments[segment_id]
        entry = SegmentCheckpoint.capture(
            segment_id, new_intermediates, new_hash_tables
        )
        if self._store.put((self._ticket, segment_id), entry, entry.nbytes):
            self._segments[segment_id] = None
            self.segments_recorded += 1

    def release(self) -> None:
        """Drop every checkpoint this execution holds (query finished)."""
        for segment_id in self._segments:
            self._store.pop((self._ticket, segment_id))
        self._segments.clear()

    def counters_dict(self) -> Dict[str, int]:
        return {
            "segments_recorded": self.segments_recorded,
            "segments_resumed": self.segments_resumed,
            "segments_invalidated": self.segments_invalidated,
        }


# -- cross-query segment cache -------------------------------------------

def _op_signature(op) -> str:
    """Deterministic description of one stream op or sink.

    Every public attribute of the physical operators is either a scalar,
    a tuple/dict of scalars, or a frozen-dataclass expression tree — all
    with canonical ``repr``s (the same property
    :func:`~repro.plans.optimizer.spec_fingerprint` relies on).  Private
    attributes are per-execution state (sink accumulators, built hash
    tables) and are excluded.
    """
    fields = ",".join(
        f"{name}={value!r}"
        for name, value in sorted(vars(op).items())
        if not name.startswith("_")
    )
    return f"{type(op).__name__}({fields})"


class SegmentCache(BoundedStore):
    """Cross-query LRU cache of materialized segment outputs.

    The generalization of :class:`CheckpointStore`: same captured
    values (:class:`SegmentCheckpoint` entries, held by reference — see
    the capture-by-reference note on :meth:`SegmentCheckpoint.capture`),
    same byte/segment bounds and LRU eviction, but keyed by the content
    signatures of :meth:`keys_for` instead of a per-execution
    ticket.  Any engine whose ``segment_cache`` attribute is set
    consults it before running each segment; the serving layer shares
    one cache across every query it executes.

    Eviction and misses are always safe — the segment simply executes.
    """

    def __init__(
        self,
        max_bytes: int = DEFAULT_MAX_BYTES,
        max_segments: int = DEFAULT_MAX_SEGMENTS,
    ):
        super().__init__(max_entries=max_segments, max_bytes=max_bytes)

    def keys_for(self, plan, env: str) -> Tuple[str, ...]:
        """One content key per pipeline of ``plan``, in plan order.

        Key ``i`` is a running SHA-1 over the plan environment ``env``
        (:func:`~repro.plans.lowering.plan_environment`: the database
        fingerprint, the device name and the plan knobs — what plan
        cache keys read besides the query) and the full descriptions of
        pipelines ``0..i``.  Chaining the digest over the *prefix* makes
        the key conservative and sound: a pipeline's inputs (its source
        intermediate, the hash tables its probes consult) are always
        produced by earlier pipelines, so two plans agreeing on a prefix
        key agree on everything segment ``i`` can observe.

        The keys of the last environment are kept on the plan object —
        plans are shared through the :class:`~repro.serve.PlanCache`,
        whose key holds the same environment, so repeat traffic hashes
        nothing.
        """
        memo = getattr(plan, "_segment_keys", None)
        if memo is not None and memo[0] == env:
            return memo[1]
        running = hashlib.sha1(env.encode())
        out: List[str] = []
        for pipeline in plan.pipelines:
            running.update(
                "|".join(
                    [
                        pipeline.pipeline_id,
                        pipeline.source_table
                        or f"@{pipeline.source_intermediate}",
                        repr(pipeline.source_columns),
                        repr(sorted(pipeline.source_rename.items())),
                        str(pipeline.source_row_width),
                    ]
                    + [_op_signature(op) for op in pipeline.ops]
                    + [_op_signature(pipeline.sink)]
                ).encode()
            )
            out.append(f"{pipeline.pipeline_id}:{running.hexdigest()}")
        keys = tuple(out)
        # One tuple assignment: a concurrent reader sees the old pair or
        # the new one, and each names its own environment.
        plan._segment_keys = (env, keys)
        return keys

    def restore(self, key: str, context) -> bool:
        """Splice the cached segment under ``key`` into ``context``.

        Returns ``True`` when the segment can be skipped; a miss counts
        and returns ``False`` (the segment executes normally).
        """
        entry = self.get(key)
        if entry is None:
            return False
        context.intermediates.update(entry.intermediates)
        context.hash_tables.update(entry.hash_tables)
        return True

    def store(self, key: str, entry: SegmentCheckpoint) -> bool:
        """Insert ``entry`` under ``key``, evicting LRU entries to fit.

        An entry larger than the whole budget is not stored; re-storing
        an existing key refreshes it in place.
        """
        return self.put(key, entry, entry.nbytes)

    def counters_dict(self) -> Dict[str, int]:
        return self.counters("live_segments")
