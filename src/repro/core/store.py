"""One bounded LRU store behind every cache and memo in the system.

The paper pays each pure step of its model once: Γ is calibrated once
per device, the §4.1 configuration search runs once per segment, and a
segment materializes once at its blocking kernel.  Every place that
remembers such a step — lowered plans, whole results, segment outputs,
retry checkpoints, search outcomes, simulated segments, Γ tables and
partition layouts — is a :class:`BoundedStore`: one LRU map, one lock,
one set of counters, bounded by entries, by bytes, or both.  What
differs between them is only the key, the bound, and what a hit skips.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, Optional

__all__ = ["BoundedStore", "CacheStats", "counters_delta"]


@dataclass
class CacheStats:
    """The running totals of one store (a live view, updated in place)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    stored: int = 0


class BoundedStore:
    """Thread-safe LRU map bounded by ``max_entries`` and/or ``max_bytes``.

    ``None`` leaves a bound off.  :meth:`put` charges each value the
    ``size`` its caller names, evicts least recently used entries until
    the new one fits under both bounds, and refuses a value larger than
    the whole byte budget (or any value when ``max_entries`` is 0).
    :meth:`get` counts a hit or a miss and refreshes the entry;
    :meth:`peek` and :meth:`pop` count nothing.  Stored values are never
    ``None`` — ``None`` is what a miss returns.
    """

    def __init__(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ):
        if (max_entries or 0) < 0 or (max_bytes or 0) < 0:
            raise ValueError("store bounds must be non-negative")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[Hashable, tuple]" = OrderedDict()
        self._lock = threading.RLock()
        self.stats = CacheStats()
        self.live_bytes = self.peak_bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable):
        """The value under ``key`` (refreshed), or ``None``; counted."""
        with self._lock:
            item = self._entries.get(key)
            if item is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return item[0]

    def peek(self, key: Hashable):
        """The value under ``key`` without counting or refreshing it."""
        with self._lock:
            item = self._entries.get(key)
            return None if item is None else item[0]

    def put(self, key: Hashable, value, size: int = 0) -> bool:
        """Store ``value`` under ``key``; ``False`` if it can never fit.

        Re-putting a key replaces it in place (no eviction counted).
        """
        if self.max_entries == 0 or (
            self.max_bytes is not None and size > self.max_bytes
        ):
            return False
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.live_bytes -= old[1]
            while self._entries and (
                (
                    self.max_bytes is not None
                    and self.live_bytes + size > self.max_bytes
                )
                or (
                    self.max_entries is not None
                    and len(self._entries) >= self.max_entries
                )
            ):
                _, (_, evicted) = self._entries.popitem(last=False)
                self.live_bytes -= evicted
                self.stats.evictions += 1
            self._entries[key] = (value, size)
            self.live_bytes += size
            self.peak_bytes = max(self.peak_bytes, self.live_bytes)
            self.stats.stored += 1
            return True

    def pop(self, key: Hashable):
        """Remove and return the value under ``key`` (``None`` if absent)."""
        with self._lock:
            item = self._entries.pop(key, None)
            if item is None:
                return None
            self.live_bytes -= item[1]
            return item[0]

    def get_or_compute(
        self, key: Hashable, factory: Callable[[], object], size: int = 0
    ):
        """The value under ``key``, computing and storing it on a miss.

        The lock is held across ``factory``: concurrent requesters of one
        key compute it once, and the rest block and reuse that value.
        """
        with self._lock:
            value = self.get(key)
            if value is None:
                value = factory()
                self.put(key, value, size)
            return value

    def clear(self) -> None:
        """Drop every entry and reset every counter."""
        with self._lock:
            self._entries.clear()
            stats = self.stats
            stats.hits = stats.misses = stats.evictions = stats.stored = 0
            self.live_bytes = self.peak_bytes = 0

    def counters(self, entries: str = "live_entries") -> Dict[str, int]:
        """Running totals plus the live and peak occupancy; ``entries``
        names the live entry count (``live_results``, ``live_segments``)."""
        with self._lock:
            stats = self.stats
            return {
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
                "stored": stats.stored,
                entries: len(self._entries),
                "live_bytes": self.live_bytes,
                "peak_bytes": self.peak_bytes,
            }

    def memo_counters(self) -> Dict[str, int]:
        """The process-wide memos' view: totals, ``size`` and ``limit``."""
        with self._lock:
            stats = self.stats
            return {
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
                "size": len(self._entries),
                "limit": self.max_entries,
            }


def counters_delta(
    before: Dict[str, int],
    after: Dict[str, int],
    keys: Optional[Iterable[str]] = None,
) -> Dict[str, int]:
    """What happened between two counter snapshots.

    Running totals become ``after - before``; occupancy gauges
    (``live_*``, ``peak_*``) keep their ``after`` value.  ``keys``
    selects and orders the entries (default: every key of ``after``).
    """
    return {
        key: after[key]
        if key.startswith(("live_", "peak_"))
        else after[key] - before.get(key, 0)
        for key in (after if keys is None else keys)
    }
