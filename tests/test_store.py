"""BoundedStore against a reference model, and under concurrent use."""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BoundedStore
from repro.core.store import counters_delta

KEYS = "abcd"

key = st.sampled_from(KEYS)
put = st.tuples(st.just("put"), key, st.integers(0, 24))
get = st.tuples(st.just("get"), key)
# put and get weighted double: an LRU slip needs a refresh between puts
operations = st.lists(
    st.one_of(
        put,
        put,
        get,
        get,
        st.tuples(st.just("peek"), key),
        st.tuples(st.just("pop"), key),
        st.tuples(st.just("clear")),
    ),
    min_size=20,
    max_size=80,
)

bounds = st.one_of(
    st.tuples(st.integers(1, 3), st.none()),  # entries only
    st.tuples(st.none(), st.integers(8, 48)),  # bytes only
    st.tuples(st.integers(1, 3), st.integers(8, 48)),  # both
    st.sampled_from([(0, None), (None, 0)]),  # nothing fits
)


class _Model:
    """A list in LRU order (oldest first) and the counters by hand."""

    def __init__(self, max_entries, max_bytes):
        self.max_entries, self.max_bytes = max_entries, max_bytes
        self.entries = []  # [key, value, size]
        self.clear()

    def clear(self):
        self.entries.clear()
        self.hits = self.misses = self.evictions = self.stored = 0
        self.peak = 0

    def find(self, key):
        return next((e for e in self.entries if e[0] == key), None)

    @property
    def live_bytes(self):
        return sum(size for _, _, size in self.entries)

    def get(self, key):
        entry = self.find(key)
        if entry is None:
            self.misses += 1
            return None
        self.entries.remove(entry)
        self.entries.append(entry)
        self.hits += 1
        return entry[1]

    def put(self, key, value, size):
        if self.max_entries == 0 or (
            self.max_bytes is not None and size > self.max_bytes
        ):
            return False, []
        entry = self.find(key)
        if entry is not None:
            self.entries.remove(entry)
        victims = []
        while self.entries and (
            (
                self.max_bytes is not None
                and self.live_bytes + size > self.max_bytes
            )
            or (
                self.max_entries is not None
                and len(self.entries) >= self.max_entries
            )
        ):
            victims.append(self.entries.pop(0)[0])
            self.evictions += 1
        self.entries.append([key, value, size])
        self.stored += 1
        self.peak = max(self.peak, self.live_bytes)
        return True, victims

    def peek(self, key):
        entry = self.find(key)
        return None if entry is None else entry[1]

    def pop(self, key):
        entry = self.find(key)
        if entry is None:
            return None
        self.entries.remove(entry)
        return entry[1]


class TestAgainstModel:
    @given(bound=bounds, ops=operations)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_reference_model(self, bound, ops):
        store = BoundedStore(max_entries=bound[0], max_bytes=bound[1])
        model = _Model(*bound)
        for serial, op in enumerate(ops):
            name, args = op[0], op[1:]
            if name == "put":
                key, size = args
                value = f"v{serial}"
                accepted, victims = model.put(key, value, size)
                assert store.put(key, value, size) is accepted
                oversize = bound[1] is not None and size > bound[1]
                assert accepted is not (oversize or bound[0] == 0)
                for victim in victims:  # the least recently touched
                    assert store.peek(victim) is None
            elif name == "clear":
                store.clear()
                model.clear()
            else:
                assert getattr(store, name)(*args) == getattr(model, name)(
                    *args
                )
            for key in KEYS:
                assert store.peek(key) == model.peek(key)
            assert len(store) == len(model.entries)
            assert store.live_bytes == model.live_bytes
            if bound[0] is not None:
                assert len(store) <= bound[0]
            if bound[1] is not None:
                assert store.live_bytes <= bound[1]
            assert store.counters() == {
                "hits": model.hits,
                "misses": model.misses,
                "evictions": model.evictions,
                "stored": model.stored,
                "live_entries": len(model.entries),
                "live_bytes": model.live_bytes,
                "peak_bytes": model.peak,
            }


class TestStore:
    def test_get_or_compute_computes_once(self):
        store = BoundedStore(max_entries=2)
        calls = []
        for _ in range(3):
            value = store.get_or_compute("k", lambda: calls.append(1) or "v")
            assert value == "v"
        assert calls == [1]
        assert (store.stats.hits, store.stats.misses) == (2, 1)

    def test_counters_delta_keeps_gauges(self):
        before = {"hits": 2, "live_bytes": 10, "peak_bytes": 40}
        after = {"hits": 5, "live_bytes": 7, "peak_bytes": 40}
        assert counters_delta(before, after) == {
            "hits": 3, "live_bytes": 7, "peak_bytes": 40,
        }
        assert counters_delta(before, after, ("hits",)) == {"hits": 3}

    def test_negative_bounds_are_rejected(self):
        with pytest.raises(ValueError):
            BoundedStore(max_bytes=-1)


class TestHammer:
    def test_four_threads_keep_the_accounting(self):
        store = BoundedStore(max_entries=6, max_bytes=96)
        threads_n, ops = 4, 400
        errors, first_misses = [], []
        barrier = threading.Barrier(threads_n)

        def worker(seed):
            missed = 0
            try:
                barrier.wait(timeout=10)
                for i in range(ops):
                    key = (seed * 7 + i) % 10
                    if i % 9 == 0:
                        store.pop(key)
                    elif store.get(key) is None:
                        missed += 1
                        store.get_or_compute(key, lambda: key, size=8 + key)
            except Exception as exc:  # pragma: no cover - failure report
                errors.append(exc)
            first_misses.append(missed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(seed,))
                for seed in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        counters = store.counters()
        live = [key for key in range(10) if store.peek(key) is not None]
        assert counters["live_entries"] == len(live) <= 6
        assert counters["live_bytes"] == sum(8 + key for key in live) <= 96
        assert counters["peak_bytes"] <= 96
        # Each non-pop op makes one counted lookup, each first miss one
        # more inside get_or_compute, and only that one's misses store.
        gets = threads_n * sum(1 for i in range(ops) if i % 9 != 0)
        missed = sum(first_misses)
        assert counters["hits"] + counters["misses"] == gets + missed
        assert counters["stored"] == counters["misses"] - missed
