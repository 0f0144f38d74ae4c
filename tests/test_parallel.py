"""Inline scatter/gather tasks and the thread-safety of the shared stores.

* :class:`~repro.core.WorkerPool` semantics — ``submit`` runs inline on
  the caller's thread, errors are captured for the gather loop, private
  sub-traces graft back where the caller merges them, and a scatter that
  fails on one shard exports no trace from the shards after it;
* the shared stores (plan/result/segment caches, the checkpoint store)
  survive a multithreaded hammer with their size and byte accounting
  intact.

The drain's and the scatter's exported bytes are pinned absolutely by
the recorded digests in ``tests/test_golden_equivalence.py``.
"""

import threading

import numpy as np
import pytest

from repro.core import CheckpointStore, WorkerPool
from repro.core.checkpoint import SegmentCheckpoint
from repro.errors import DeadlineExceededError
from repro.obs.tracing import Tracer, current_tracer, use_tracer
from repro.serve import PlanCache, ResultCache, SegmentCache
from repro.shard import DevicePool, ShardedExecutor
from repro.tpch import generate_database, q5


# ---------------------------------------------------------------------------
# WorkerPool semantics
# ---------------------------------------------------------------------------


class TestWorkerPool:
    def test_submit_runs_inline_on_caller_thread(self):
        seen = []
        task = WorkerPool().submit(
            lambda: seen.append(threading.get_ident()) or "done"
        )
        assert seen == [threading.get_ident()]
        assert task.error is None
        assert task.result == "done"

    def test_errors_are_captured_not_raised(self):
        def boom():
            raise ValueError("boom")

        task = WorkerPool().submit(boom)
        assert isinstance(task.error, ValueError)
        assert task.result is None

    def test_subtraces_graft_in_submission_order(self):
        pool = WorkerPool()
        tracer = Tracer()
        with use_tracer(tracer):
            with tracer.span("fanout", category="serve"):
                tasks = []
                for index in range(6):

                    def body(index=index):
                        sub = current_tracer()
                        assert sub is not tracer
                        with sub.span(f"task{index}", category="serve"):
                            sub.advance(3 + index)

                    tasks.append(pool.submit(body))
                assert tracer.clock == 0.0  # nothing recorded until merged
                for task in tasks:
                    task.merge_trace()
        children = tracer.roots[0].children
        assert [span.name for span in children] == [
            f"task{i}" for i in range(6)
        ]
        # each sub-trace is shifted to where the previous one ended
        assert [span.start for span in children] == [0, 3, 7, 12, 18, 25]
        assert tracer.clock == 33.0

    def test_failed_scatter_drops_traces_of_later_shards(self, monkeypatch):
        """Every shard runs, but the exported trace reads as a scatter
        that stopped at the failing shard."""
        executor = ShardedExecutor(
            generate_database(scale=0.01, seed=11), DevicePool(4)
        )
        run_shard = executor._run_shard
        ran = []

        def run_shard_then_miss_deadline(scatter_spec, shard_db, slot, **kw):
            ran.append(slot.name)
            result = run_shard(scatter_spec, shard_db, slot, **kw)
            if slot.name == "dev1":
                raise DeadlineExceededError(
                    "shard 1 ran out of budget", query=scatter_spec.name
                )
            return result

        monkeypatch.setattr(
            executor, "_run_shard", run_shard_then_miss_deadline
        )
        tracer = Tracer()
        with use_tracer(tracer), pytest.raises(DeadlineExceededError):
            executor.execute(q5())
        assert ran == ["dev0", "dev1", "dev2", "dev3"]
        assert [
            span.attrs["device"]
            for span in tracer.walk()
            if span.name == "shard.scatter"
        ] == ["dev0", "dev1"]
        assert not any(span.name == "shard.gather" for span in tracer.walk())


# ---------------------------------------------------------------------------
# shared-store hammer: 8 threads, mixed get/put/evict
# ---------------------------------------------------------------------------

HAMMER_THREADS = 8
HAMMER_OPS = 200


def _hammer(worker):
    barrier = threading.Barrier(HAMMER_THREADS)
    errors = []

    def run(seed):
        try:
            barrier.wait()
            worker(seed)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(seed,))
        for seed in range(HAMMER_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []


class _FakeResult:
    """Just enough of a QueryResult for ResultCache byte accounting."""

    def __init__(self, nbytes):
        self.batch = {"col": np.zeros(nbytes // 8, dtype=np.int64)}


class TestSharedStoreHammer:
    def test_plan_cache_hammer(self):
        cache = PlanCache(max_entries=8)

        def worker(seed):
            for i in range(HAMMER_OPS):
                key = f"k{(seed * 7 + i) % 24}"
                if cache.get(key) is None:
                    cache.put(key, object())

        _hammer(worker)
        assert len(cache) <= 8
        stats = cache.stats
        assert stats.hits + stats.misses == HAMMER_THREADS * HAMMER_OPS
        assert stats.evictions <= stats.misses

    def test_result_cache_hammer(self):
        cache = ResultCache(max_bytes=4096)

        def worker(seed):
            for i in range(HAMMER_OPS):
                key = f"r{(seed * 5 + i) % 16}"
                if cache.lookup(key) is None:
                    cache.store(key, _FakeResult(512))

        _hammer(worker)
        counters = cache.counters_dict()
        assert counters["hits"] + counters["misses"] == (
            HAMMER_THREADS * HAMMER_OPS
        )
        assert counters["stored"] == counters["misses"]
        assert counters["live_results"] <= 4096 // 512
        assert counters["live_bytes"] == 512 * counters["live_results"]
        assert counters["peak_bytes"] <= 4096

    def test_checkpoint_store_hammer(self):
        store = CheckpointStore(max_bytes=8192, max_segments=16)

        def worker(seed):
            for i in range(HAMMER_OPS):
                # unique (ticket, segment) keys: every put is an insert
                entry = SegmentCheckpoint(
                    segment_id=f"s{i}", nbytes=256
                )
                key = (seed, f"s{i}")
                store.put(key, entry, entry.nbytes)
                if i % 3 == 0:
                    store.get(key)
                if i % 5 == 0:
                    if i % 2 == 0:
                        store.invalidate(key)
                    else:
                        store.pop(key)

        _hammer(worker)
        counters = store.counters_dict()
        assert counters["live_segments"] <= 16
        assert counters["live_bytes"] == 256 * counters["live_segments"]
        assert counters["peak_bytes"] <= 8192
        assert counters["evicted"] <= counters["recorded"]

    def test_segment_cache_hammer(self):
        cache = SegmentCache(max_bytes=4096, max_segments=12)

        class _Context:
            def __init__(self):
                self.intermediates = {}
                self.hash_tables = {}

        def worker(seed):
            context = _Context()
            for i in range(HAMMER_OPS):
                key = f"seg{(seed * 11 + i) % 20}"
                if not cache.restore(key, context):
                    cache.store(
                        key,
                        SegmentCheckpoint(segment_id=key, nbytes=256),
                    )

        _hammer(worker)
        counters = cache.counters_dict()
        assert counters["hits"] + counters["misses"] == (
            HAMMER_THREADS * HAMMER_OPS
        )
        assert counters["live_segments"] <= 12
        assert counters["live_bytes"] == 256 * counters["live_segments"]
        assert counters["peak_bytes"] <= 4096
