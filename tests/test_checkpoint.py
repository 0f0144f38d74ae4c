"""Segment checkpoint/resume: golden equivalence and store bounds.

The contract: a retry that resumes from checkpoints produces rows
identical to a from-scratch run, re-executes *only* the segments at and
after the fault, and the bounded store never makes resumption unsafe —
an evicted or invalidated segment simply re-executes.
"""

import numpy as np
import pytest

from repro.core import CheckpointStore, ResilientExecutor
from repro.core.engine import GPLEngine
from repro.faults import FaultPlan
from repro.plans import ExecutionContext
from repro.tpch import query_by_name


def _segment_ids(db, device, name):
    """The pipeline ids of a query's physical plan (checkpoint keys)."""
    plan = GPLEngine(db, device).prepare(query_by_name(name))
    return [p.pipeline_id for p in plan.pipelines]


def _batch(rows, value=1.0):
    return {"c": np.full(rows, value)}


class TestStoreBounds:
    def test_record_restore_roundtrip(self):
        store = CheckpointStore()
        window = store.open("Q")
        window.begin_attempt(("a", "b"))
        context = ExecutionContext()
        context.intermediates["out_a"] = _batch(8)
        window.record("a", context)
        assert window.segments_recorded == 1

        fresh = ExecutionContext()
        assert window.restore("a", fresh)
        np.testing.assert_array_equal(
            fresh.intermediates["out_a"]["c"], context.intermediates["out_a"]["c"]
        )
        assert not window.restore("b", fresh)  # never recorded

    def test_delta_keys_only(self):
        """Each segment records only the keys it added, not the context."""
        store = CheckpointStore()
        window = store.open("Q")
        window.begin_attempt(("a", "b"))
        context = ExecutionContext()
        context.intermediates["out_a"] = _batch(8)
        window.record("a", context)
        context.intermediates["out_b"] = _batch(4)
        window.record("b", context)

        fresh = ExecutionContext()
        assert window.restore("b", fresh)
        assert set(fresh.intermediates) == {"out_b"}

    def test_lru_eviction_frees_bytes_and_stays_safe(self):
        entry_bytes = _batch(8)["c"].nbytes
        store = CheckpointStore(max_bytes=entry_bytes * 2, max_segments=8)
        window = store.open("Q")
        window.begin_attempt(("a", "b", "c"))
        context = ExecutionContext()
        for seg in ("a", "b", "c"):
            context.intermediates[f"out_{seg}"] = _batch(8)
            window.record(seg, context)
        assert store.stats.evictions == 1
        assert store.live_bytes <= store.max_bytes
        # The evicted segment (oldest: "a") is a clean miss, not an error.
        assert not window.restore("a", ExecutionContext())
        assert window.restore("c", ExecutionContext())

    def test_oversize_segment_not_stored(self):
        store = CheckpointStore(max_bytes=4)
        window = store.open("Q")
        window.begin_attempt(("a",))
        context = ExecutionContext()
        context.intermediates["out_a"] = _batch(1024)
        window.record("a", context)
        assert store.stats.stored == 0
        assert not window.restore("a", ExecutionContext())

    def test_begin_attempt_invalidates_replanned_segments(self):
        store = CheckpointStore()
        window = store.open("Q")
        window.begin_attempt(("a", "b"))
        context = ExecutionContext()
        context.intermediates["out_a"] = _batch(2)
        window.record("a", context)
        context.intermediates["out_b"] = _batch(2)
        window.record("b", context)

        window.begin_attempt(("a", "c"))  # "b" vanished from the plan
        assert window.segments_invalidated == 1
        assert store.invalidated_total == 1
        assert window.restore("a", ExecutionContext())
        assert not window.restore("b", ExecutionContext())

    def test_release_drops_everything(self):
        store = CheckpointStore()
        window = store.open("Q")
        window.begin_attempt(("a",))
        context = ExecutionContext()
        context.intermediates["out_a"] = _batch(2)
        window.record("a", context)
        assert store.live_bytes > 0
        window.release()
        assert store.live_bytes == 0
        assert len(store) == 0

    def test_tickets_never_alias(self):
        store = CheckpointStore()
        first, second = store.open("Q"), store.open("Q")
        first.begin_attempt(("a",))
        second.begin_attempt(("a",))
        context = ExecutionContext()
        context.intermediates["out_a"] = _batch(2)
        first.record("a", context)
        assert not second.restore("a", ExecutionContext())


class TestResumeGolden:
    """Golden fixture: resumed retries are row-identical and minimal."""

    def test_resumed_rows_identical_and_only_tail_reexecutes(
        self, tiny_db, amd
    ):
        segments = _segment_ids(tiny_db, amd, "Q5")
        fault_at = len(segments) - 3  # fault late: most segments resumable
        plan = FaultPlan.parse(f"oom@{segments[fault_at]}")

        resumed = ResilientExecutor(
            tiny_db, amd, fault_plan=plan
        ).execute(query_by_name("Q5"))
        scratch = ResilientExecutor(
            tiny_db, amd, fault_plan=plan, checkpoints=False
        ).execute(query_by_name("Q5"))
        clean = ResilientExecutor(tiny_db, amd).execute(query_by_name("Q5"))

        assert resumed.sorted_rows() == scratch.sorted_rows()
        assert resumed.sorted_rows() == clean.sorted_rows()

        report = resumed.resilience
        assert report.retries == 1
        # The retry resumed every segment before the fault...
        assert report.segments_resumed == fault_at
        # ...and the simulator only launched kernels for the attempt's
        # remaining segments: fewer launches than the no-checkpoint
        # retry, which re-executed the whole prefix a second time.
        assert (
            resumed.counters.kernel_launches
            < scratch.counters.kernel_launches
        )
        assert scratch.resilience.segments_resumed == 0

    def test_clean_run_records_but_never_resumes(self, tiny_db, amd):
        result = ResilientExecutor(tiny_db, amd).execute(query_by_name("Q14"))
        report = result.resilience
        assert report.segments_recorded == len(
            _segment_ids(tiny_db, amd, "Q14")
        )
        assert report.segments_resumed == 0

    def test_store_shared_across_queries_is_released(self, tiny_db, amd):
        store = CheckpointStore()
        executor = ResilientExecutor(
            tiny_db, amd, checkpoint_store=store
        )
        executor.execute(query_by_name("Q14"))
        executor.execute(query_by_name("Q5"))
        assert store.stats.stored > 0
        assert store.live_bytes == 0  # finished queries hold nothing

    def test_checkpoints_survive_fallback_to_kbe(self, tiny_db, amd):
        """Physical plans are engine-independent, so a GPL->KBE fallback
        resumes the failed GPL attempt's completed segments."""
        segments = _segment_ids(tiny_db, amd, "Q5")
        # A kernel abort skips retry and falls straight back; make it
        # persistent enough to push past GPL w/o CE into KBE.
        plan = FaultPlan.parse(f"abort@{segments[-3]}:*,times=2")
        result = ResilientExecutor(tiny_db, amd, fault_plan=plan).execute(
            query_by_name("Q5")
        )
        report = result.resilience
        assert report.engine_used == "KBE"
        assert report.fallbacks == 2
        assert report.segments_resumed >= len(segments) - 3
        clean = ResilientExecutor(tiny_db, amd).execute(query_by_name("Q5"))
        assert result.sorted_rows() == clean.sorted_rows()
