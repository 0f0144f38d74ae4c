"""Tests for physical operators: functional semantics + kernel expansions."""

import numpy as np
import pytest

from repro.plans import AggSpec
from repro.plans.physical import (
    AggSink,
    BuildSink,
    CollectSink,
    ComputeOp,
    FilterOp,
    ProbeOp,
    SortSink,
)
from repro.plans.runtime import ExecutionContext, batch_rows
from repro.relational import col, lit

WIDTHS = {"a": 8, "b": 8, "k": 4, "p": 8}


def batch():
    return {
        "a": np.array([1.0, 2.0, 3.0, 4.0]),
        "b": np.array([4.0, 3.0, 2.0, 1.0]),
        "k": np.array([0, 1, 0, 2], dtype=np.int32),
    }


class TestFilterOp:
    def make(self):
        op = FilterOp(col("a").ge(3.0))
        op.bind(["a", "b", "k"], ["b", "k"], WIDTHS, 0.5)
        return op

    def test_apply(self):
        out = self.make().apply(batch(), ExecutionContext())
        assert set(out) == {"b", "k"}
        assert list(out["b"]) == [2.0, 1.0]

    @pytest.mark.parametrize(
        "threshold,survivors", [(0.0, 4), (3.0, 2), (9.0, 0)]
    )
    def test_gathers_once_and_never_mutates(self, threshold, survivors):
        """An all-pass tile goes through as it is; any other is a fresh
        gather.  Either way the input tile is left as it was."""
        op = FilterOp(col("a").ge(threshold))
        op.bind(["a", "b", "k"], ["b", "k"], WIDTHS, 0.5)
        tile, before = batch(), batch()
        out = op.apply(tile, ExecutionContext())
        assert batch_rows(out) == survivors
        for name in tile:
            assert np.array_equal(tile[name], before[name])
        for name in out:
            assert out[name].dtype == tile[name].dtype
            assert np.shares_memory(out[name], tile[name]) == (survivors == 4)

    def test_widths(self):
        op = self.make()
        assert op.in_width == 20
        assert op.out_width == 12

    def test_gpl_single_map(self):
        kernels = self.make().gpl_kernels()
        assert len(kernels) == 1
        assert kernels[0].spec.name == "k_map"
        assert not kernels[0].spec.blocking
        # Pipelined map reads every carried column.
        assert kernels[0].spec.memory_instr == 3.0

    def test_kbe_three_kernels(self):
        kernels = self.make().kbe_kernels()
        names = [k.spec.name for k in kernels]
        assert names == ["k_map", "k_prefix_sum", "k_scatter"]
        assert kernels[1].spec.blocking  # prefix sum blocks
        # flag map writes a 4-byte flag per tuple
        assert kernels[0].out_width == 4

    def test_kbe_scatter_carries_selectivity(self):
        kernels = self.make().kbe_kernels()
        assert kernels[0].est_selectivity == 1.0
        assert kernels[2].est_selectivity == 0.5


class TestComputeOp:
    def make(self):
        op = ComputeOp((("s", col("a") + col("b")),))
        op.bind(["a", "b", "k"], ["k", "s"], WIDTHS, 1.0)
        return op

    def test_apply(self):
        out = self.make().apply(batch(), ExecutionContext())
        assert list(out["s"]) == [5.0, 5.0, 5.0, 5.0]
        assert set(out) == {"k", "s"}

    def test_scalar_broadcast(self):
        op = ComputeOp((("c", lit(7.0)),))
        op.bind(["a"], ["c"], WIDTHS, 1.0)
        out = op.apply({"a": np.arange(3.0)}, ExecutionContext())
        assert list(out["c"]) == [7.0, 7.0, 7.0]

    def test_kernels(self):
        op = self.make()
        assert len(op.gpl_kernels()) == 1
        assert len(op.kbe_kernels()) == 1
        assert op.gpl_kernels()[0].spec.memory_instr == 3.0


class TestProbeAndBuild:
    def context_with_table(self):
        context = ExecutionContext()
        sink = BuildSink("ht", "p", ("p", "payload"))
        sink.bind(["p", "payload"], {"p": 4, "payload": 8})
        sink.start(context)
        sink.consume(
            {
                "p": np.array([0, 1, 2], dtype=np.int32),
                "payload": np.array([10.0, 11.0, 12.0]),
            },
            context,
        )
        assert sink.finalize(context) is None
        return context

    def make_probe(self):
        op = ProbeOp("ht", "k", ("payload",))
        op.bind(["a", "k"], ["a", "payload"], {"a": 8, "k": 4, "payload": 8}, 1.0)
        return op

    def test_probe_apply(self):
        context = self.context_with_table()
        out = self.make_probe().apply(
            {"a": np.array([1.0, 2.0]), "k": np.array([2, 0], dtype=np.int32)},
            context,
        )
        assert list(out["payload"]) == [12.0, 10.0]
        assert list(out["a"]) == [1.0, 2.0]

    def test_probe_drops_nonmatching(self):
        context = self.context_with_table()
        out = self.make_probe().apply(
            {"a": np.array([1.0]), "k": np.array([99], dtype=np.int32)},
            context,
        )
        assert batch_rows(out) == 0

    @pytest.mark.parametrize(
        "keys,matched",
        [([2, 0, 1, 1], 4), ([2, 99, 1, 1], 3), ([7, 8, 9, 9], 0)],
    )
    def test_probe_side_passes_through_only_when_all_match(self, keys, matched):
        """Every probe row matching once needs no gather of the probe
        side; a partial match does.  The input tile is never written."""
        context = self.context_with_table()
        tile = {
            "a": np.array([1.0, 2.0, 3.0, 4.0]),
            "k": np.array(keys, dtype=np.int32),
        }
        before = {name: array.copy() for name, array in tile.items()}
        out = self.make_probe().apply(tile, context)
        assert batch_rows(out) == matched
        for name in tile:
            assert np.array_equal(tile[name], before[name])
        assert np.shares_memory(out["a"], tile["a"]) == (matched == 4)
        assert list(out["a"]) == [
            a for a, k in zip(tile["a"], keys) if k in (0, 1, 2)
        ]

    def test_duplicate_build_keys_always_gather(self):
        """One match per probe row *on average* is not the identity."""
        context = ExecutionContext()
        sink = BuildSink("ht", "p", ("payload",))
        sink.bind(["p", "payload"], {"p": 4, "payload": 8})
        sink.start(context)
        sink.consume(
            {
                "p": np.array([5, 5], dtype=np.int32),
                "payload": np.array([10.0, 11.0]),
            },
            context,
        )
        sink.finalize(context)
        tile = {
            "a": np.array([1.0, 2.0]),
            "k": np.array([5, 6], dtype=np.int32),
        }
        out = self.make_probe().apply(tile, context)
        assert list(out["a"]) == [1.0, 1.0]
        assert list(out["payload"]) == [10.0, 11.0]

    def test_gpl_probe_kernel(self):
        kernels = self.make_probe().gpl_kernels()
        assert len(kernels) == 1
        assert kernels[0].spec.name == "k_probe"
        assert kernels[0].aux_build_id == "ht"
        assert kernels[0].aux_reads_per_tuple > 2.0

    def test_kbe_probe_kernels(self):
        names = [k.spec.name for k in self.make_probe().kbe_kernels()]
        assert names == ["k_probe_count", "k_prefix_sum", "k_probe_scatter"]

    def test_build_sink_kernels(self):
        sink = BuildSink("ht", "p", ("p",))
        sink.bind(["p"], {"p": 4})
        assert sink.gpl_kernels()[0].spec.name == "k_hash_build"

    def test_build_sink_lifecycle_errors(self):
        from repro.errors import ExecutionError

        sink = BuildSink("ht", "p", ("p",))
        with pytest.raises(ExecutionError):
            sink.consume({"p": np.array([1])}, ExecutionContext())


class TestAggSink:
    def make(self, keys=("k",)):
        sink = AggSink(keys, (AggSpec("total", "sum", col("a")),))
        sink.bind(["a", "k"], WIDTHS)
        return sink

    def test_grouped(self):
        context = ExecutionContext()
        sink = self.make()
        sink.start(context)
        sink.consume(batch(), context)
        result = sink.finalize(context)
        assert list(result["k"]) == [0, 1, 2]
        assert list(result["total"]) == [4.0, 2.0, 4.0]

    def test_gpl_kernel_is_group_accum(self):
        assert self.make().gpl_kernels()[0].spec.name == "k_group_accum"

    def test_gpl_global_is_reduce(self):
        assert self.make(()).gpl_kernels()[0].spec.name == "k_reduce*"

    def test_kbe_kernels_include_blocking_scan(self):
        kernels = self.make().kbe_kernels()
        assert [k.spec.name for k in kernels] == ["k_agg_map", "k_prefix_scan"]
        assert kernels[1].spec.blocking


class TestSortAndCollect:
    def test_sort_ascending_descending(self):
        context = ExecutionContext()
        sink = SortSink(("a",), (True,))
        sink.bind(["a", "b"], WIDTHS)
        sink.start(context)
        sink.consume(batch(), context)
        result = sink.finalize(context)
        assert list(result["a"]) == [4.0, 3.0, 2.0, 1.0]

    def test_sort_multiple_batches(self):
        context = ExecutionContext()
        sink = SortSink(("a",))
        sink.bind(["a"], WIDTHS)
        sink.start(context)
        sink.consume({"a": np.array([3.0, 1.0])}, context)
        sink.consume({"a": np.array([2.0])}, context)
        assert list(sink.finalize(context)["a"]) == [1.0, 2.0, 3.0]

    def test_sort_kernel_blocking(self):
        sink = SortSink(("a",))
        sink.bind(["a"], WIDTHS)
        assert sink.gpl_kernels()[0].spec.blocking

    def test_kernel_templates_ignore_sink_state(self):
        # A template is asked for at different moments of a run (GPL
        # before ``start``, KBE after the pass): it may depend only on
        # the rows it is told about, never on what the sink holds.
        context = ExecutionContext()
        fresh, held = SortSink(("a",)), SortSink(("a",))
        fresh.bind(["a", "b"], WIDTHS)
        held.bind(["a", "b"], WIDTHS)
        before = held.gpl_kernels()
        held.start(context)
        held.consume(batch(), context)
        assert held.gpl_kernels() == before == fresh.kbe_kernels(rows=2)
        for rows in (0, 4, 60_000):
            assert held.kbe_kernels(rows=rows) == fresh.kbe_kernels(rows=rows)
        assert fresh.kbe_kernels(rows=60_000) != fresh.kbe_kernels(rows=4)
        held.finalize(context)

    def test_collect(self):
        context = ExecutionContext()
        sink = CollectSink()
        sink.bind(["a"], WIDTHS)
        sink.start(context)
        sink.consume({"a": np.array([1.0])}, context)
        sink.consume({"a": np.array([2.0])}, context)
        assert list(sink.finalize(context)["a"]) == [1.0, 2.0]
        assert sink.gpl_kernels() == []

    def test_collect_empty(self):
        context = ExecutionContext()
        sink = CollectSink()
        sink.bind(["a"], WIDTHS)
        sink.start(context)
        assert batch_rows(sink.finalize(context)) == 0
