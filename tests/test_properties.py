"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Tiler, split_into_segments
from repro.gpu import (
    AMD_A10,
    NVIDIA_K40,
    CacheModel,
    ChannelConfig,
    ChannelState,
    DataLocation,
    KernelLaunch,
    KernelSpec,
    Simulator,
    StageSpec,
)
from repro.gpu.simulator import clear_simulation_memo, simulation_memo_stats
from repro.errors import ChannelError, SimulationError
from repro.obs import Tracer, use_tracer
from repro.plans import AggSpec
from repro.plans.physical import FilterOp
from repro.plans.runtime import (
    ExecutionContext,
    GroupAggState,
    HashTable,
    PartitionedHashTable,
)
from repro.relational import col

ints = st.integers(min_value=0, max_value=50)
int_arrays = st.lists(ints, min_size=0, max_size=200).map(
    lambda xs: np.asarray(xs, dtype=np.int64)
)
float_arrays = st.lists(
    st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
    min_size=0,
    max_size=200,
)


INT32 = np.iinfo(np.int32)
INT64 = np.iinfo(np.int64)
#: Far from every drawn key: its range defeats the direct-address index.
OUTLIER = 10**9

#: Key shapes that take the direct-address index / the binary search.
DENSE_SHAPES = (
    "dense_unique", "dense_duplicate", "negative", "int32_low",
    "int32_high", "int64_probe", "float_probe", "empty_probe",
)
SORTED_SHAPES = (
    "sparse_unique", "sparse_duplicate", "int32_both_ends", "float",
    "uint64", "empty_build",
)


@st.composite
def join_keys(draw, shape=None):
    """``(build, probe)`` key arrays; each shape forces one probe branch."""
    if shape is None:
        shape = draw(st.sampled_from(DENSE_SHAPES + SORTED_SHAPES))
    dtype, probe_dtype = np.int32, np.int32
    low = draw(st.integers(-100, 100))
    if shape == "negative":
        low = draw(st.integers(-5000, -100))
    elif shape == "int32_low":
        low = INT32.min
    elif shape == "int32_high":
        low = INT32.max - 60
    elif shape == "uint64":
        low = draw(st.integers(0, 100))
    duplicate = shape.endswith("duplicate")
    build = draw(
        st.lists(
            st.integers(low, low + 60),
            min_size=1,
            max_size=80,
            unique=not duplicate,
        )
    )
    if duplicate:
        build.append(build[0])
    # Probe inside the build range and past it: below, above, both, neither.
    first, last = min(build), max(build)
    probe = draw(
        st.lists(st.integers(first, last), min_size=1, max_size=120)
    )
    beyond = st.lists(st.integers(1, 20), min_size=1, max_size=5)
    if draw(st.booleans()):
        probe += [first - step for step in draw(beyond)]
    if draw(st.booleans()):
        probe += [last + step for step in draw(beyond)]
    if shape.startswith("sparse"):
        build.append(OUTLIER)
    if shape.startswith("int32"):
        probe = [key for key in probe if INT32.min <= key <= INT32.max]
        probe += [INT32.min, INT32.max]
    if shape == "int32_both_ends":
        build += [INT32.min, INT32.max]
    elif shape == "int64_probe":
        probe_dtype = np.int64
        probe += [INT64.min, INT64.max, INT32.min - 1, INT32.max + 1]
    elif shape == "float":
        dtype = probe_dtype = np.float64
        build = [key / 2 for key in build]
    elif shape == "float_probe":
        probe_dtype = np.float64
        probe = [key / 2 for key in probe] + probe
    elif shape == "uint64":
        dtype = probe_dtype = np.uint64
        probe = [key for key in probe if key >= 0]
    elif shape == "empty_build":
        build = []
    elif shape == "empty_probe":
        probe = []
    return np.asarray(build, dtype=dtype), np.asarray(probe, dtype=probe_dtype)


def _finalized(table, build, splits=1):
    rows = np.arange(build.size)
    for keys, row in zip(
        np.array_split(build, splits), np.array_split(rows, splits)
    ):
        table.insert({"k": keys, "row": row})
    table.finalize()
    return table


def _matches(table, probe):
    """The probe's answer as (probe row, build row) pairs, in order."""
    probe_idx, build_idx = table.probe(probe)
    payload = table.payload_rows(build_idx)
    assert np.array_equal(payload["k"], probe[probe_idx])
    return list(zip(probe_idx.tolist(), payload["row"].tolist()))


class TestHashTableProperties:
    @given(keys=join_keys())
    @settings(max_examples=300, deadline=None)
    def test_probe_matches_brute_force(self, keys):
        """Every (probe, build) pair with equal keys appears exactly once:
        probe rows ascending, and build rows ascending within each."""
        build, probe = keys
        table = _finalized(HashTable("k", ("k", "row")), build)
        expected = [
            (i, j)
            for i, p in enumerate(probe.tolist())
            for j, b in enumerate(build.tolist())
            if b == p
        ]
        assert _matches(table, probe) == expected

    @given(keys=join_keys(), splits=st.integers(min_value=1, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_incremental_build_equals_bulk(self, keys, splits):
        build, probe = keys
        bulk = _finalized(HashTable("k", ("k", "row")), build)
        parts = _finalized(HashTable("k", ("k", "row")), build, splits)
        assert _matches(parts, probe) == _matches(bulk, probe)
        assert (parts.num_rows, parts.nbytes) == (bulk.num_rows, bulk.nbytes)

    @pytest.mark.parametrize("shape", DENSE_SHAPES + SORTED_SHAPES)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_shape_takes_its_branch(self, shape, data):
        """The strategies above reach the branch they are named for."""
        build, _ = data.draw(join_keys(shape))
        table = _finalized(HashTable("k", ("k", "row")), build)
        # White-box on purpose: nothing public tells the two paths apart.
        assert (table._index is not None) == (shape in DENSE_SHAPES)
        assert table.unique_keys == (not shape.endswith("duplicate"))
        # The modelled table is keys + payload (k, row); never the index.
        assert table.num_rows == build.size
        assert table.nbytes == 2 * build.nbytes + 8 * build.size

    @pytest.mark.parametrize("shape", DENSE_SHAPES)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_direct_and_sorted_paths_agree_in_order(self, shape, data):
        """One far outlier key forces binary search; the answer must be
        the same pairs in the same order, and a 16-way partitioned table
        must give them too."""
        build, probe = data.draw(join_keys(shape))
        direct = _finalized(HashTable("k", ("k", "row")), build)
        by_search = _finalized(
            HashTable("k", ("k", "row")),
            np.append(build, build.dtype.type(OUTLIER)),
        )
        assert _matches(direct, probe) == _matches(by_search, probe)
        partitioned = _finalized(
            PartitionedHashTable("k", ("k", "row"), 16), build
        )
        assert _matches(partitioned, probe) == _matches(by_search, probe)


class TestGroupAggProperties:
    @given(
        keys=st.lists(ints, min_size=0, max_size=150),
        chunk=st.integers(min_value=1, max_value=17),
    )
    @settings(max_examples=60, deadline=None)
    def test_streaming_sum_matches_numpy(self, keys, chunk):
        keys = np.asarray(keys, dtype=np.int64)
        values = np.arange(keys.size, dtype=np.float64)
        state = GroupAggState(("g",), (AggSpec("s", "sum", col("v")),))
        for start in range(0, keys.size, chunk):
            state.update(
                {
                    "g": keys[start : start + chunk],
                    "v": values[start : start + chunk],
                }
            )
        result = state.result()
        for group, total in zip(result["g"], result["s"]):
            assert total == pytest.approx(values[keys == group].sum())

    @given(values=float_arrays)
    @settings(max_examples=60, deadline=None)
    def test_global_min_max_count(self, values):
        array = np.asarray(values, dtype=np.float64)
        state = GroupAggState(
            (),
            (
                AggSpec("lo", "min", col("v")),
                AggSpec("hi", "max", col("v")),
                AggSpec("n", "count"),
            ),
        )
        state.update({"v": array})
        result = state.result()
        if array.size:
            assert result["lo"][0] == array.min()
            assert result["hi"][0] == array.max()
        assert result["n"][0] == array.size


class TestFilterProperties:
    @given(values=int_arrays, threshold=ints)
    @settings(max_examples=60, deadline=None)
    def test_filter_equals_mask(self, values, threshold):
        op = FilterOp(col("x").ge(int(threshold)))
        op.bind(["x"], ["x"], {"x": 8}, 0.5)
        out = op.apply({"x": values}, ExecutionContext())
        assert np.array_equal(out["x"], values[values >= threshold])


class TestTilerProperties:
    @given(
        rows=st.integers(min_value=0, max_value=5000),
        width=st.integers(min_value=1, max_value=64),
        tile=st.integers(min_value=64, max_value=65536),
    )
    @settings(max_examples=100, deadline=None)
    def test_partition_is_exact_cover(self, rows, width, tile):
        plan = Tiler(tile).plan(rows, width)
        boundaries = plan.boundaries()
        assert len(boundaries) == plan.num_tiles
        if rows == 0:
            assert boundaries == []
            return
        assert boundaries[0][0] == 0
        assert boundaries[-1][1] == rows
        covered = sum(stop - start for start, stop in boundaries)
        assert covered == rows
        for start, stop in boundaries:
            assert 0 < stop - start <= plan.rows_per_tile

    @given(
        rows=st.integers(min_value=1, max_value=3000),
        tile=st.integers(min_value=64, max_value=8192),
    )
    @settings(max_examples=60, deadline=None)
    def test_tiles_reassemble(self, rows, tile):
        batch = {"x": np.arange(rows)}
        pieces = list(Tiler(tile).tiles(batch, row_width=8))
        reassembled = np.concatenate([p["x"] for p in pieces])
        assert np.array_equal(reassembled, batch["x"])


class TestSegmentationProperties:
    @given(flags=st.lists(st.booleans(), min_size=0, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_invariants(self, flags):
        kernels = [
            KernelSpec(
                name=f"k{i}",
                compute_instr=1,
                memory_instr=1,
                pm_per_workitem=8,
                lm_per_workitem=0,
                blocking=blocking,
            )
            for i, blocking in enumerate(flags)
        ]
        segments = split_into_segments(kernels)
        # 1. order is preserved, nothing lost or duplicated
        flattened = [k.name for s in segments for k in s.kernels]
        assert flattened == [k.name for k in kernels]
        # 2. blocking kernels appear only in terminal positions
        for segment in segments:
            for kernel in segment.non_blocking:
                assert not kernel.blocking
        # 3. every segment except possibly the last ends with a blocker
        for segment in segments[:-1]:
            assert segment.blocking_kernel.blocking
        # 4. segment count = blockers (+1 for a non-blocking tail)
        blockers = sum(flags)
        tail = 1 if (flags and not flags[-1]) else 0
        if not flags:
            assert segments == []
        else:
            assert len(segments) == blockers + tail


class TestChannelStateProperties:
    @given(
        operations=st.lists(
            st.tuples(
                st.sampled_from(["reserve", "try_reserve", "commit", "consume"]),
                st.integers(1, 50),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_capacity_never_exceeded(self, operations):
        state = ChannelState(ChannelConfig(num_channels=2, depth_packets=32))
        capacity = state.config.capacity_packets
        for operation, count in operations:
            try:
                if operation == "reserve":
                    state.reserve(count)
                elif operation == "try_reserve":
                    fits = state.can_reserve(count)
                    assert state.try_reserve(count) == fits
                elif operation == "commit":
                    state.commit(count)
                else:
                    state.consume(count)
            except ChannelError:
                continue
            assert 0 <= state.buffered_packets
            assert 0 <= state.reserved_packets
            assert state.in_flight <= capacity
            assert state.peak_packets <= capacity


@st.composite
def segment_requests(draw):
    """``run_pipeline`` arguments: a stage chain, its channels, tiling."""
    num_stages = draw(st.integers(1, 4))
    tile_tuples = draw(st.integers(64, 20_000))
    stages = []
    for index in range(num_stages):
        spec = KernelSpec(
            name=f"k{index}",
            compute_instr=draw(st.floats(1.0, 200.0)),
            memory_instr=draw(st.floats(0.0, 8.0)),
            pm_per_workitem=32,
            lm_per_workitem=8,
        )
        launch = KernelLaunch(
            spec=spec,
            tuples=tile_tuples,
            workgroups=draw(st.sampled_from([1, 2, 4, 8, 16])),
            in_bytes_per_tuple=16,
            out_bytes_per_tuple=8,
            selectivity=draw(st.floats(0.0, 2.0)),
            input_location=(
                DataLocation.GLOBAL if index == 0 else DataLocation.CHANNEL
            ),
            output_location=(
                DataLocation.GLOBAL
                if index == num_stages - 1
                else DataLocation.CHANNEL
            ),
        )
        stages.append(
            StageSpec(
                launch,
                aux_reads_per_tuple=draw(st.sampled_from([0.0, 1.0, 3.0])),
                aux_working_set_bytes=draw(
                    st.sampled_from([0.0, 64e3, 512e6])
                ),
            )
        )
    # Shallow channels on purpose: an over-sized burst must fail the
    # same way cold and warm.
    channels = [
        ChannelConfig(
            num_channels=draw(st.sampled_from([1, 4, 16])),
            packet_bytes=draw(st.sampled_from([16, 64])),
            depth_packets=draw(st.sampled_from([64, 2048, 1 << 16])),
        )
        for _ in range(num_stages - 1)
    ]
    return dict(
        stages=stages,
        channels=channels,
        num_tiles=draw(st.integers(1, 4)),
        tile_tuples=tile_tuples,
        tile_bytes=tile_tuples * 16,
        contention_factor=draw(st.sampled_from([1.0, 1.24])),
    )


class TestSimulationMemoProperties:
    @given(
        request=segment_requests(),
        device=st.sampled_from([AMD_A10, NVIDIA_K40]),
    )
    @settings(max_examples=60, deadline=None)
    def test_replay_equals_rerun(self, request, device):
        def run():
            simulator, tracer = Simulator(device), Tracer()
            with use_tracer(tracer):
                try:
                    result = simulator.run_pipeline(**request)
                except SimulationError as exc:
                    result = repr(exc)
            return result, simulator.counters, tracer.to_json()

        clear_simulation_memo()
        cold = run()
        warm = run()
        assert warm == cold
        stats = simulation_memo_stats()
        finished = not isinstance(cold[0], str)
        assert (stats["hits"], stats["size"]) == (finished, finished)


class TestCacheProperties:
    @given(
        capacity=st.integers(min_value=1024, max_value=1 << 24),
        sizes=st.lists(
            st.integers(min_value=0, max_value=1 << 28), min_size=2, max_size=20
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_hit_ratio_bounded_and_monotone(self, capacity, sizes):
        cache = CacheModel(capacity)
        for size in sizes:
            ratio = cache.hit_ratio(size)
            assert 0.0 < ratio <= 1.0
        ordered = sorted(sizes)
        ratios = [cache.hit_ratio(s) for s in ordered]
        assert all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))
