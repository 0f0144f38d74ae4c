"""Property-based tests on the analytical cost model."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import GPLConfig
from repro.gpu import AMD_A10, NVIDIA_K40, KernelSpec
from repro.model import (
    ConfigurationSearch,
    CostModel,
    KernelCostInput,
    SegmentCostInput,
    calibrate_channels,
)
from repro.plans import kernels as library

MIB = 1024 * 1024

_MODEL = None


def model() -> CostModel:
    global _MODEL
    if _MODEL is None:
        _MODEL = CostModel(AMD_A10, calibrate_channels(AMD_A10))
    return _MODEL


def kernel(compute, memory, sel, leaf):
    return KernelCostInput(
        spec=KernelSpec(
            name="k",
            compute_instr=compute,
            memory_instr=memory,
            pm_per_workitem=32,
            lm_per_workitem=8,
        ),
        selectivity=sel,
        in_width=16,
        out_width=8,
        is_leaf=leaf,
    )


@st.composite
def segments(draw):
    num = draw(st.integers(min_value=1, max_value=4))
    kernels = []
    for index in range(num):
        kernels.append(
            kernel(
                compute=draw(st.floats(min_value=1, max_value=200)),
                memory=draw(st.floats(min_value=0, max_value=8)),
                sel=draw(st.floats(min_value=0.01, max_value=1.5)),
                leaf=index == 0,
            )
        )
    rows = draw(st.integers(min_value=1_000, max_value=2_000_000))
    return SegmentCostInput(
        name="seg", kernels=tuple(kernels), source_rows=rows, source_width=16
    )


class TestModelProperties:
    @given(segment=segments())
    @settings(max_examples=60, deadline=None)
    def test_estimates_finite_and_positive(self, segment):
        estimate = model().estimate_segment(segment, GPLConfig())
        assert estimate.total_cycles > 0
        assert estimate.delay_cycles >= 0
        assert estimate.num_tiles >= 1
        for kernel_estimate in estimate.kernels:
            assert kernel_estimate.compute_cycles >= 0
            assert kernel_estimate.memory_cycles >= 0

    @given(segment=segments())
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_rows(self, segment):
        small = model().estimate_segment(segment, GPLConfig())
        bigger = SegmentCostInput(
            name=segment.name,
            kernels=segment.kernels,
            source_rows=segment.source_rows * 4,
            source_width=segment.source_width,
        )
        large = model().estimate_segment(bigger, GPLConfig())
        assert large.total_cycles > small.total_cycles

    @given(segment=segments())
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_instruction_scale(self, segment):
        base = model().estimate_segment(segment, GPLConfig())
        scaled = SegmentCostInput(
            name=segment.name,
            kernels=tuple(
                KernelCostInput(
                    spec=k.spec.scaled(3.0),
                    selectivity=k.selectivity,
                    in_width=k.in_width,
                    out_width=k.out_width,
                    aux_reads_per_tuple=k.aux_reads_per_tuple,
                    aux_working_set_bytes=k.aux_working_set_bytes,
                    is_leaf=k.is_leaf,
                )
                for k in segment.kernels
            ),
            source_rows=segment.source_rows,
            source_width=segment.source_width,
        )
        heavier = model().estimate_segment(scaled, GPLConfig())
        assert heavier.total_cycles > base.total_cycles

    @given(
        segment=segments(),
        tile_kb=st.sampled_from([256, 1024, 4096, 16384]),
    )
    @settings(max_examples=40, deadline=None)
    def test_deterministic(self, segment, tile_kb):
        config = GPLConfig(tile_bytes=tile_kb * 1024)
        first = model().estimate_segment(segment, config)
        second = model().estimate_segment(segment, config)
        assert first.total_cycles == second.total_cycles


#: Kernel specs exactly as the plan lowering builds them.
_LIBRARY_SPECS = (
    library.map_kernel([], 2),
    library.partition_kernel(2),
    library.hash_build_kernel(1),
    library.probe_kernel(1),
    library.probe_kernel(3),
    library.reduce_kernel([]),
    library.group_accumulate_kernel([], 2),
    library.aggregate_finalize_kernel(),
    library.sort_kernel(100_000, 2),
)
_WIDTHS = (0, 4, 8, 16, 40)
_SEARCHES = {}


def search_for(device) -> ConfigurationSearch:
    if device.name not in _SEARCHES:
        _SEARCHES[device.name] = ConfigurationSearch(
            device, calibrate_channels(device), use_cache=False
        )
    return _SEARCHES[device.name]


def brute_force(search, segment):
    """Every grid cell through ``estimate_segment``; strict ``<`` keeps
    the first of equal totals."""
    best = None
    for tile_bytes in search.tile_candidates:
        channel = search._channel_for(segment, tile_bytes)
        for workgroups in search.workgroup_candidates:
            config = GPLConfig(
                tile_bytes=tile_bytes,
                channel=channel,
                default_workgroups=workgroups,
            )
            estimate = search.model.estimate_segment(segment, config)
            if best is None or estimate.total_cycles < best[1].total_cycles:
                best = (config, estimate)
    return best


@st.composite
def library_segments(draw):
    depth = draw(st.integers(min_value=1, max_value=8))
    kernels = tuple(
        KernelCostInput(
            spec=draw(st.sampled_from(_LIBRARY_SPECS)),
            selectivity=draw(st.floats(min_value=0.0, max_value=1.5)),
            in_width=draw(st.sampled_from(_WIDTHS)),
            out_width=draw(st.sampled_from(_WIDTHS)),
            aux_reads_per_tuple=draw(st.sampled_from((0.0, 1.0, 2.5))),
            aux_working_set_bytes=draw(
                st.floats(min_value=0.0, max_value=512 * MIB)
            ),
            is_leaf=index == 0,
        )
        for index in range(depth)
    )
    return SegmentCostInput(
        name="drawn",
        kernels=kernels,
        source_rows=draw(st.floats(min_value=1.0, max_value=5e6)),
        source_width=draw(st.sampled_from((4, 8, 16, 40, 96))),
    )


#: Eight probes: from the fifth rung up Eq. 2 fails on both presets,
#: ``fit_workgroups`` halves every count and the estimate pays
#: scheduling contention.
DEEP_PROBE_CHAIN = SegmentCostInput(
    name="deep",
    kernels=tuple(
        KernelCostInput(
            spec=library.probe_kernel(2),
            selectivity=0.9,
            in_width=16,
            out_width=16,
            aux_reads_per_tuple=1.0,
            aux_working_set_bytes=6 * MIB,
            is_leaf=index == 0,
        )
        for index in range(8)
    ),
    source_rows=3e6,
    source_width=16,
)


class TestSearchEqualsBruteForce:
    @given(
        segment=library_segments(),
        device=st.sampled_from((AMD_A10, NVIDIA_K40)),
    )
    @example(segment=DEEP_PROBE_CHAIN, device=AMD_A10)
    @example(segment=DEEP_PROBE_CHAIN, device=NVIDIA_K40)
    @settings(max_examples=60, deadline=None)
    def test_best_for_segment_is_the_first_minimum(self, segment, device):
        search = search_for(device)
        choice = search.best_for_segment(segment)
        config, estimate = brute_force(search, segment)
        assert choice.config == config
        assert choice.predicted_cycles == estimate.total_cycles
        assert choice.estimate == estimate

    @pytest.mark.parametrize("device", (AMD_A10, NVIDIA_K40))
    def test_deep_chain_reaches_fitted_cells(self, device):
        search = search_for(device)
        cells = [
            search.model.estimate_segment(
                DEEP_PROBE_CHAIN, GPLConfig(default_workgroups=workgroups)
            )
            for workgroups in search.workgroup_candidates
        ]
        assert [cell.feasible for cell in cells] == [True] * 4 + [False] * 3
