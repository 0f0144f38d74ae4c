"""Tests for the configuration search (Section 4.1's parameter tuning).

``fixtures/search_choices_sha1.json`` pins the search's output: for every
segment of every TPC-H and SSB catalogue query at SF 0.01 and 0.1 on both
device presets, the SHA-1 of ``repr((choice.config, choice.estimate))``.
It was recorded from the exhaustive per-cell search, before the search
was factored into per-tile and per-rung terms; re-record it with
``PYTHONPATH=src python -m tests.test_search`` only for a change that is
meant to move the model.
"""

import hashlib
import json
import pathlib

import pytest

from repro.core import BoundedStore, GPLConfig, GPLEngine
from repro.errors import ModelError, OccupancyError
from repro.gpu import AMD_A10, NVIDIA_K40, KernelSpec
from repro.model import (
    CalibrationTable,
    ConfigurationSearch,
    CostModel,
    KernelCostInput,
    SegmentCostInput,
    TILE_SIZE_CANDIDATES,
    calibrate_channels,
    clear_search_cache,
    plan_cost_inputs,
    search_cache_stats,
    workgroup_ladder,
)
from repro.ssb import SSB_QUERIES, generate_ssb
from repro.tpch import QUERIES, generate_database, q8, q14

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
SEARCH_PIN = FIXTURES / "search_choices_sha1.json"
MIB = 1024 * 1024


def search_choice_digests():
    """``{device/benchmark/SF/query/segment: sha1}`` over the catalogue."""
    digests = {}
    catalogues = (
        ("tpch", generate_database, QUERIES),
        ("ssb", generate_ssb, SSB_QUERIES),
    )
    for scale in (0.01, 0.1):
        for benchmark, generate, queries in catalogues:
            database = generate(scale=scale)
            for device in (AMD_A10, NVIDIA_K40):
                search = ConfigurationSearch(
                    device, calibrate_channels(device), use_cache=False
                )
                engine = GPLEngine(database, device)
                for name, spec in sorted(queries.items()):
                    plan = engine.prepare(spec)
                    for segment in plan_cost_inputs(plan, database):
                        key = "/".join(
                            (device.name, benchmark, f"SF{scale}", name,
                             segment.name)
                        )
                        assert key not in digests
                        choice = search.best_for_segment(segment)
                        digests[key] = hashlib.sha1(
                            repr((choice.config, choice.estimate)).encode()
                        ).hexdigest()
    return digests


@pytest.fixture(scope="module")
def search():
    return ConfigurationSearch(AMD_A10, calibrate_channels(AMD_A10))


@pytest.fixture(scope="module")
def q8_segments(small_db):
    engine = GPLEngine(small_db, AMD_A10)
    plan = engine.prepare(q8())
    return plan_cost_inputs(plan, small_db)


class TestLadder:
    def test_s1_is_2_on_amd(self):
        # "We set S_1 to be 2 for AMD GPU."
        ladder = workgroup_ladder(AMD_A10)
        assert ladder[0] == 2
        assert len(ladder) == 7

    def test_doubling(self):
        ladder = workgroup_ladder(AMD_A10)
        for a, b in zip(ladder, ladder[1:]):
            assert b == 2 * a

    def test_scales_with_device(self):
        assert workgroup_ladder(NVIDIA_K40)[0] >= 2


class TestSegmentSearch:
    def test_best_within_candidates(self, search, q8_segments):
        choice = search.best_for_segment(q8_segments[0])
        assert choice.config.tile_bytes in TILE_SIZE_CANDIDATES
        assert choice.config.default_workgroups in workgroup_ladder(AMD_A10)
        assert 1 <= choice.config.channel.num_channels <= 16

    def test_best_minimizes_model(self, search, q8_segments):
        segment = next(s for s in q8_segments if s.name == "main")
        choice = search.best_for_segment(segment)
        model = CostModel(AMD_A10, calibrate_channels(AMD_A10))
        # No sampled alternative beats the chosen configuration.
        for tile_bytes in TILE_SIZE_CANDIDATES[::3]:
            for workgroups in workgroup_ladder(AMD_A10)[::3]:
                alternative = GPLConfig(
                    tile_bytes=tile_bytes,
                    channel=choice.config.channel,
                    default_workgroups=workgroups,
                )
                estimate = model.estimate_segment(segment, alternative)
                assert (
                    choice.predicted_cycles <= estimate.total_cycles * 1.0001
                )

    def test_optimize_plan_covers_all_segments(self, search, q8_segments):
        configs, total = search.optimize_plan(q8_segments)
        assert set(configs) == {s.name for s in q8_segments}
        assert total > 0

    def test_optimized_beats_or_matches_default_in_model(
        self, search, q8_segments
    ):
        model = CostModel(AMD_A10, calibrate_channels(AMD_A10))
        configs, optimized_total = search.optimize_plan(q8_segments)
        default_total = model.estimate_plan(
            q8_segments, default=GPLConfig()
        )
        assert optimized_total <= default_total


class TestMeasuredEffect:
    def test_optimized_config_helps_measured_runtime(self, small_db, search):
        engine = GPLEngine(small_db, AMD_A10)
        plan = engine.prepare(q8())
        segments = plan_cost_inputs(plan, small_db)
        configs, _ = search.optimize_plan(segments)
        default_run = GPLEngine(small_db, AMD_A10).execute(q8())
        tuned_run = GPLEngine(
            small_db, AMD_A10, segment_configs=configs
        ).execute(q8())
        # The tuned configuration must not be materially worse.
        assert tuned_run.elapsed_ms <= default_run.elapsed_ms * 1.1

    def test_q14_optimization_runs(self, small_db, search):
        engine = GPLEngine(small_db, AMD_A10)
        plan = engine.prepare(q14())
        segments = plan_cost_inputs(plan, small_db)
        configs, total = search.optimize_plan(segments)
        assert "main" in configs and total > 0

    def test_search_is_fast(self, small_db, search, q8_segments):
        import time

        start = time.perf_counter()
        search.optimize_plan(q8_segments)
        elapsed = time.perf_counter() - start
        # "elapsed time for query optimization is generally smaller than
        # 5ms" on the paper's hardware; allow generous slack in Python.
        assert elapsed < 2.0


class TestSearchCacheBound:
    """The memo is a ``BoundedStore``; the tests shrink it in place."""

    @pytest.fixture
    def memo(self, monkeypatch):
        from repro.model import search as search_module

        clear_search_cache()
        yield search_module._SEARCH_MEMO
        clear_search_cache()

    def test_lru_eviction_counted_and_bounded(
        self, memo, monkeypatch, search, q8_segments
    ):
        monkeypatch.setattr(memo, "max_entries", 1)
        search.optimize_plan(q8_segments)  # > 1 distinct segments
        stats = search_cache_stats()
        assert stats["limit"] == 1
        assert stats["size"] <= 1
        assert stats["evictions"] >= len(q8_segments) - 1
        # A re-run now misses on the evicted shapes instead of hitting.
        misses = stats["misses"]
        search.optimize_plan(q8_segments)
        assert search_cache_stats()["misses"] > misses

    def test_hits_refresh_lru_order(
        self, memo, monkeypatch, search, q8_segments
    ):
        monkeypatch.setattr(memo, "max_entries", len(q8_segments))
        search.optimize_plan(q8_segments)  # fills the cache exactly
        search.optimize_plan(q8_segments)  # all hits, no evictions
        stats = search_cache_stats()
        assert stats["hits"] >= len(q8_segments)
        assert stats["evictions"] == 0

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            BoundedStore(max_entries=-1)


class TestRecordedChoices:
    def test_catalogue_choices_match_recorded_digests(self):
        recorded = json.loads(SEARCH_PIN.read_text())
        assert search_choice_digests() == recorded


def _leaf(spec_name="k_scan", lm_per_workitem=0):
    return KernelCostInput(
        spec=KernelSpec(
            name=spec_name,
            compute_instr=20.0,
            memory_instr=2.0,
            pm_per_workitem=32,
            lm_per_workitem=lm_per_workitem,
        ),
        selectivity=0.5,
        in_width=16,
        out_width=8,
        is_leaf=True,
    )


class TestSearchEdgeCases:
    def test_tied_cells_keep_the_first_candidate(self):
        # One leaf kernel over 64 KiB: every Δ candidate holds the whole
        # input in one tile, and without a channel or an aux structure
        # nothing else in Eqs 3–9 reads Δ, so the seven tiles of a rung
        # tie exactly and the first one in candidate order must win.
        segment = SegmentCostInput(
            name="tiny", kernels=(_leaf(),), source_rows=4096,
            source_width=16,
        )
        table = calibrate_channels(AMD_A10)
        model = CostModel(AMD_A10, table)
        forward = ConfigurationSearch(AMD_A10, table, use_cache=False)
        choice = forward.best_for_segment(segment)
        tied = {
            model.estimate_segment(
                segment, choice.config.with_tile_bytes(tile_bytes)
            ).total_cycles
            for tile_bytes in TILE_SIZE_CANDIDATES
        }
        assert tied == {choice.predicted_cycles}
        assert choice.config.tile_bytes == TILE_SIZE_CANDIDATES[0]
        backward = ConfigurationSearch(
            AMD_A10, table, tile_candidates=TILE_SIZE_CANDIDATES[::-1],
            use_cache=False,
        )
        assert (
            backward.best_for_segment(segment).config.tile_bytes
            == TILE_SIZE_CANDIDATES[-1]
        )

    def test_zero_throughput_on_a_losing_tile_still_raises(self):
        # Γ is stubbed to 0 only at working sets of 16 MiB and above,
        # which only the 16 MiB tile reaches (8 MiB + its 4 MiB flow is
        # 12 MiB); that tile does not win, yet evaluating it must fail.
        segment = SegmentCostInput(
            name="chain",
            kernels=(
                _leaf(),
                KernelCostInput(
                    spec=_leaf().spec, selectivity=1.0, in_width=8,
                    out_width=8,
                ),
            ),
            source_rows=2_000_000,
            source_width=16,
        )
        table = calibrate_channels(AMD_A10)
        real = ConfigurationSearch(AMD_A10, table, use_cache=False)
        assert real.best_for_segment(segment).config.tile_bytes < 16 * MIB

        class ZeroForLargeWorkingSets(CalibrationTable):
            def throughput(self, num_channels, packet_bytes, data_bytes):
                if data_bytes >= 16 * MIB:
                    return 0.0
                return super().throughput(
                    num_channels, packet_bytes, data_bytes
                )

        stub = ZeroForLargeWorkingSets(device=AMD_A10)
        for point in table.points:
            stub.add(point)
        with pytest.raises(ModelError):
            ConfigurationSearch(
                AMD_A10, stub, use_cache=False
            ).best_for_segment(segment)

    def test_unplaceable_kernel_raises_occupancy_error(self):
        # 1 KiB of local memory per work-item: one 64-wide work-group
        # needs 64 KiB, twice a CU's local memory.
        segment = SegmentCostInput(
            name="fat", kernels=(_leaf(lm_per_workitem=1024),),
            source_rows=10_000, source_width=16,
        )
        search = ConfigurationSearch(
            AMD_A10, calibrate_channels(AMD_A10), use_cache=False
        )
        with pytest.raises(OccupancyError):
            search.best_for_segment(segment)


if __name__ == "__main__":
    SEARCH_PIN.write_text(
        json.dumps(search_choice_digests(), indent=1, sort_keys=True) + "\n"
    )
