"""Tests for the channel calibration (Γ measurement and interpolation)."""

import pytest

from repro.errors import CalibrationError
from repro.gpu import AMD_A10, NVIDIA_K40
from repro.model import CalibrationPoint, CalibrationTable, calibrate_channels

MIB = 1024 * 1024


@pytest.fixture(scope="module")
def amd_table():
    return calibrate_channels(AMD_A10)


@pytest.fixture(scope="module")
def nvidia_table():
    return calibrate_channels(NVIDIA_K40)


class TestCalibrationRun:
    def test_grid_coverage(self, amd_table):
        configs = amd_table.configurations()
        channel_counts = {n for n, _ in configs}
        packet_sizes = {p for _, p in configs}
        assert channel_counts == {1, 2, 4, 8, 16, 32}
        assert 16 in packet_sizes and len(packet_sizes) > 1  # AMD tunable

    def test_nvidia_packet_fixed(self, nvidia_table):
        packet_sizes = {p for _, p in nvidia_table.configurations()}
        assert packet_sizes == {16}

    def test_cached_per_device(self):
        assert calibrate_channels(AMD_A10) is calibrate_channels(AMD_A10)

    def test_memo_keys_on_the_swept_grid(self):
        small = calibrate_channels(AMD_A10, sizes=(1024,), channels=(1,))
        assert len(small.points) == 4  # one size x one channel x 4 packets
        full = calibrate_channels(AMD_A10)
        assert len(full.points) == 144
        assert len(full.configurations()) == 24
        assert calibrate_channels(AMD_A10, sizes=(1024,), channels=(1,)) is small

    def test_points_positive(self, amd_table):
        for point in amd_table.points:
            assert point.elapsed_cycles > 0
            assert point.bytes_per_cycle > 0
            assert point.throughput_gbps(AMD_A10) > 0


class TestFig2Shapes:
    def test_throughput_rises_then_falls_in_d(self, amd_table):
        series = amd_table.series(4, 16)
        throughputs = [p.bytes_per_cycle for p in series]
        peak = max(range(len(throughputs)), key=throughputs.__getitem__)
        assert peak not in (0,), "small inputs underutilize the channel"
        assert throughputs[-1] < throughputs[peak], "large inputs thrash"

    def test_more_channels_help_up_to_16(self, amd_table):
        d = 4 * MIB
        t1 = amd_table.throughput(1, 16, d)
        t4 = amd_table.throughput(4, 16, d)
        t16 = amd_table.throughput(16, 16, d)
        assert t1 < t4 < t16

    def test_32_channels_worse_than_16(self, amd_table):
        d = 4 * MIB
        assert amd_table.throughput(32, 16, d) < amd_table.throughput(
            16, 16, d
        )

    def test_best_config_channels_at_most_16(self, amd_table):
        # "n can be selected between 1 and 16"
        for d in (256 * 1024, MIB, 8 * MIB):
            n_max, _ = amd_table.best_config(d)
            assert 1 <= n_max <= 16


class TestInterpolation:
    def test_exact_points_returned(self, amd_table):
        series = amd_table.series(4, 16)
        for point in series:
            assert amd_table.throughput(4, 16, point.data_bytes) == (
                pytest.approx(point.bytes_per_cycle)
            )

    def test_between_points(self, amd_table):
        series = amd_table.series(4, 16)
        lo, hi = series[0], series[1]
        mid = (lo.data_bytes + hi.data_bytes) // 2
        value = amd_table.throughput(4, 16, mid)
        assert min(lo.bytes_per_cycle, hi.bytes_per_cycle) <= value <= max(
            lo.bytes_per_cycle, hi.bytes_per_cycle
        )

    def test_clamped_outside_range(self, amd_table):
        series = amd_table.series(4, 16)
        assert amd_table.throughput(4, 16, 1) == series[0].bytes_per_cycle
        assert amd_table.throughput(4, 16, 10**12) == (
            series[-1].bytes_per_cycle
        )

    def test_unknown_config_rejected(self, amd_table):
        with pytest.raises(CalibrationError):
            amd_table.series(5, 16)
        with pytest.raises(CalibrationError):
            amd_table.throughput(4, 7, MIB)

    def test_empty_table_best_config(self):
        with pytest.raises(CalibrationError):
            CalibrationTable(device=AMD_A10).best_config(MIB)

    def test_manual_points(self):
        table = CalibrationTable(device=AMD_A10)
        table.add(CalibrationPoint(4, 16, 1000, 100.0))
        table.add(CalibrationPoint(4, 16, 4000, 200.0))
        assert table.throughput(4, 16, 1000) == 10.0
        assert table.best_config(1000) == (4, 16)
