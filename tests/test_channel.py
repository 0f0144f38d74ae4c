"""Tests for the channel (pipe) configuration, cost model, and runtime."""

import pytest

from repro.errors import ChannelError
from repro.gpu import AMD_A10, ChannelConfig, ChannelModel, ChannelState

MIB = 1024 * 1024


class TestChannelConfig:
    def test_defaults_match_paper(self):
        config = ChannelConfig()
        assert config.packet_bytes == 16  # "packet size is set as 16 bytes"

    def test_capacity(self):
        config = ChannelConfig(num_channels=4, packet_bytes=16, depth_packets=100)
        assert config.capacity_packets == 400
        assert config.capacity_bytes == 6400

    def test_packets_for(self):
        config = ChannelConfig(packet_bytes=16)
        assert config.packets_for(0) == 0
        assert config.packets_for(1) == 1
        assert config.packets_for(16) == 1
        assert config.packets_for(17) == 2
        assert config.packets_for(160) == 10

    @pytest.mark.parametrize("bad", [0, -1, 33])
    def test_channel_count_bounds(self, bad):
        with pytest.raises(ChannelError):
            ChannelConfig(num_channels=bad)

    def test_packet_size_bounds(self):
        with pytest.raises(ChannelError):
            ChannelConfig(packet_bytes=2)
        with pytest.raises(ChannelError):
            ChannelConfig(packet_bytes=8192)

    def test_depth_bounds(self):
        with pytest.raises(ChannelError):
            ChannelConfig(depth_packets=0)


class TestChannelModel:
    @pytest.fixture()
    def model(self):
        return ChannelModel.for_device(AMD_A10)

    def test_reservation_u_shape_in_channels(self, model):
        costs = {n: model.reservation_cycles(n) for n in (1, 4, 16, 32)}
        assert costs[1] > costs[4]  # contention relief
        assert costs[32] > costs[16] or costs[16] <= costs[4]

    def test_packet_cost_u_shape_in_channels(self, model):
        def per_byte(n):
            config = ChannelConfig(num_channels=n)
            return model.packet_cycles_per_byte(config)

        assert per_byte(1) > per_byte(8)
        assert per_byte(32) > per_byte(16)

    def test_packet_size_sweet_spot(self, model):
        def per_byte(p):
            config = ChannelConfig(packet_bytes=p, num_channels=8)
            return (
                model.packet_transfer_cycles(config, 1024) / p
            )

        # 16-32B packets beat both tiny and huge ones.
        assert per_byte(16) < per_byte(4)
        assert per_byte(32) < per_byte(256)

    def test_thrash_raises_transfer_cost(self, model):
        config = ChannelConfig()
        cached = model.packet_transfer_cycles(config, 1 * MIB)
        thrashed = model.packet_transfer_cycles(config, 64 * MIB)
        assert thrashed > cached

    def test_transfer_cycles_scale(self, model):
        config = ChannelConfig()
        one = model.transfer_cycles(1 * MIB, config, stream_bytes=1 * MIB)
        two = model.transfer_cycles(2 * MIB, config, stream_bytes=1 * MIB)
        assert two == pytest.approx(2 * one, rel=0.01)

    def test_throughput_positive(self, model):
        assert model.throughput_gbps(1 * MIB, ChannelConfig()) > 0


class TestChannelState:
    def test_reserve_commit_consume(self):
        state = ChannelState(ChannelConfig(num_channels=1, depth_packets=10))
        state.reserve(4)
        assert state.in_flight == 4
        assert state.buffered_packets == 0
        state.commit(4)
        assert state.buffered_packets == 4
        state.consume(4)
        assert state.buffered_packets == 0
        assert state.total_packets == 4
        assert state.total_bytes == 4 * 16

    def test_capacity_enforced(self):
        state = ChannelState(ChannelConfig(num_channels=1, depth_packets=4))
        assert state.can_reserve(4)
        assert not state.can_reserve(5)
        state.reserve(4)
        with pytest.raises(ChannelError):
            state.reserve(1)

    def test_try_reserve_counts_buffered_and_reserved(self):
        state = ChannelState(ChannelConfig(num_channels=2, depth_packets=4))
        assert state.capacity_packets == state.config.capacity_packets == 8
        assert state.try_reserve(3)
        state.commit(3)
        assert state.try_reserve(5)
        assert not state.try_reserve(1)
        assert (state.buffered_packets, state.reserved_packets) == (3, 5)
        state.consume(3)
        assert state.try_reserve(3) and state.in_flight == 8

    def test_commit_without_reserve(self):
        state = ChannelState(ChannelConfig())
        with pytest.raises(ChannelError):
            state.commit(1)

    def test_consume_more_than_buffered(self):
        state = ChannelState(ChannelConfig())
        state.reserve(2)
        state.commit(2)
        with pytest.raises(ChannelError):
            state.consume(3)

    def test_peak_tracking(self):
        state = ChannelState(ChannelConfig(num_channels=1, depth_packets=10))
        state.reserve(6)
        state.commit(6)
        state.consume(6)
        state.reserve(3)
        state.commit(3)
        assert state.peak_packets == 6
