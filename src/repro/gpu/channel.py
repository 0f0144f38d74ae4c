"""Inter-kernel data channels (OpenCL 2.0 pipes / CUDA direct transfer).

A channel passes packets between two concurrently running kernels without
materializing them in global memory (paper Section 2.1 / 3.4).  Three
parameters govern it — the number of channels ``n``, the packet size ``p``
(AMD only; NVIDIA's is fixed), and the data volume ``d`` streamed through —
and the paper calibrates throughput as Γ(n, p, d).

This module provides:

* :class:`ChannelConfig` — the (n, p, depth) tuple;
* :class:`ChannelModel` — the per-packet cost function the simulator
  charges for reservations and transfers.  Its structure encodes the three
  calibrated effects of Fig 2/23: reservation contention relieved by more
  channels, per-channel management cost growing with ``n``, and cache
  thrashing once the streamed volume outgrows the data cache;
* :class:`ChannelState` — the runtime bounded buffer used by the
  discrete-event pipeline simulator (occupancy, backpressure).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ChannelError, ChannelSnapshot
from .cache import CacheModel
from .device import DeviceSpec

__all__ = ["ChannelConfig", "ChannelModel", "ChannelState"]

#: Paper default: "The channel packet size is set as 16 bytes, which
#: achieves the best efficiency in most scenarios."
DEFAULT_PACKET_BYTES = 16
DEFAULT_DEPTH_PACKETS = 2048
MAX_CHANNELS = 32


@dataclass(frozen=True)
class ChannelConfig:
    """One channel binding between a producer and a consumer kernel."""

    num_channels: int = 4
    packet_bytes: int = DEFAULT_PACKET_BYTES
    depth_packets: int = DEFAULT_DEPTH_PACKETS

    def __post_init__(self) -> None:
        if not 1 <= self.num_channels <= MAX_CHANNELS:
            raise ChannelError(
                f"number of channels must be in [1, {MAX_CHANNELS}]"
            )
        if self.packet_bytes < 4 or self.packet_bytes > 4096:
            raise ChannelError("packet size must be in [4, 4096] bytes")
        if self.depth_packets < 1:
            raise ChannelError("channel depth must be positive")

    @property
    def capacity_packets(self) -> int:
        """Total in-flight packets across all channels of the binding."""
        return self.num_channels * self.depth_packets

    @property
    def capacity_bytes(self) -> int:
        return self.capacity_packets * self.packet_bytes

    def packets_for(self, nbytes: float) -> int:
        """Packets needed to carry ``nbytes`` (ceil division)."""
        if nbytes <= 0:
            return 0
        return int(-(-nbytes // self.packet_bytes))


@dataclass(frozen=True)
class ChannelModel:
    """Cycle costs of channel operations on a given device.

    Per-packet cost = reservation overhead + payload transfer.  The
    reservation overhead over ``n`` channels is::

        resv(n) = contention / n + base + management * n

    — contention on the channel's atomic reservation counters is divided
    across channels, while bookkeeping grows with the channel count; the
    sum is U-shaped with a minimum in the 4–16 range, matching the paper's
    observation that "the throughput of data channels continues to drop
    when the number of channels is over 16".

    Payload transfer cost depends on whether the packets are still
    cache-resident when the consumer reads them, which the working-set
    cache model decides from the total volume ``d`` streamed per burst.
    """

    device: DeviceSpec
    cache: CacheModel
    reservation_contention: float = 96.0
    reservation_base: float = 6.0
    reservation_management: float = 0.5
    #: Commit/visibility bookkeeping charged per packet (cheap: the
    #: expensive reservation happens once per work-group, Fig 9).
    per_packet_base: float = 0.5
    #: Atomic head/tail contention among concurrent committers is divided
    #: across channels: the benefit of using more than one channel.
    per_packet_contention: float = 8.0
    #: Per-packet cost of managing many channels (index selection,
    #: per-channel state): this is what makes throughput "continue to
    #: drop when the number of channels is over 16".
    per_packet_channel_cost: float = 0.05
    #: Register pressure of staging one packet in private memory grows
    #: superlinearly with packet size (spilling); this is why ~16-byte
    #: packets "achieve the best efficiency in most scenarios".
    packet_spill_divisor: float = 16.0

    @classmethod
    def for_device(cls, device: DeviceSpec) -> "ChannelModel":
        return cls(device=device, cache=CacheModel(device.cache_bytes))

    def reservation_cycles(self, num_channels: int) -> float:
        """Reserve+commit cost charged once per work-group burst.

        OpenCL pipes reserve space for a work-group's whole output with one
        atomic transaction (``reserve_write_pipe``); only this fee contends
        across channels (Fig 9's light-weight synchronization).
        """
        return (
            self.reservation_contention / num_channels
            + self.reservation_base
            + self.reservation_management * num_channels
        )

    def stream_hit_ratio(self, stream_bytes: float) -> float:
        """Cache hit ratio for packets of a burst of ``stream_bytes``."""
        return self.cache.hit_ratio(stream_bytes)

    def packet_transfer_cycles(
        self, config: ChannelConfig, stream_bytes: float
    ) -> float:
        """Cycles to move one packet's payload producer -> consumer."""
        hit = self.stream_hit_ratio(stream_bytes)
        lines = max(1.0, config.packet_bytes / 64.0)
        latency = (
            hit * self.device.cache_latency
            + (1.0 - hit) * self.device.global_latency
        )
        overhead = (
            self.per_packet_base
            + self.per_packet_contention / config.num_channels
            + self.per_packet_channel_cost * config.num_channels
            + (config.packet_bytes / self.packet_spill_divisor) ** 2
        )
        return overhead + lines * latency / self.device.memory_parallelism

    def packet_cycles_per_byte(
        self, config: ChannelConfig, stream_bytes: float = 0.0
    ) -> float:
        """Per-byte transfer cost of the configuration (cached stream by
        default); a convenient scalar for comparing channel settings."""
        return (
            self.packet_transfer_cycles(config, stream_bytes)
            / config.packet_bytes
        )

    def burst_cycles(
        self,
        burst_bytes: float,
        config: ChannelConfig,
        stream_bytes: float,
    ) -> float:
        """One work-group's write burst: one reservation + its packets."""
        packets = config.packets_for(burst_bytes)
        return self.reservation_cycles(
            config.num_channels
        ) + packets * self.packet_transfer_cycles(config, stream_bytes)

    def transfer_cycles(
        self,
        nbytes: float,
        config: ChannelConfig,
        stream_bytes: float = None,
        burst_bytes: float = 16 * 1024,
    ) -> float:
        """Total one-direction cycles to stream ``nbytes`` through a binding.

        This closed form is what the analytical model's Γ interpolation is
        validated against; the event simulator charges the same per-burst
        costs but additionally exposes pipelining and backpressure.
        """
        if stream_bytes is None:
            stream_bytes = nbytes
        packets = config.packets_for(nbytes)
        bursts = max(1.0, nbytes / burst_bytes)
        return bursts * self.reservation_cycles(
            config.num_channels
        ) + packets * self.packet_transfer_cycles(config, stream_bytes)

    def throughput_gbps(
        self, nbytes: float, config: ChannelConfig
    ) -> float:
        """Closed-form throughput (GB/s) of one burst; used as a sanity twin
        of the calibrated Γ (the calibration measures via the simulator)."""
        cycles = self.transfer_cycles(nbytes, config)
        if cycles <= 0:
            return 0.0
        seconds = cycles / (self.device.core_mhz * 1e6)
        return nbytes / 1e9 / seconds


class ChannelState:
    """Runtime occupancy of one channel binding during pipeline simulation.

    The producer reserves space for its packets before starting a
    work-group (OpenCL ``reserve_write_pipe`` semantics); the consumer
    frees space when a work-group finishes reading.  ``peak_packets`` is
    recorded for diagnostics and model validation.

    A ``__slots__`` class rather than a dataclass: the simulator touches
    these fields on every event, and slot access keeps that hot path off
    the instance ``__dict__``.
    """

    __slots__ = (
        "config",
        "capacity_packets",
        "buffered_packets",
        "reserved_packets",
        "total_packets",
        "peak_packets",
        "_closed",
    )

    def __init__(
        self,
        config: ChannelConfig,
        buffered_packets: int = 0,
        reserved_packets: int = 0,
        total_packets: int = 0,
        peak_packets: int = 0,
    ) -> None:
        self.config = config
        self.capacity_packets = config.capacity_packets
        self.buffered_packets = buffered_packets
        self.reserved_packets = reserved_packets
        self.total_packets = total_packets
        self.peak_packets = peak_packets
        self._closed = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ChannelState(config={self.config!r}, "
            f"buffered_packets={self.buffered_packets}, "
            f"reserved_packets={self.reserved_packets}, "
            f"total_packets={self.total_packets}, "
            f"peak_packets={self.peak_packets})"
        )

    @property
    def in_flight(self) -> int:
        return self.buffered_packets + self.reserved_packets

    def can_reserve(self, packets: int) -> bool:
        """Whether the producer may start a work-group needing ``packets``."""
        return self.in_flight + packets <= self.capacity_packets

    def try_reserve(self, packets: int) -> bool:
        """Reserve space for ``packets`` if it fits; ``False`` (and no
        change) when the producer must wait — one capacity test for the
        event loop's check-then-reserve."""
        reserved = self.reserved_packets + packets
        if self.buffered_packets + reserved > self.capacity_packets:
            return False
        self.reserved_packets = reserved
        return True

    def reserve(self, packets: int) -> None:
        if not self.try_reserve(packets):
            raise ChannelError("reserve beyond channel capacity")

    def commit(self, packets: int) -> None:
        """Producer work-group finished: its packets become visible."""
        if packets > self.reserved_packets:
            raise ChannelError("commit without matching reservation")
        self.reserved_packets -= packets
        self.buffered_packets += packets
        self.total_packets += packets
        self.peak_packets = max(self.peak_packets, self.in_flight)

    def consume(self, packets: int) -> None:
        """Consumer work-group finished reading ``packets``."""
        if packets > self.buffered_packets:
            raise ChannelError("consume more packets than buffered")
        self.buffered_packets -= packets

    @property
    def total_bytes(self) -> int:
        return self.total_packets * self.config.packet_bytes

    @property
    def occupancy(self) -> float:
        """In-flight fraction of capacity (1.0 = fully backpressured)."""
        return self.in_flight / self.capacity_packets

    def snapshot(self, edge: int) -> ChannelSnapshot:
        """Freeze the edge's occupancy for a watchdog diagnostic."""
        return ChannelSnapshot(
            edge=edge,
            buffered_packets=self.buffered_packets,
            reserved_packets=self.reserved_packets,
            capacity_packets=self.capacity_packets,
            total_packets=self.total_packets,
        )
