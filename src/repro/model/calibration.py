"""Channel calibration: measuring Γ(n, p, d) (paper Eq. 1 / Eq. 11).

The paper determines the relationship between channel throughput and its
three knobs — number of channels ``n``, packet size ``p`` (AMD only), and
data size ``d`` — by running a producer/consumer microbenchmark and uses
the measured surface as a cost-model input.  This module does exactly
that against the simulated device: a two-kernel chain pushes ``d`` bytes
through a channel, and the measured throughput is tabulated.

The resulting :class:`CalibrationTable` interpolates log-linearly in
``d`` and answers the model's two questions:

* ``throughput(n, p, d)`` — Γ itself (bytes per cycle);
* ``best_config(d)`` — the (n_max, p_max) maximizing throughput for a
  given transfer size (used by Eq. 6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.store import BoundedStore
from ..errors import CalibrationError
from ..gpu import (
    ChannelConfig,
    DataLocation,
    DeviceSpec,
    KernelLaunch,
    KernelSpec,
    Simulator,
    StageSpec,
)

__all__ = [
    "CALIBRATION_SIZES",
    "CALIBRATION_CHANNELS",
    "CALIBRATION_PACKETS",
    "CalibrationPoint",
    "CalibrationTable",
    "calibrate_channels",
    "calibration_cache_stats",
    "clear_calibration_cache",
]

KIB = 1024

#: Data sizes (in 4-byte integers) swept by the calibration, matching the
#: paper's 512K–8M range (Fig 2 / Fig 23).
CALIBRATION_SIZES: Tuple[int, ...] = (
    256 * KIB,
    512 * KIB,
    1024 * KIB,
    2048 * KIB,
    4096 * KIB,
    8192 * KIB,
)
CALIBRATION_CHANNELS: Tuple[int, ...] = (1, 2, 4, 8, 16, 32)
CALIBRATION_PACKETS: Tuple[int, ...] = (8, 16, 32, 64)

#: The microbenchmark kernels: a producer that generates integers and a
#: consumer that folds them (Section 2.1's calibration experiment).
_PRODUCER = KernelSpec(
    name="k_producer",
    compute_instr=16.0,
    memory_instr=1.0,
    pm_per_workitem=16,
    lm_per_workitem=0,
)
_CONSUMER = KernelSpec(
    name="k_consumer",
    compute_instr=12.0,
    memory_instr=0.0,
    pm_per_workitem=16,
    lm_per_workitem=8,
)


@dataclass(frozen=True)
class CalibrationPoint:
    """One measured configuration."""

    num_channels: int
    packet_bytes: int
    data_bytes: int
    elapsed_cycles: float

    @property
    def bytes_per_cycle(self) -> float:
        if self.elapsed_cycles <= 0:
            return 0.0
        return self.data_bytes / self.elapsed_cycles

    def throughput_gbps(self, device: DeviceSpec) -> float:
        seconds = self.elapsed_cycles / (device.core_mhz * 1e6)
        return self.data_bytes / 1e9 / max(seconds, 1e-18)


def _measure(
    device: DeviceSpec,
    num_integers: int,
    config: ChannelConfig,
    workgroups: Optional[int] = None,
) -> CalibrationPoint:
    """Run the producer/consumer chain once and time it.

    The work-group count scales with the input (one work-group per 64K
    integers, capped): small transfers cannot occupy the device, which is
    the paper's "when the input data is small, the channel is not fully
    utilized" — the rising left flank of Fig 2.
    """
    simulator = Simulator(device)
    data_bytes = num_integers * 4
    if workgroups is None:
        workgroups = int(min(16, max(2, num_integers // 65536)))
    producer = KernelLaunch(
        spec=_PRODUCER,
        tuples=num_integers,
        workgroups=workgroups,
        in_bytes_per_tuple=4,
        out_bytes_per_tuple=4,
        selectivity=1.0,
        input_location=DataLocation.GLOBAL,
        output_location=DataLocation.CHANNEL,
        label="producer",
    )
    consumer = KernelLaunch(
        spec=_CONSUMER,
        tuples=num_integers,
        workgroups=workgroups,
        in_bytes_per_tuple=4,
        out_bytes_per_tuple=0,
        selectivity=0.0,
        input_location=DataLocation.CHANNEL,
        output_location=DataLocation.NONE,
        label="consumer",
    )
    # Burst size per producer work-group must fit the channel; the total
    # in-flight budget is fixed across channel counts (the hardware's pipe
    # buffer does not grow with n — only its partitioning changes) and
    # holds two waves of work-group bursts so reservation granularity does
    # not serialize the producers.
    unit_bytes = data_bytes / workgroups
    burst_packets = math.ceil(unit_bytes / config.packet_bytes)
    total_budget = max(4096, 2 * workgroups * burst_packets)
    depth = math.ceil(total_budget / config.num_channels)
    sized = ChannelConfig(
        num_channels=config.num_channels,
        packet_bytes=config.packet_bytes,
        depth_packets=depth,
    )
    result = simulator.run_pipeline(
        [StageSpec(producer), StageSpec(consumer)],
        [sized],
        num_tiles=1,
        tile_tuples=num_integers,
        tile_bytes=data_bytes,
    )
    return CalibrationPoint(
        num_channels=config.num_channels,
        packet_bytes=config.packet_bytes,
        data_bytes=data_bytes,
        elapsed_cycles=result.elapsed_cycles,
    )


@dataclass
class CalibrationTable:
    """The measured Γ surface for one device."""

    device: DeviceSpec
    points: List[CalibrationPoint] = field(default_factory=list)
    _index: Dict[Tuple[int, int], List[CalibrationPoint]] = field(
        default_factory=dict, repr=False
    )

    def add(self, point: CalibrationPoint) -> None:
        self.points.append(point)
        key = (point.num_channels, point.packet_bytes)
        series = self._index.setdefault(key, [])
        series.append(point)
        series.sort(key=lambda p: p.data_bytes)

    def configurations(self) -> List[Tuple[int, int]]:
        return sorted(self._index)

    def series(self, num_channels: int, packet_bytes: int) -> List[CalibrationPoint]:
        return list(self._series(num_channels, packet_bytes))

    def _series(
        self, num_channels: int, packet_bytes: int
    ) -> List[CalibrationPoint]:
        """The stored (not copied) points of one (n, p), sorted by size."""
        try:
            return self._index[(num_channels, packet_bytes)]
        except KeyError:
            raise CalibrationError(
                f"no calibration for n={num_channels}, p={packet_bytes}"
            ) from None

    def throughput(
        self, num_channels: int, packet_bytes: int, data_bytes: float
    ) -> float:
        """Γ(n, p, d) in bytes per cycle, log-interpolated in ``d``."""
        series = self._series(num_channels, packet_bytes)
        if data_bytes <= 0:
            return series[0].bytes_per_cycle
        if data_bytes <= series[0].data_bytes:
            return series[0].bytes_per_cycle
        if data_bytes >= series[-1].data_bytes:
            return series[-1].bytes_per_cycle
        for low, high in zip(series, series[1:]):
            if low.data_bytes <= data_bytes <= high.data_bytes:
                span = math.log(high.data_bytes) - math.log(low.data_bytes)
                frac = (math.log(data_bytes) - math.log(low.data_bytes)) / span
                return (
                    low.bytes_per_cycle
                    + (high.bytes_per_cycle - low.bytes_per_cycle) * frac
                )
        raise CalibrationError("interpolation fell through")  # pragma: no cover

    def best_config(self, data_bytes: float) -> Tuple[int, int]:
        """(n_max, p_max): the configuration maximizing Γ for ``d``."""
        best: Optional[Tuple[float, Tuple[int, int]]] = None
        for key in self.configurations():
            value = self.throughput(key[0], key[1], data_bytes)
            if best is None or value > best[0]:
                best = (value, key)
        if best is None:
            raise CalibrationError("empty calibration table")
        return best[1]


#: Memoized Γ tables, keyed by device name and the swept grid: a sweep
#: is a pure function of both, and a process calibrates a handful of
#: (device, grid) pairs, so 64 entries never evict in practice.
_GAMMA_MEMO = BoundedStore(max_entries=64)


def calibration_cache_stats() -> Dict[str, int]:
    """Hit/miss counters of the Γ-table memo.

    A *hit* means a :func:`calibrate_channels` call was answered without
    re-running the producer/consumer sweep; a *miss* means the full grid
    was measured.  Surfaced by :class:`repro.serve.ServiceReport` so
    serving runs can show the calibration cost being paid once.
    """
    stats = _GAMMA_MEMO.counters()
    return {"hits": stats["hits"], "misses": stats["misses"]}


def clear_calibration_cache() -> None:
    """Drop every memoized Γ table and reset the hit/miss counters."""
    _GAMMA_MEMO.clear()


def calibrate_channels(
    device: DeviceSpec,
    sizes: Sequence[int] = CALIBRATION_SIZES,
    channels: Sequence[int] = CALIBRATION_CHANNELS,
    packets: Optional[Sequence[int]] = None,
) -> CalibrationTable:
    """Sweep the calibration grid on ``device`` (memoized per device
    name and grid).

    NVIDIA's packet size is not user-tunable (Appendix A.1), so its grid
    collapses to the default packet size.
    """
    if packets is None:
        packets = CALIBRATION_PACKETS if device.tunable_packet_size else (16,)
    sizes, channels, packets = tuple(sizes), tuple(channels), tuple(packets)

    def sweep() -> CalibrationTable:
        table = CalibrationTable(device=device)
        for packet_bytes in packets:
            for num_channels in channels:
                config = ChannelConfig(
                    num_channels=num_channels, packet_bytes=packet_bytes
                )
                for num_integers in sizes:
                    table.add(_measure(device, num_integers, config))
        return table

    key = (device.name, sizes, channels, packets)
    return _GAMMA_MEMO.get_or_compute(key, sweep)
