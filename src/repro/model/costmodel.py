"""The analytical cost model (paper Section 4, Eqs. 2–9).

Given a segment description, a candidate configuration (tile size Δ,
channel setting, per-kernel work-group counts), the device specification,
and the calibrated Γ, the model predicts the segment's execution time:

* **Eq. 2** — resource feasibility of the concurrent work-group counts;
* **Eq. 3** — ``req_Ki``: rounds needed to run all work-groups;
* **Eq. 4** — computation cost from instruction counts;
* **Eq. 5** — memory cost of leaf / after-blocking kernels (global);
* **Eq. 6** — channel cost of interior kernels, via Γ(n_max, p_max, Δλ);
* **Eq. 7** — ``T_Ki = c_Ki + m_Ki``;
* **Eq. 8** — delay from imbalanced producer/consumer rates;
* **Eq. 9** — ``T_Sk = (1/C) Σ T_Ki + delay``.

The equations are evaluated in three steps, so that a search over a grid
of configurations pays for each input only once:

* :meth:`CostModel.tile_terms` — everything that depends on Δ and the
  channel binding (tile count, per-kernel issue cycles, Eq. 5/6 and aux
  numerators, scheduler overheads);
* :meth:`CostModel.occupancy_terms` — everything that depends on the
  work-group counts (Eq. 2 feasibility, fitted launches, scheduling
  contention, each kernel's active work-groups);
* :meth:`CostModel.combine` — Eqs 3–9 over one pair of terms.

:meth:`CostModel.estimate_segment` is the single-cell case of those
three steps; :class:`~repro.model.search.ConfigurationSearch` combines
every pair of its grid.

The model deliberately assumes ideal concurrency (the 1/C factor), which
— as the paper observes in Section 5.2 — makes it *underestimate*: the
event simulator additionally pays backpressure, residency swaps, and
device-level resource contention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import ModelError
from ..gpu import ChannelConfig, DeviceSpec, KernelLaunch
from ..gpu.memory import MemoryModel
from ..gpu.occupancy import (
    allocate_segment_occupancy,
    check_segment_feasible,
    scheduling_contention,
)
from ..core.config import GPLConfig
from .calibration import CalibrationTable
from .notation import KernelCostInput, SegmentCostInput

__all__ = [
    "KernelEstimate",
    "SegmentEstimate",
    "TileTerms",
    "OccupancyTerms",
    "CellCost",
    "CostModel",
]


@dataclass(frozen=True)
class KernelEstimate:
    """Per-kernel model output (Eq. 4–7), in cycles per tile."""

    name: str
    compute_cycles: float  # c_Ki
    memory_cycles: float  # m_Ki
    tiles: int  # r_Ki

    @property
    def time_cycles(self) -> float:
        """T_Ki (Eq. 7)."""
        return self.compute_cycles + self.memory_cycles

    @property
    def total_cycles(self) -> float:
        return self.time_cycles * self.tiles


@dataclass(frozen=True)
class SegmentEstimate:
    """Model output for one segment (Eq. 8–9)."""

    name: str
    kernels: Tuple[KernelEstimate, ...]
    delay_cycles: float  # delay_Sk
    total_cycles: float  # T_Sk
    num_tiles: int
    feasible: bool = True


@dataclass(frozen=True)
class TileTerms:
    """The inputs to Eqs 3–9 that depend on Δ and the channel binding.

    Per kernel: issue cycles of one tile (the Eq. 4 numerator), the Eq. 5
    or Eq. 6 memory numerator and the aux-structure numerator (0.0 when
    the kernel probes nothing); each is divided by the kernel's active
    work-groups in :meth:`CostModel.combine`.
    """

    num_tiles: int
    issue: Tuple[float, ...]
    memory: Tuple[float, ...]
    aux: Tuple[float, ...]
    overheads: float  # one launch per kernel, one dispatch per tile


@dataclass(frozen=True)
class OccupancyTerms:
    """The inputs to Eqs 3–9 that depend on the work-group counts."""

    feasible: bool  # Eq. 2 held for the requested counts
    contention: float  # > 1 when the counts had to be fitted
    active: Tuple[float, ...]  # per kernel, from the fitted launches


class CellCost(NamedTuple):
    """Eqs 3–9 for one (tile terms, occupancy terms) pair."""

    compute: List[float]  # c_Ki per tile
    memory: List[float]  # m_Ki per tile
    delay: float  # delay_Sk
    total: float  # T_Sk


class CostModel:
    """Evaluates configurations against segments (paper Section 4.1)."""

    def __init__(self, device: DeviceSpec, calibration: CalibrationTable):
        self.device = device
        self.calibration = calibration
        self.memory = MemoryModel.for_device(device)

    # ------------------------------------------------------------------

    def estimate_segment(
        self, segment: SegmentCostInput, config: GPLConfig
    ) -> SegmentEstimate:
        """Predict one segment's execution time under ``config``."""
        # Eq. 2 first, so an unplaceable kernel fails before Γ is read.
        occupancy = self.occupancy_terms(segment, config)
        return self.estimate_from_terms(
            segment, self.tile_terms(segment, config), occupancy
        )

    def estimate_plan(
        self,
        segments: Sequence[SegmentCostInput],
        configs: Optional[Dict[str, GPLConfig]] = None,
        default: Optional[GPLConfig] = None,
    ) -> float:
        """Total predicted cycles of a plan (segments run one by one)."""
        default = default or GPLConfig()
        configs = configs or {}
        return sum(
            self.estimate_segment(
                segment, configs.get(segment.name, default)
            ).total_cycles
            for segment in segments
        )

    # ------------------------------------------------------------------

    def tile_terms(
        self, segment: SegmentCostInput, config: GPLConfig
    ) -> TileTerms:
        """What Eqs 3–9 read from ``config``'s Δ and channel binding.

        Raises :class:`ModelError` if Γ is not positive for a channel
        edge that carries data.
        """
        if not segment.kernels:
            return TileTerms(0, (), (), (), 0.0)
        tile_rows = max(1.0, config.tile_bytes / segment.source_width)
        num_tiles = max(1, math.ceil(segment.source_rows / tile_rows))
        tile_rows = segment.source_rows / num_tiles

        # Working set of the pipelined execution: tile + all live channel
        # flows (Section 3.3); decides Γ's cache-locality regime.
        working_set = float(config.tile_bytes)
        flow = float(config.tile_bytes)
        for kernel in segment.kernels[:-1]:
            flow = max(
                1.0,
                flow
                * kernel.selectivity
                * (kernel.out_width / max(1, kernel.in_width)),
            )
            working_set += flow

        issue: List[float] = []
        memory: List[float] = []
        aux: List[float] = []
        tuples = tile_rows
        for kernel in segment.kernels:
            # Eq. 4's issue cycles; Eq. 3 divides them over active
            # work-groups.
            issue.append(
                tuples
                * kernel.spec.instr_per_tuple
                * self.device.instruction_cycles
                / kernel.spec.workgroup_size
            )
            memory.append(
                self._memory_numerator(
                    kernel, tuples, config.channel, working_set
                )
            )
            aux.append(self._aux_numerator(kernel, tuples, working_set))
            tuples *= kernel.selectivity
        # Scheduler costs: one launch per kernel, one dispatch per tile.
        overheads = (
            len(segment.kernels) * self.device.launch_overhead_cycles
            + num_tiles * self.device.tile_dispatch_cycles
        )
        return TileTerms(
            num_tiles, tuple(issue), tuple(memory), tuple(aux), overheads
        )

    def occupancy_terms(
        self, segment: SegmentCostInput, config: GPLConfig
    ) -> OccupancyTerms:
        """What Eqs 3–9 read from ``config``'s work-group counts (Eq. 2).

        Eq. 2 and the occupancy split read only each launch's spec, label
        and work-group count, so the launches carry no tile.  Raises
        :class:`~repro.errors.OccupancyError` for a kernel that cannot
        fit one work-group on a CU.
        """
        launches = [
            KernelLaunch(
                spec=kernel.spec,
                tuples=0,
                workgroups=config.workgroups_for_stage(index),
                in_bytes_per_tuple=kernel.in_width,
                out_bytes_per_tuple=kernel.out_width,
                selectivity=kernel.selectivity,
                label=f"{kernel.spec.name}#{index}",
            )
            for index, kernel in enumerate(segment.kernels)
        ]
        feasible = check_segment_feasible(launches, self.device)
        contention = 1.0
        if not feasible:
            fitted = config.fit_workgroups(launches, self.device)
            requested = sum(launch.workgroups for launch in launches)
            launches = [
                launch.with_workgroups(fitted[index])
                for index, launch in enumerate(launches)
            ]
            contention = scheduling_contention(
                requested, sum(fitted.values())
            )
        shares = allocate_segment_occupancy(launches, self.device)
        resident = max(
            1, min(len(segment.kernels), self.device.concurrency)
        )
        boost = len(segment.kernels) / resident
        active = tuple(
            max(1.0, min(
                float(launch.workgroups),
                shares[launch.display_name].active_workgroups * boost,
            ))
            for launch in launches
        )
        return OccupancyTerms(feasible, contention, active)

    def combine(self, tile: TileTerms, occupancy: OccupancyTerms) -> CellCost:
        """Eqs 3–9 for one configuration, from its two sets of terms."""
        contention = occupancy.contention
        num_tiles = tile.num_tiles
        compute: List[float] = []
        memory: List[float] = []
        totals: List[float] = []  # T_Ki x r_Ki
        for issue, numerator, aux, active in zip(
            tile.issue, tile.memory, tile.aux, occupancy.active
        ):
            c = issue / active * contention
            m = (numerator / active + aux / active) * contention
            compute.append(c)
            memory.append(m)
            totals.append((c + m) * num_tiles)

        # Eq. 8: accumulated rate imbalance between adjacent kernels.  The
        # imbalance manifests once per pipeline drain, not per tile pair;
        # scale to the pipeline's critical imbalance.
        delay = 0.0
        for left, right in zip(totals, totals[1:]):
            delay += abs(left - right)
        delay = delay / 2.0

        concurrency = max(1, min(len(totals), self.device.concurrency))
        pipeline_total = sum(totals) / concurrency
        # Pipeline fill/drain: the pipe is empty for roughly one tile's
        # worth of work at the start and end; with many small tiles this
        # amortizes away, with few large tiles it does not (the right
        # flank of Fig 12 beyond cache effects).
        fill = (
            pipeline_total / num_tiles * (concurrency - 1) / concurrency
            if len(totals) > 1
            else 0.0
        )
        # A pipeline cannot finish faster than its slowest stage: the
        # bottleneck kernel bounds throughput however many kernels overlap.
        bottleneck = max(totals, default=0.0)
        total = (
            max(pipeline_total + fill + delay, bottleneck) + tile.overheads
        )
        return CellCost(compute, memory, delay, total)

    def estimate_from_terms(
        self,
        segment: SegmentCostInput,
        tile: TileTerms,
        occupancy: OccupancyTerms,
    ) -> SegmentEstimate:
        """The :class:`SegmentEstimate` of one pair of terms."""
        cell = self.combine(tile, occupancy)
        return SegmentEstimate(
            name=segment.name,
            kernels=tuple(
                KernelEstimate(
                    name=kernel.spec.name,
                    compute_cycles=compute,
                    memory_cycles=memory,
                    tiles=tile.num_tiles,
                )
                for kernel, compute, memory in zip(
                    segment.kernels, cell.compute, cell.memory
                )
            ),
            delay_cycles=cell.delay,
            total_cycles=cell.total,
            num_tiles=tile.num_tiles,
            feasible=occupancy.feasible,
        )

    # ------------------------------------------------------------------

    def _memory_numerator(
        self,
        kernel: KernelCostInput,
        tuples: float,
        channel: Optional[ChannelConfig],
        working_set: float,
    ) -> float:
        """Eq. 5 for leaf kernels, Eq. 6 for channel-fed kernels."""
        if kernel.is_leaf:
            # Cold streaming read of the tile (set_l / set_b, Eq. 5).
            hit = self.memory.cache.streaming_hit_ratio(8.0)
            accesses = kernel.spec.memory_instr * tuples
            return self.memory.access_cycles(accesses, hit)
        # Eq. 6: channel volume over calibrated throughput.  Γ is
        # evaluated at the pipelined working set (tile plus live flows),
        # which decides cache residency of the packets; the transfer
        # parallelizes across the kernel's active work-groups.
        data_bytes = tuples * kernel.in_width
        if data_bytes <= 0:
            return 0.0
        locality_bytes = max(data_bytes, working_set)
        n_max, p_max = self._channel_choice(channel, data_bytes)
        gamma = self.calibration.throughput(n_max, p_max, locality_bytes)
        if gamma <= 0:
            raise ModelError("calibrated throughput is zero")
        return data_bytes / gamma

    def _aux_numerator(
        self, kernel: KernelCostInput, tuples: float, working_set: float
    ) -> float:
        """Probes of an auxiliary structure (e.g. a hash table)."""
        if kernel.aux_reads_per_tuple <= 0:
            return 0.0
        # Cache contention between the streamed tile (plus flows) and the
        # probed structure — mirrors the simulator's rule.
        aux_hit = self.memory.cache.hit_ratio(
            kernel.aux_working_set_bytes + 0.5 * working_set
        )
        aux = kernel.aux_reads_per_tuple * tuples
        return self.memory.access_cycles(aux, aux_hit)

    def _channel_choice(
        self, channel: Optional[ChannelConfig], data_bytes: float
    ) -> Tuple[int, int]:
        """(n_max, p_max): from the config if pinned, else from Γ."""
        if channel is not None:
            return (
                channel.num_channels,
                channel.packet_bytes
                if self.device.tunable_packet_size
                else 16,
            )
        return self.calibration.best_config(data_bytes)
