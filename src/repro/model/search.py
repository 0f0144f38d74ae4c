"""Configuration search: picking Δ, n, p, and wg_Ki (paper Section 4.1).

The paper constrains each parameter to a feasible range and exhaustively
searches the reduced space per query segment:

* tile size Δ between 256 KB and 16 MB (the Fig 12 sweep range);
* number of channels 1–16 ("throughput continues to drop when the number
  of channels is over 16"), chosen with the packet size from Γ's argmax
  for the segment's transfer volume;
* work-group counts as integral multiples of #CU, swept through the S_1–
  S_7 doubling ladder of Section 5.2.

The smallest predicted ``T_Sk`` wins (query optimization takes a few
milliseconds, "ignorable compared with the query processing time").
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.config import GPLConfig
from ..core.store import BoundedStore
from ..gpu import ChannelConfig, DeviceSpec
from ..obs.tracing import maybe_span
from .calibration import CalibrationTable
from .costmodel import CostModel, SegmentEstimate
from .notation import SegmentCostInput

__all__ = [
    "TILE_SIZE_CANDIDATES",
    "workgroup_ladder",
    "SegmentChoice",
    "ConfigurationSearch",
    "search_cache_stats",
    "clear_search_cache",
]

KIB = 1024
MIB = 1024 * 1024

#: Δ candidates: 256 KB ... 16 MB in powers of two (Fig 12's sweep).
TILE_SIZE_CANDIDATES: Tuple[int, ...] = (
    256 * KIB,
    512 * KIB,
    1 * MIB,
    2 * MIB,
    4 * MIB,
    8 * MIB,
    16 * MIB,
)


def workgroup_ladder(device: DeviceSpec, steps: int = 7) -> List[int]:
    """The S_1..S_7 work-group settings: S_i = S_1 * 2^(i-1).

    S_1 is 2 for the AMD GPU in the paper; we generalize to one quarter
    of #CU (>= 2) so the ladder scales to other devices.
    """
    base = max(2, device.num_cus // 4)
    return [base * (2 ** i) for i in range(steps)]


@dataclass(frozen=True)
class SegmentChoice:
    """Search outcome for one segment."""

    segment: str
    config: GPLConfig
    estimate: SegmentEstimate

    @property
    def predicted_cycles(self) -> float:
        return self.estimate.total_cycles


#: Memoized search outcomes, keyed by the device (every field: the
#: search reads the whole Table 2 platform input, so a same-named
#: variant is a different device) and a segment/search fingerprint.  The
#: paper argues the search is "ignorable compared with the query
#: processing time" *per query*; a serving workload pays it per *query
#: shape* instead (same idea as the Γ memo one level down).  A
#: long-lived serving process sees an unbounded stream of distinct query
#: shapes (every new scale factor changes the segment fingerprints), so
#: the memo is an LRU of 1024 entries: the catalogue at several scale
#: factors, a few MiB.
_SEARCH_MEMO = BoundedStore(max_entries=1024)


def search_cache_stats() -> Dict[str, int]:
    """Hit/miss/eviction counters and current size of the search memo."""
    return _SEARCH_MEMO.memo_counters()


def clear_search_cache() -> None:
    """Drop every memoized search outcome and reset the counters."""
    _SEARCH_MEMO.clear()


class ConfigurationSearch:
    """Exhaustive search over the reduced parameter space.

    :meth:`best_for_segment` is memoized process-wide per (device,
    segment shape, candidate grid, Γ table): the device is keyed by
    value, every field of :class:`~repro.model.notation.SegmentCostInput`
    is a frozen dataclass, so its ``repr`` fingerprints the search input
    exactly, and the search is deterministic, so replaying it could only
    waste time.  :func:`clear_search_cache` makes the next search cold.
    """

    def __init__(
        self,
        device: DeviceSpec,
        calibration: CalibrationTable,
        tile_candidates: Sequence[int] = TILE_SIZE_CANDIDATES,
        workgroup_candidates: Optional[Sequence[int]] = None,
    ):
        self.device = device
        self.calibration = calibration
        self.model = CostModel(device, calibration)
        self.tile_candidates = tuple(tile_candidates)
        self.workgroup_candidates = tuple(
            workgroup_candidates
            if workgroup_candidates is not None
            else workgroup_ladder(device)
        )
        # The Γ surface is an input to the search; fingerprint it once so
        # a custom (non-default) calibration cannot alias a cached entry.
        self._calibration_digest = hashlib.sha1(
            repr(calibration.points).encode()
        ).hexdigest()

    def _cache_key(
        self, segment: SegmentCostInput
    ) -> Tuple[DeviceSpec, str]:
        payload = repr(
            (
                segment,
                self.tile_candidates,
                self.workgroup_candidates,
                self._calibration_digest,
            )
        )
        return self.device, hashlib.sha1(payload.encode()).hexdigest()

    def best_for_segment(self, segment: SegmentCostInput) -> SegmentChoice:
        """Minimize T_Sk over (Δ, wg ladder), with (n, p) from Γ."""
        with maybe_span(
            "search.segment", category="search", segment=segment.name
        ) as span:
            key = self._cache_key(segment)
            cached = _SEARCH_MEMO.get(key)
            if span is not None:
                span.attrs["cached"] = cached is not None
            if cached is not None:
                return cached
            best = self._search(segment)
            _SEARCH_MEMO.put(key, best)
            return best

    def optimize_plan(
        self, segments: Sequence[SegmentCostInput]
    ) -> Tuple[Dict[str, GPLConfig], float]:
        """Per-segment optimal configs and the total predicted cycles."""
        configs: Dict[str, GPLConfig] = {}
        total = 0.0
        for segment in segments:
            choice = self.best_for_segment(segment)
            configs[segment.name] = choice.config
            total += choice.predicted_cycles
        return configs, total

    # ------------------------------------------------------------------

    def _search(self, segment: SegmentCostInput) -> SegmentChoice:
        """Every (Δ, rung) cell, from one set of terms per Δ and per rung.

        Cells are visited tile-major, rung-minor, and only a strictly
        smaller T_Sk replaces the best, so the first of equal cells wins.
        """
        # Rungs first, as estimate_segment does: an unplaceable kernel
        # fails before Γ is read.
        rungs = []
        for workgroups in self.workgroup_candidates:
            config = GPLConfig(default_workgroups=workgroups)
            rungs.append(
                (workgroups, self.model.occupancy_terms(segment, config))
            )
        tiles = []
        for tile_bytes in self.tile_candidates:
            config = GPLConfig(
                tile_bytes=tile_bytes,
                channel=self._channel_for(segment, tile_bytes),
            )
            tiles.append((config, self.model.tile_terms(segment, config)))
        best = None
        for tile_config, tile in tiles:
            for workgroups, occupancy in rungs:
                total = self.model.combine(tile, occupancy).total
                if best is None or total < best[0]:
                    best = (total, tile_config, tile, workgroups, occupancy)
        assert best is not None  # tile_candidates is never empty
        _, tile_config, tile, workgroups, occupancy = best
        return SegmentChoice(
            segment=segment.name,
            config=replace(tile_config, default_workgroups=workgroups),
            estimate=self.model.estimate_from_terms(
                segment, tile, occupancy
            ),
        )

    def _channel_for(
        self, segment: SegmentCostInput, tile_bytes: int
    ) -> ChannelConfig:
        """(n_max, p_max) from Γ for the segment's typical edge volume.

        The representative transfer size is Δ x λ of the first channel
        edge (Eq. 6's d); deeper edges shrink with selectivity, and Γ's
        argmax is stable across neighbouring sizes.
        """
        if len(segment.kernels) < 2:
            return ChannelConfig()
        first = segment.kernels[0]
        data_bytes = max(
            1.0,
            tile_bytes
            * first.selectivity
            * (first.out_width / max(1, first.in_width)),
        )
        n_max, p_max = self.calibration.best_config(data_bytes)
        return ChannelConfig(num_channels=n_max, packet_bytes=p_max)
