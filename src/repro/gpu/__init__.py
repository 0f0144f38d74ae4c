"""Simulated GPU substrate.

Everything the paper obtains from real AMD/NVIDIA hardware is modeled
here: device specifications (Table 1 presets), kernel descriptions,
occupancy (Eq. 2), a working-set cache, the global memory model, data
channels (OpenCL 2.0 pipes), exclusive and pipelined execution, and the
profiler counters the evaluation section reads.
"""

from .cache import CacheModel
from .channel import ChannelConfig, ChannelModel, ChannelState
from .counters import HardwareCounters, KernelRunStats
from .device import AMD_A10, NVIDIA_K40, DeviceSpec, device_by_name
from .kernel import DataLocation, KernelLaunch, KernelSpec
from .memory import MemoryModel
from .occupancy import (
    OccupancyShare,
    allocate_segment_occupancy,
    check_segment_feasible,
    exclusive_occupancy,
    max_active_wg_per_cu,
)
from .profiler import KernelProfile, Profiler, ProfilerReport
from .simulator import (
    PipelineRunResult,
    Simulator,
    StageSpec,
    clear_simulation_memo,
    simulation_memo_stats,
)
from .trace import TraceEvent, render_gantt, stage_utilization

__all__ = [
    "CacheModel",
    "ChannelConfig",
    "ChannelModel",
    "ChannelState",
    "HardwareCounters",
    "KernelRunStats",
    "AMD_A10",
    "NVIDIA_K40",
    "DeviceSpec",
    "device_by_name",
    "DataLocation",
    "KernelLaunch",
    "KernelSpec",
    "MemoryModel",
    "OccupancyShare",
    "allocate_segment_occupancy",
    "check_segment_feasible",
    "exclusive_occupancy",
    "max_active_wg_per_cu",
    "KernelProfile",
    "Profiler",
    "ProfilerReport",
    "PipelineRunResult",
    "Simulator",
    "StageSpec",
    "clear_simulation_memo",
    "simulation_memo_stats",
    "TraceEvent",
    "render_gantt",
    "stage_utilization",
]
