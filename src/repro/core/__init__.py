"""GPL core: the pipelined query execution engine and its components."""

from .base import EngineBase, QueryResult, workgroups_for
from .checkpoint import CheckpointStore, QueryCheckpoint, SegmentCheckpoint
from .config import DEFAULT_TILE_BYTES, MIN_TILE_BYTES, GPLConfig
from .engine import GPLEngine, GPLWithoutCEEngine
from .parallel import PoolTask, WorkerPool
from .resilience import (
    ENGINE_CHAIN,
    AttemptRecord,
    ResilienceReport,
    ResilientExecutor,
)
from .segments import Segment, pipeline_kernel_specs, split_into_segments
from .store import BoundedStore
from .tiling import TilePlan, Tiler

__all__ = [
    "EngineBase",
    "QueryResult",
    "workgroups_for",
    "CheckpointStore",
    "QueryCheckpoint",
    "SegmentCheckpoint",
    "DEFAULT_TILE_BYTES",
    "MIN_TILE_BYTES",
    "GPLConfig",
    "GPLEngine",
    "GPLWithoutCEEngine",
    "PoolTask",
    "WorkerPool",
    "ENGINE_CHAIN",
    "AttemptRecord",
    "ResilienceReport",
    "ResilientExecutor",
    "Segment",
    "pipeline_kernel_specs",
    "split_into_segments",
    "BoundedStore",
    "TilePlan",
    "Tiler",
]
