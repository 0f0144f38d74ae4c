"""Inline scatter/gather tasks with private, graftable traces.

:meth:`WorkerPool.submit` runs a task right away on the caller's thread,
but under a private :class:`~repro.obs.tracing.Tracer` (clock starting
at zero), and captures result-or-error in a :class:`PoolTask`; the
caller grafts the task's trace into the ambient tracer at its ordered
position (:meth:`PoolTask.merge_trace`) — or drops it.  Two sites need
that:

* the shard scatter runs *every* shard before it gathers any of them
  (which keeps health counters and relocation decisions independent of
  which shard failed), yet its exported trace must read as a scatter
  that stopped at the first unrecoverable failure — later shards'
  traces are discarded;
* serve round members: a grafted trace sums its timestamps from the
  member's own zero and is shifted once, which is the floating-point
  arithmetic the recorded trace digests pin.

Host threads were measured and removed — see ``docs/performance.md``,
"Why there is no ``--workers``".
"""

from __future__ import annotations

from typing import Callable, Optional, TypeVar

from ..obs.tracing import Tracer, current_tracer, use_tracer

__all__ = ["PoolTask", "WorkerPool"]

T = TypeVar("T")


class PoolTask:
    """Outcome of one submitted task: result *or* error, plus the
    private tracer to graft at the gather point."""

    __slots__ = ("result", "error", "tracer")

    def __init__(self) -> None:
        self.result: Optional[object] = None
        self.error: Optional[Exception] = None
        self.tracer: Optional[Tracer] = None

    def merge_trace(self) -> None:
        """Graft this task's private trace into the caller's ambient
        tracer; call at most once, at the task's ordered position."""
        parent = current_tracer()
        if parent is not None and self.tracer is not None:
            parent.graft(self.tracer)


class WorkerPool:
    """Runs tasks inline; the caller gathers them in order."""

    def submit(self, fn: Callable[[], T]) -> PoolTask:
        """Run ``fn`` now under a private tracer, capturing whatever
        ``Exception`` it raises on the returned task."""
        task = PoolTask()
        parent = current_tracer()
        try:
            if parent is None:
                task.result = fn()
            else:
                task.tracer = Tracer(capture_kernels=parent.capture_kernels)
                with use_tracer(task.tracer):
                    task.result = fn()
        except Exception as exc:  # the gather loop decides who raises
            task.error = exc
        return task
