"""Span recorder for the traced pass: wraps entry points from outside.

The benchmark never edits the program it measures.  A :class:`Recorder`
replaces a named attribute (a method on a class, or every module-level
name bound to a function) with a wrapper that records one span per call
and restores the original on :meth:`Recorder.uninstall`.  This file knows
nothing about the program; ``adapter.py`` supplies the list of
:class:`TracePoint` entries.

Each span is a tuple ``(id, parent, op, scope, layer, name, start_ns,
end_ns, value)``:

* ``parent`` is the span that was open *on the same thread* when this one
  started (-1 for a root).  Parent stacks are thread-local, and
  :meth:`Recorder.handoff` carries the submitting thread's open span into
  a worker thread, so a span running on a pool thread is a child of the
  span that submitted it and never of whatever happens to be open on
  another thread.
* ``op`` is the id shared by all spans of one benchmark operation and
  ``scope`` says which phase of the run they belong to (``setup``, ``ops``
  or ``extra``); both are set by the harness between operations.
* ``value`` is whatever the trace point's ``measure`` hook returned: the
  count taken at the same boundary (rows in, work-groups, retries...).

Self time is a span's duration minus the part of its interval that its
child spans cover (the union of the child intervals, clipped to the
parent), so it is never negative even when children overlap on two
threads.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["TracePoint", "Recorder", "Span", "self_times", "uncovered_ns"]

#: Field order of a recorded span (also the header of the exported file).
SPAN_FIELDS = (
    "id", "parent", "op", "scope", "layer", "name", "start_ns", "end_ns",
    "value",
)
Span = Tuple[int, int, int, str, str, str, int, int, object]


@dataclass(frozen=True)
class TracePoint:
    """One wrapped entry point.

    ``owner`` is a class (``attr`` names a method, static method or class
    method defined on it) or ``None`` for a module-level function, in
    which case ``target`` is the function and every module-level name
    bound to it, in any loaded module, is rebound.  ``measure``
    receives ``(args, result, error)`` after the call and returns the
    span's ``value`` (``None`` for no count).  ``wrapper``, when given,
    builds the replacement from the original instead of the span wrapper
    (used for the thread hand-off, which records no span of its own).
    """

    layer: str
    name: str
    owner: Optional[type]
    attr: str
    target: Optional[Callable] = None
    measure: Optional[Callable] = None
    wrapper: Optional[Callable[[Callable], Callable]] = None


class Recorder:
    """Records spans from installed trace points; safe across threads."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.scope = "setup"
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- the parent stack ---------------------------------------------------

    def _stack(self) -> List[int]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def current(self) -> int:
        """Id of the span open on this thread (-1 when none is)."""
        stack = self._stack()
        return stack[-1] if stack else -1

    def handoff(self, fn: Callable[[], object]) -> Callable[[], object]:
        """Wrap ``fn`` so that, wherever it runs, its spans are children
        of the span open on the *calling* thread right now."""
        parent = self.current()

        def run() -> object:
            stack = self._stack()
            stack.append(parent)
            try:
                return fn()
            finally:
                stack.pop()

        return run

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, original: Callable, point: TracePoint) -> Callable:
        if point.wrapper is not None:
            return point.wrapper(original)
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter_ns
        layer, name, measure = point.layer, point.name, point.measure
        recorder = self

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            result = error = None
            start = clock()
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    (
                        span_id, parent, recorder.op, recorder.scope, layer,
                        name, start, end,
                        measure(args, result, error) if measure else None,
                    )
                )

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        return traced

    def install(self, points: Iterable[TracePoint]) -> None:
        """Patch every trace point (idempotent per recorder: call
        :meth:`uninstall` before installing again)."""
        if self._patches:
            raise RuntimeError("recorder is already installed")
        for point in points:
            if point.owner is not None:
                self._patch_attribute(point)
            else:
                self._patch_function(point)

    def _patch_attribute(self, point: TracePoint) -> None:
        raw = point.owner.__dict__[point.attr]
        if isinstance(raw, staticmethod):
            wrapped: object = staticmethod(self._wrap(raw.__func__, point))
        elif isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, point))
        else:
            wrapped = self._wrap(raw, point)
        self._patches.append((point.owner, point.attr, raw))
        setattr(point.owner, point.attr, wrapped)

    def _patch_function(self, point: TracePoint) -> None:
        target = point.target
        wrapped = self._wrap(target, point)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                if value is target:
                    self._patches.append((module, attr, target))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- export ---------------------------------------------------------------

    def write(self, path, meta: Dict[str, object]) -> None:
        """Write the spans kept in memory to ``path`` as one JSON file."""
        with open(path, "w") as handle:
            json.dump(
                {"meta": meta, "fields": SPAN_FIELDS, "spans": self.spans},
                handle,
                default=repr,
            )


def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """``{span id: self nanoseconds}`` (duration minus covered child time)."""
    spans = list(spans)
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[1] >= 0:
            children[span[1]].append((span[6], span[7]))
    return {
        span[0]: (span[7] - span[6])
        - _covered(children.get(span[0], ()), span[6], span[7])
        for span in spans
    }


def _covered(intervals: Iterable[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def uncovered_ns(spans: Iterable[Span], windows: Dict[int, Tuple[int, int]]) -> int:
    """Nanoseconds of the per-op ``windows`` (``{op: (start, end)}``)
    that no root span of that op covers: time the trace cannot attribute."""
    roots: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[1] < 0 and span[2] in windows:
            roots[span[2]].append((span[6], span[7]))
    return sum(
        (end - start) - _covered(roots.get(op, ()), start, end)
        for op, (start, end) in windows.items()
    )
