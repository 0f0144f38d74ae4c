"""Deterministic span tracing across every layer of the engine.

The paper's argument is made by *measurement* — profiler counters,
per-category breakdowns, predicted-vs-actual error — and this module is
the connective tissue that lets one query (or one serve drain) be read
as a single story across layers: planning (``plan.*``), the
configuration search (``search.*``), graceful degradation
(``resilience.*``), the simulated device (``sim.*``), and the serving
loop (``serve.*``).

Design constraints, in order:

1. **Determinism.**  Spans are stamped from a *virtual* clock the tracer
   owns — it only moves when instrumented code advances it (the
   simulator feeds it elapsed device cycles; zero-cost spans tick one
   cycle so intervals stay well-formed).  No wall clock, no randomness:
   two identical runs serialize to byte-identical traces, which the
   tests assert.
2. **Zero cost when off.**  Layers are instrumented through
   :func:`maybe_span` / :func:`add_event`, which are no-ops unless a
   tracer has been installed with :func:`use_tracer`.
3. **Standard output.**  :meth:`Tracer.to_perfetto` emits the Chrome /
   Perfetto ``trace.json`` format (``ph``/``ts``/``dur`` complete
   events, one track per layer), loadable in ``ui.perfetto.dev`` as-is.

Timestamps are virtual device cycles exported as microseconds (1 cycle
= 1 µs); only relative structure is meaningful, exactly as with the
simulator's cycle accounting.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "CATEGORY_TRACKS",
    "Span",
    "SpanEvent",
    "Tracer",
    "current_tracer",
    "use_tracer",
    "maybe_span",
    "add_event",
    "load_trace",
    "summarize_trace",
]

#: Perfetto track (``tid``) per span category — one named row per layer,
#: in pipeline order.  Unknown categories land on track 15.
CATEGORY_TRACKS: Dict[str, int] = {
    "serve": 1,
    "plan": 2,
    "search": 3,
    "resilience": 4,
    "simulator": 5,
    # Appended out of pipeline order (shard sits between serve and
    # plan) so existing track ids — and recorded traces — stay stable.
    "shard": 6,
}


@dataclass
class SpanEvent:
    """A point-in-time annotation inside a span (a retry, a fallback)."""

    name: str
    ts: float
    attrs: Dict[str, object] = field(default_factory=dict)


@dataclass
class Span:
    """One timed interval; nests through ``children``."""

    name: str
    category: str
    start: float
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)
    events: List[SpanEvent] = field(default_factory=list)
    children: List["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Owns the span tree and the deterministic virtual clock.

    ``capture_kernels=True`` additionally turns every simulator
    :class:`~repro.gpu.trace.TraceEvent` (one per work-group unit) into
    a child span of its segment; the default keeps one aggregated child
    span per kernel stage, which is what a serve-drain trace can afford.
    """

    def __init__(self, capture_kernels: bool = False):
        self.capture_kernels = capture_kernels
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        self._clock = 0.0

    @property
    def clock(self) -> float:
        """Current virtual time, in device cycles."""
        return self._clock

    def advance(self, cycles: float) -> None:
        """Move the virtual clock forward (never backward)."""
        if cycles > 0:
            self._clock += float(cycles)

    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, category: str, **attrs) -> Iterator[Span]:
        """Open a span; closes (and stamps ``end``) on exit.

        A span whose body never advanced the clock still occupies one
        virtual cycle, so every interval has positive duration and
        nesting stays unambiguous in Perfetto.
        """
        opened = Span(
            name=name, category=category, start=self._clock, attrs=dict(attrs)
        )
        parent = self.current()
        (parent.children if parent is not None else self.roots).append(opened)
        self._stack.append(opened)
        try:
            yield opened
        finally:
            self._stack.pop()
            if self._clock <= opened.start:
                self.advance(1.0)
            opened.end = self._clock

    def add_span(
        self, name: str, category: str, start: float, end: float, **attrs
    ) -> Span:
        """Attach a child span with explicit timestamps (already-elapsed
        work, e.g. the simulator's per-stage intervals)."""
        child = Span(
            name=name,
            category=category,
            start=float(start),
            end=float(max(start, end)),
            attrs=dict(attrs),
        )
        parent = self.current()
        (parent.children if parent is not None else self.roots).append(child)
        return child

    def event(self, name: str, **attrs) -> SpanEvent:
        """Record an instant event on the innermost open span."""
        stamped = SpanEvent(name=name, ts=self._clock, attrs=dict(attrs))
        parent = self.current()
        if parent is not None:
            parent.events.append(stamped)
        return stamped

    # -- merging ---------------------------------------------------------

    def graft(self, sub: "Tracer") -> None:
        """Splice ``sub``'s span tree (recorded from clock 0) into this
        tracer at the current clock and position.

        Scatter tasks and serve round members record onto a private
        tracer whose clock starts at zero; grafting in deterministic
        (shard / member) order shifts every timestamp by this tracer's
        clock, attaches the roots under the innermost open span, and
        advances this clock by the sub-tracer's total elapsed time.
        """
        offset = self._clock
        if offset:
            for span in sub.walk():
                span.start += offset
                span.end += offset
                for instant in span.events:
                    instant.ts += offset
        parent = self.current()
        target = parent.children if parent is not None else self.roots
        target.extend(sub.roots)
        self.advance(sub.clock)

    # -- introspection ---------------------------------------------------

    def walk(self) -> Iterator[Span]:
        """Every span, depth-first in recording order."""
        stack = list(reversed(self.roots))
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))

    def num_spans(self) -> int:
        return sum(1 for _ in self.walk())

    def categories(self) -> List[str]:
        """Distinct span categories present, sorted."""
        return sorted({span.category for span in self.walk()})

    # -- export ----------------------------------------------------------

    def to_perfetto(self) -> Dict[str, object]:
        """The Chrome/Perfetto ``trace.json`` object for this trace."""
        events: List[Dict[str, object]] = []
        for category, tid in sorted(CATEGORY_TRACKS.items()):
            events.append(
                {
                    "args": {"name": category},
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                }
            )

        def tid_for(category: str) -> int:
            return CATEGORY_TRACKS.get(category, 15)

        def emit(span: Span) -> None:
            events.append(
                {
                    "args": dict(sorted(span.attrs.items())),
                    "cat": span.category,
                    "dur": span.duration,
                    "name": span.name,
                    "ph": "X",
                    "pid": 1,
                    "tid": tid_for(span.category),
                    "ts": span.start,
                }
            )
            for instant in span.events:
                events.append(
                    {
                        "args": dict(sorted(instant.attrs.items())),
                        "cat": span.category,
                        "name": instant.name,
                        "ph": "i",
                        "pid": 1,
                        "s": "t",
                        "tid": tid_for(span.category),
                        "ts": instant.ts,
                    }
                )
            for child in span.children:
                emit(child)

        for root in self.roots:
            emit(root)
        return {
            "displayTimeUnit": "ms",
            "otherData": {
                "clock": "virtual device cycles (1 cycle exported as 1 us)"
            },
            "traceEvents": events,
        }

    def to_json(self) -> str:
        """Canonical serialization: sorted keys, no whitespace — two
        identical runs produce byte-identical strings."""
        return json.dumps(
            self.to_perfetto(), sort_keys=True, separators=(",", ":")
        )

    def write_json(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())
            handle.write("\n")


# ---------------------------------------------------------------------------
# ambient tracer: explicit install, no-op when absent
# ---------------------------------------------------------------------------

# The install stack is a ``ContextVar`` holding an immutable tuple, so
# each thread (and asyncio task) sees and mutates its own stack.
_ACTIVE: ContextVar[Tuple[Tracer, ...]] = ContextVar(
    "repro_active_tracers", default=()
)


def current_tracer() -> Optional[Tracer]:
    """The installed tracer, or ``None`` (instrumentation then no-ops)."""
    stack = _ACTIVE.get()
    return stack[-1] if stack else None


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` for the duration of the block."""
    token = _ACTIVE.set(_ACTIVE.get() + (tracer,))
    try:
        yield tracer
    finally:
        _ACTIVE.reset(token)


@contextmanager
def maybe_span(name: str, category: str, **attrs) -> Iterator[Optional[Span]]:
    """A span on the current tracer, or a no-op when none is installed."""
    tracer = current_tracer()
    if tracer is None:
        yield None
        return
    with tracer.span(name, category, **attrs) as opened:
        yield opened


def add_event(name: str, **attrs) -> None:
    """An instant event on the current tracer's open span, if any."""
    tracer = current_tracer()
    if tracer is not None:
        tracer.event(name, **attrs)


# ---------------------------------------------------------------------------
# reading traces back (the `obs` CLI subcommand)
# ---------------------------------------------------------------------------


def load_trace(path: str) -> Dict[str, object]:
    """Parse a saved ``trace.json``; raises ``ValueError`` on malformed
    payloads (the CLI maps that to the typed error hierarchy)."""
    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or not isinstance(
        payload.get("traceEvents"), list
    ):
        raise ValueError(f"{path} is not a trace.json (no traceEvents list)")
    return payload


def summarize_trace(
    payload: Dict[str, object],
    top: int = 10,
    category: Optional[str] = None,
) -> str:
    """Human-readable roll-up of a saved trace.

    Per category: span count, summed span duration, and event count;
    then the ``top`` longest spans.  Durations are virtual cycles — the
    same unit the simulator reports — so ratios, not absolutes, matter.
    """
    spans = [
        event
        for event in payload["traceEvents"]
        if event.get("ph") == "X"
        and (category is None or event.get("cat") == category)
    ]
    instants = [
        event
        for event in payload["traceEvents"]
        if event.get("ph") == "i"
        and (category is None or event.get("cat") == category)
    ]
    if not spans:
        return "(no spans" + (f" in category {category!r})" if category else ")")
    by_category: Dict[str, Dict[str, float]] = {}
    for span in spans:
        bucket = by_category.setdefault(
            str(span.get("cat", "?")), {"count": 0, "cycles": 0.0}
        )
        bucket["count"] += 1
        bucket["cycles"] += float(span.get("dur", 0.0))
    events_by_category: Dict[str, int] = {}
    for instant in instants:
        key = str(instant.get("cat", "?"))
        events_by_category[key] = events_by_category.get(key, 0) + 1

    lines = [f"{len(spans)} spans, {len(instants)} events"]
    for name in sorted(by_category):
        bucket = by_category[name]
        lines.append(
            f"  {name:12s} {int(bucket['count']):6d} spans  "
            f"{bucket['cycles']:14.1f} cycles  "
            f"{events_by_category.get(name, 0):4d} events"
        )
    lines.append(f"longest {min(top, len(spans))} spans:")
    ranked = sorted(
        spans, key=lambda s: (-float(s.get("dur", 0.0)), float(s.get("ts", 0.0)))
    )
    for span in ranked[:top]:
        label = span.get("name", "?")
        args = span.get("args") or {}
        detail = ", ".join(f"{k}={v}" for k, v in sorted(args.items()))
        lines.append(
            f"  {float(span.get('dur', 0.0)):14.1f} cycles  "
            f"[{span.get('cat', '?')}] {label}"
            + (f"  ({detail})" if detail else "")
        )
    return "\n".join(lines)
