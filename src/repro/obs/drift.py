"""Cost-model drift: predicted-vs-actual cycles from live telemetry.

Figures 11 and 24 of the paper characterize the cost model by running
every query twice — once through the model, once on the device — and
plotting the relative error.  In a serving deployment that second pass
is free: the model already predicted each admitted query's cycles
(`ScheduledQuery.est_cost_cycles`), and the device then measured them
(`result.counters.elapsed_cycles`).  :class:`DriftRecorder` pairs the
two per (query, device, Δ) and summarizes the error exactly the way the
figures do:

``relative_error = |measured - predicted| / measured``

with ``underestimated`` meaning the model predicted fewer cycles than
the device spent — the direction the paper says its model errs, because
it ignores some overlap-breaking stalls.

A recorder can feed a :class:`~repro.obs.metrics.MetricsRegistry`
(``model_drift_relative_error`` histogram and
``model_drift_observations_total`` counter) so drift shows up alongside
the serving metrics without a separate export path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["DriftRecord", "DriftRecorder"]


@dataclass(frozen=True)
class DriftRecord:
    """One predicted-vs-measured observation for a query execution."""

    query: str
    device: str
    tile_bytes: int
    predicted_cycles: float
    measured_cycles: float

    @property
    def relative_error(self) -> float:
        """``|measured - predicted| / measured`` (0.0 when measured is 0)."""
        if self.measured_cycles <= 0:
            return 0.0
        return (
            abs(self.measured_cycles - self.predicted_cycles)
            / self.measured_cycles
        )

    @property
    def underestimated(self) -> bool:
        """True when the model predicted fewer cycles than were spent."""
        return self.predicted_cycles < self.measured_cycles

    @property
    def direction(self) -> str:
        if self.predicted_cycles == self.measured_cycles:
            return "exact"
        return "under" if self.underestimated else "over"


class _RollUp:
    """Running totals over one group of observations.

    ``error_sum`` is added left to right in record order, so a mean
    equals ``sum(errors) / n`` over the same records exactly — on
    Python < 3.12.  From 3.12 on builtin ``sum()`` of floats compensates
    (Neumaier), so a recomputation with ``sum()`` may differ from these
    totals in the last ulp; a left-to-right loop never does.
    """

    __slots__ = ("count", "error_sum", "max_error", "under")

    def __init__(self) -> None:
        self.count = 0
        self.error_sum = 0.0
        self.max_error = 0.0
        self.under = 0

    def add(self, error: float, underestimated: bool) -> None:
        # ``max()``'s rule: the first value stands until a later one
        # compares strictly greater.
        if self.count == 0 or error > self.max_error:
            self.max_error = error
        self.count += 1
        self.error_sum += error
        self.under += underestimated

    def as_dict(self) -> Dict[str, float]:
        if self.count == 0:
            return {
                "observations": 0,
                "mean_relative_error": 0.0,
                "max_relative_error": 0.0,
                "underestimated_share": 0.0,
            }
        return {
            "observations": self.count,
            "mean_relative_error": self.error_sum / self.count,
            "max_relative_error": self.max_error,
            "underestimated_share": self.under / self.count,
        }


class DriftRecorder:
    """Accumulates :class:`DriftRecord` observations and summarizes them.

    ``registry`` is optional; when given, every :meth:`record` also
    observes ``model_drift_relative_error`` and increments
    ``model_drift_observations_total{direction=...}``.

    The roll-ups are running totals kept as records arrive, so
    :meth:`per_query` and :meth:`overall` cost one step per query name,
    not per record — a long-lived service summarizes every drain.
    ``records`` keeps every observation; add them through
    :meth:`record`, which is what keeps the totals in step.
    """

    def __init__(self, registry=None):
        self.records: List[DriftRecord] = []
        self._registry = registry
        self._overall = _RollUp()
        self._per_query: Dict[str, _RollUp] = {}

    def record(
        self,
        query: str,
        device: str,
        tile_bytes: int,
        predicted_cycles: float,
        measured_cycles: float,
    ) -> DriftRecord:
        observation = DriftRecord(
            query=query,
            device=device,
            tile_bytes=int(tile_bytes),
            predicted_cycles=float(predicted_cycles),
            measured_cycles=float(measured_cycles),
        )
        self.records.append(observation)
        error = observation.relative_error
        under = observation.underestimated
        self._overall.add(error, under)
        roll_up = self._per_query.get(query)
        if roll_up is None:
            roll_up = self._per_query[query] = _RollUp()
        roll_up.add(error, under)
        if self._registry is not None:
            self._registry.histogram("model_drift_relative_error").observe(
                error
            )
            self._registry.counter("model_drift_observations_total").inc(
                direction=observation.direction
            )
        return observation

    def __len__(self) -> int:
        return len(self.records)

    # -- summaries -------------------------------------------------------

    def per_query(self) -> Dict[str, Dict[str, float]]:
        """Mean error and underestimate share per query name, sorted."""
        return {
            query: self._per_query[query].as_dict()
            for query in sorted(self._per_query)
        }

    def overall(self) -> Dict[str, float]:
        """The Fig 11/24 headline numbers across all observations."""
        return self._overall.as_dict()

    def to_json(self) -> Dict[str, object]:
        """Full dump: every observation plus the roll-ups."""
        return {
            "records": [
                {
                    "query": observation.query,
                    "device": observation.device,
                    "tile_bytes": observation.tile_bytes,
                    "predicted_cycles": observation.predicted_cycles,
                    "measured_cycles": observation.measured_cycles,
                    "relative_error": observation.relative_error,
                    "underestimated": observation.underestimated,
                }
                for observation in self.records
            ],
            "per_query": self.per_query(),
            "overall": self.overall(),
        }

    def to_text(self) -> str:
        """Terminal-friendly drift table (the serve report appends it)."""
        if not self.records:
            return "cost-model drift: no observations"
        lines = ["cost-model drift (predicted vs measured cycles):"]
        for query, stats in self.per_query().items():
            lines.append(
                f"  {query:12s} n={int(stats['observations']):3d}  "
                f"mean err {stats['mean_relative_error']:6.1%}  "
                f"max err {stats['max_relative_error']:6.1%}  "
                f"under {stats['underestimated_share']:5.0%}"
            )
        overall = self.overall()
        lines.append(
            f"  {'overall':12s} n={int(overall['observations']):3d}  "
            f"mean err {overall['mean_relative_error']:6.1%}  "
            f"max err {overall['max_relative_error']:6.1%}  "
            f"under {overall['underestimated_share']:5.0%}"
        )
        return "\n".join(lines)
