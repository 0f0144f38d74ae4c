"""Result verification, always outside the timed region.

Every answer a workload receives is compared with reference rows for its
shape, computed in set-up by a clean ``KBEEngine`` on the same database.
Engines fold partial sums in different orders, so rows are compared up to
a relative tolerance after a canonical sort (the comparison
``QueryResult.approx_equals`` makes).

For the default seed, ``expected.json`` additionally pins each reference:
row count plus the order-independent digest ``scripts/bench.py`` uses.
The engines share their operators with KBE, so a wrong operator changes
the reference too; the pin is what notices.  A mismatch of either kind is
a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Verifier", "canonical", "digest", "rows_match", "load_pins", "pins"]

EXPECTED_PATH = pathlib.Path(__file__).resolve().parent / "expected.json"
REL_TOL = 1e-9

Rows = List[Tuple[float, ...]]


def canonical(rows: Iterable[Sequence]) -> Rows:
    """Rows as tuples of floats under one total order."""
    return sorted(tuple(float(value) for value in row) for row in rows)


def digest(rows: Iterable[Sequence]) -> str:
    """The ``scripts/bench.py`` result checksum (values rounded to 1e-6)."""
    rounded = sorted(
        tuple(round(float(value), 6) for value in row) for row in rows
    )
    return hashlib.sha1(repr(rounded).encode()).hexdigest()[:16]


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def rows_match(got: Rows, want: Rows) -> bool:
    """Whether two canonical row lists agree up to float accumulation."""
    return (
        len(got) == len(want)
        and all(len(a) == len(b) for a, b in zip(got, want))
        and all(_close(x, y) for a, b in zip(got, want) for x, y in zip(a, b))
    )


def load_pins(workload: str, seed: int) -> Optional[Dict[str, List]]:
    """``{shape: [row count, digest]}`` if ``seed`` is the pinned one."""
    if not EXPECTED_PATH.exists():
        return None
    expected = json.loads(EXPECTED_PATH.read_text())
    if expected.get("seed") != seed:
        return None
    return expected.get("workloads", {}).get(workload)


def pins(references: Dict[str, Rows]) -> Dict[str, List]:
    """``{shape: [row count, digest]}``: what ``expected.json`` keeps."""
    return {
        shape: [len(rows), digest(rows)]
        for shape, rows in sorted(references.items())
    }


class Verifier:
    """Counts attempted and failed queries against the references."""

    def __init__(self, references: Dict[str, Rows]):
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def _fail(self, message: str) -> bool:
        self.failed += 1
        if len(self.problems) < 8:
            self.problems.append(message)
        return False

    def check(self, shape: str, rows: Optional[Iterable[Sequence]]) -> bool:
        """One answered (or, with ``rows=None``, unanswered) query."""
        self.attempted += 1
        if rows is None:
            return self._fail(f"{shape}: no answer")
        if not rows_match(canonical(rows), self.references[shape]):
            return self._fail(f"{shape}: rows differ from the reference")
        return True

    def check_pins(self, pinned: Dict[str, List]) -> None:
        """Each pinned reference counts as one more checked query."""
        for shape, found in pins(self.references).items():
            self.attempted += 1
            if found != pinned.get(shape):
                self._fail(
                    f"{shape}: reference is {found}, expected.json pins "
                    f"{pinned.get(shape)}"
                )
