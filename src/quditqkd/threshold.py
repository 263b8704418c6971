"""Tolerable-error frontier of the continuation region.

The figure of merit

    f(e_b, e_c, e_11) = [1 - e_b e_c - N(1-e_c)/(N-2) + 2 e_11]^2
                        - e_b (1 - e_b) e_c^2

is scanned over the region R = {e_b e_c + (N-1)(1-e_c)/(N-2) < 1/2}.
For fixed e_b the region's e_c slice is the open interval
(ec_star(e_b), 1], and ec_star is also where f attains its infimum on
the slice closure, so certifying f > 0 needs only samples accumulating
toward that endpoint.  Since f is nondecreasing in e_11 wherever the
square bracket is nonnegative at e_11 = 0 (the scan certifies this at
every sample), the e_11 = 0 plane suffices.

All evaluation is duck-typed: Fraction inputs give exact rationals,
which the tests use to decide boundary cases the float path cannot.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .protocol import pm_condition_lhs

GUARD = 1e-9


@dataclass(frozen=True)
class FeasibilityPoint:
    """One (e_b, e_c, e_11) probe of the figure of merit at degree n."""

    e_b: float
    e_c: float
    e_11: float = 0.0
    n: int = 2

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("need n >= 2 (order >= 4)")
        for name in ("e_b", "e_c", "e_11"):
            v = getattr(self, name)
            if not 0 <= v <= 1:
                raise ValueError(f"{name} must lie in [0, 1]")


def f_value(p: FeasibilityPoint):
    """The quadratic figure of merit; positive means distillable."""
    bracket = bracket_value(p)
    return bracket * bracket - p.e_b * (1 - p.e_b) * p.e_c * p.e_c


def bracket_value(p: FeasibilityPoint):
    """The square-bracket factor at the point's own e_11."""
    order = 1 << p.n
    return 1 - p.e_b * p.e_c - order * (1 - p.e_c) / (order - 2) + 2 * p.e_11


def in_region(p: FeasibilityPoint) -> bool:
    """Strict membership in the continuation region R."""
    return pm_condition_lhs(p.e_b, p.e_c, p.n) < 0.5


def ec_star(e_b, n: int):
    """Lower e_c edge of R's slice at e_b; also f's slice minimizer.

    N / [2(N - 1 - (N-2) e_b)].  Values above 1 mean the slice is
    empty (which happens exactly for e_b > 1/2).
    """
    if n < 2:
        raise ValueError("need n >= 2 (order >= 4)")
    if not 0 <= e_b <= 1:
        raise ValueError("e_b must lie in [0, 1]")
    order = 1 << n
    return order / (2 * (order - 1 - (order - 2) * e_b))


STATUS_FEASIBLE = "feasible"
STATUS_REJECTED = "rejected"
STATUS_BOUNDARY = "boundary (f = 0)"
STATUS_UNREACHABLE = "unreachable"


@dataclass(frozen=True)
class ScanRow:
    """Verdict for one e_b slice of the scan."""

    e_b: float
    min_f: float | None
    status: str
    witness: FeasibilityPoint | None = None
    witness_f: float | None = None

    @property
    def feasible(self) -> bool:
        return self.status == STATUS_FEASIBLE


@dataclass(frozen=True)
class ScanResult:
    """Full frontier scan for one field degree."""

    n: int
    grid: int
    ec_samples: int
    guard: float
    rows: tuple[ScanRow, ...]
    e_max: float
    resolution: float

    @property
    def witnesses(self) -> dict[float, FeasibilityPoint]:
        return {r.e_b: r.witness for r in self.rows if r.witness is not None}

    def to_csv(self, fileobj) -> None:
        """Rows (e_b, min-over-slice f, feasible flag) for frontier plots."""
        writer = csv.writer(fileobj)
        writer.writerow(["e_b", "min_f", "feasible"])
        for row in self.rows:
            writer.writerow(
                [row.e_b, "" if row.min_f is None else row.min_f, int(row.feasible)]
            )

    def to_json_dict(self) -> dict:
        counts: dict[str, int] = {}
        for row in self.rows:
            counts[row.status] = counts.get(row.status, 0) + 1
        return {
            "n": self.n,
            "grid": self.grid,
            "ec_samples": self.ec_samples,
            "guard": self.guard,
            "e_max": self.e_max,
            "resolution": self.resolution,
            "statuses": counts,
            "witnesses": [
                {"e_b": r.e_b, "e_c": r.witness.e_c, "f": r.witness_f}
                for r in self.rows
                if r.witness is not None
            ],
        }


def _scan_slice(e_b: float, n: int, ec_samples: int, guard: float) -> ScanRow:
    order = 1 << n
    star = ec_star(e_b, n)
    if star > 1.0:
        return ScanRow(e_b, None, STATUS_UNREACHABLE)
    if star == 1.0:
        # Slice is the single boundary point e_c = 1 where f vanishes.
        return ScanRow(e_b, 0.0, STATUS_BOUNDARY)
    # Sample e_c accumulating geometrically toward the slice edge; the
    # guard band drops samples float rounding puts on the boundary.
    t = np.geomspace(1e-6, 1.0, ec_samples)
    ec = star + t * (1.0 - star)
    lhs = e_b * ec + (order - 1) * (1.0 - ec) / (order - 2)
    valid = lhs < 0.5 - guard
    if not valid.any():
        return ScanRow(e_b, None, STATUS_UNREACHABLE)
    ec = ec[valid]
    bracket = 1.0 - e_b * ec - order * (1.0 - ec) / (order - 2)
    f0 = bracket * bracket - e_b * (1.0 - e_b) * ec * ec
    min_f = float(f0.min())
    # bracket >= 0 underwrites the e_11 reduction at these samples.
    bad = (f0 <= guard) | (bracket < 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        wit = FeasibilityPoint(e_b, float(ec[i]), 0.0, n)
        return ScanRow(e_b, min_f, STATUS_REJECTED, wit, float(f0[i]))
    return ScanRow(e_b, min_f, STATUS_FEASIBLE)


def e_max_scan(
    n: int, grid: int = 2000, ec_samples: int = 64, guard: float = GUARD
) -> ScanResult:
    """Largest grid e_b whose whole region slice certifies f > 0.

    The e_b axis is linspace(0, 1, grid+1); each slice is checked at
    ``ec_samples`` in-region points.  The estimate is resolution
    limited: the true frontier lies within 1/grid above it.  Slices at
    e_b > 1/2 have no in-region e_c and report "unreachable"; an even
    grid hits e_b = 1/2 exactly, whose degenerate slice reports
    "boundary (f = 0)" rather than infeasible.
    """
    if n < 2:
        raise ValueError("need n >= 2 (order >= 4)")
    if grid < 1000:
        raise ValueError("grid must be >= 1000 points")
    rows = [
        _scan_slice(float(e_b), n, ec_samples, guard)
        for e_b in np.linspace(0.0, 1.0, grid + 1)
    ]
    feasible = [r.e_b for r in rows if r.feasible]
    e_max = max(feasible) if feasible else 0.0
    return ScanResult(
        n=n,
        grid=grid,
        ec_samples=ec_samples,
        guard=guard,
        rows=tuple(rows),
        e_max=e_max,
        resolution=1.0 / grid,
    )
