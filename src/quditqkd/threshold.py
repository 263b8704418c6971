"""Tolerable-error frontier of the continuation region.

The figure of merit

    f(e_b, e_c, e_11) = [1 - e_b e_c - N(1-e_c)/(N-2) + 2 e_11]^2
                        - e_b (1 - e_b) e_c^2

is decided over the region R = {e_b e_c + (N-1)(1-e_c)/(N-2) < 1/2}.
For fixed e_b the region's e_c slice is the open interval
(ec_star(e_b), 1], empty once ec_star >= 1.  Write B for the square
bracket at e_11 = 0, linear in e_c with slope B' = N/(N-2) - e_b, and
d = N - 1 - (N-2) e_b.  On a nonempty slice (e_b <= 1/2) the infimum
of f sits at the edge ec_star:

* f is convex in e_c: f'' = 2(B'^2 - e_b(1-e_b)), with B' > 1/2 and
  e_b(1-e_b) <= 1/4.
* f rises from the edge: with a = N - 2,
  f'(ec_star) = g(e_b) / (a d),
  g(x) = 2a^2 x^2 - (3a^2 + 2a - 4) x + a(a + 2).
  For a >= 2 the vertex of g lies at x >= 1/2, so on [0, 1/2]
  g >= g(1/2) = a + 2 > 0.
* The e_11 = 0 plane is the worst case: on the edge
  B = ((N-2) - (N-4) e_b) / (2d) > 0, and B grows along the slice, so
  f is increasing in e_11 >= 0 everywhere on it.

On the grid e_b = k/G, with D = (N-1)G - (N-2)k, that infimum is

    f* = (G - 2k) (2(N-2)^2 G - ((N-4)^2 + N^2) k) / (8 D^2),

whose second factor exceeds G N(N-4) >= 0 when 2k < G.  A slice is
therefore feasible when 2k < G, the single point e_c = 1 with f = 0
when 2k = G, and empty when 2k > G (ec_star > 1 exactly there): the
scan decides on integers and needs no sampling and no float tolerance.

f_value, bracket_value and ec_star are duck-typed: Fraction inputs
give exact rationals, which the tests use to check the closed form.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .field import check_degree


@dataclass(frozen=True)
class FeasibilityPoint:
    """One (e_b, e_c, e_11) probe of the figure of merit at degree n."""

    e_b: float
    e_c: float
    e_11: float = 0.0
    n: int = 2

    def __post_init__(self) -> None:
        check_degree(self.n)
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


def ec_star(e_b, n: int):
    """Lower e_c edge of R's slice at e_b; also f's slice minimizer.

    N / [2(N - 1 - (N-2) e_b)].  Values above 1 mean the slice is
    empty (which happens exactly for e_b > 1/2).
    """
    check_degree(n)
    if not 0 <= e_b <= 1:
        raise ValueError("e_b must lie in [0, 1]")
    order = 1 << n
    return order / (2 * (order - 1 - (order - 2) * e_b))


STATUS_FEASIBLE = "feasible"
STATUS_BOUNDARY = "boundary (f = 0)"
STATUS_UNREACHABLE = "unreachable"


class ScanRow(NamedTuple):
    """Verdict for one e_b slice of the scan."""

    e_b: float
    min_f: float | None
    status: str

    @property
    def feasible(self) -> bool:
        return self.status == STATUS_FEASIBLE


# a ScanRow from one (e_b, min_f, status) tuple, with no Python-level
# __new__ call: e_max_scan maps it over whole blocks of slices
_row = partial(tuple.__new__, ScanRow)


@dataclass(frozen=True)
class ScanResult:
    """Full frontier scan for one field degree."""

    n: int
    grid: int
    rows: tuple[ScanRow, ...]
    e_max: float
    resolution: float

    def to_csv(self, fileobj) -> None:
        """Rows (e_b, slice infimum of f, feasible flag) for frontier plots."""
        writer = csv.writer(fileobj)
        writer.writerow(["e_b", "min_f", "feasible"])
        for row in self.rows:
            writer.writerow(
                [row.e_b, "" if row.min_f is None else row.min_f, int(row.feasible)]
            )

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "grid": self.grid,
            "e_max": self.e_max,
            "resolution": self.resolution,
            "statuses": dict(Counter(row.status for row in self.rows)),
        }


def e_max_scan(n: int, grid: int = 2000) -> ScanResult:
    """Largest grid e_b whose whole region slice has f > 0.

    The e_b axis is linspace(0, 1, grid+1); slice k is decided by the
    sign of 2k - grid and reports f* as ``min_f`` (see the module
    docstring).  The estimate is resolution limited: the true frontier
    1/2 lies within 1/grid above it.  Slices at e_b > 1/2 have no
    in-region e_c and report "unreachable"; an even grid hits e_b = 1/2
    exactly, whose degenerate slice reports "boundary (f = 0)" rather
    than infeasible.
    """
    check_degree(n)
    if grid < 1000:
        raise ValueError("grid must be >= 1000 points")
    order = 1 << n
    e_b = np.linspace(0.0, 1.0, grid + 1).tolist()
    half = grid // 2
    last = (grid - 1) // 2  # largest k with 2k < grid
    # Each factor is an integer below 2^17 * grid in magnitude for
    # n <= 8, so exact in float64 for any grid up to 2^36; min_f then
    # carries a few ulps of rounding.
    k = np.arange(last + 1, dtype=np.float64)
    lead = grid - 2 * k
    tail = 2 * (order - 2) ** 2 * grid - ((order - 4) ** 2 + order**2) * k
    denom = (order - 1) * grid - (order - 2) * k
    min_f = (lead * tail / (8 * denom * denom)).tolist()
    rows = list(map(_row, zip(e_b, min_f, repeat(STATUS_FEASIBLE))))
    if grid % 2 == 0:
        rows.append(ScanRow(e_b[half], 0.0, STATUS_BOUNDARY))
    rows.extend(map(_row, zip(e_b[half + 1 :], repeat(None), repeat(STATUS_UNREACHABLE))))
    return ScanResult(
        n=n,
        grid=grid,
        rows=tuple(rows),
        e_max=e_b[last],
        resolution=1.0 / grid,
    )
