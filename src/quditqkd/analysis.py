"""Closed-form observable prediction in the entangled frame.

For a unitary-mixture channel the joint state shared by the two sides
collapses, per randomly drawn relabelling (lam, beta), to a definite
entangled basis state Psi_{a,l}.  Averaging the conjugation rule over all
(lam != 0, beta) and over the channel terms gives the outcome
distribution e_{a,l}, from which every protocol observable follows:

    e_b * e_c   = e_{0,1} + e_{1,1}
    e_c         = e_{0,0} + e_{1,0} + e_{0,1} + e_{1,1}
    1 - e_c     = (N - 2) * (e_{1,0} + e_{1,1})

The kept-index error matrix (p_I, p_z; p_x, p_y) is the top two rows of
the table divided by e_c.  All arithmetic here is exact: a table is held
as integer numerators over one denominator, every decision is made on
those integers, and a Fraction is formed only for a returned quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import NamedTuple

import numpy as np

from . import qstates
from .channels import (
    KIND_DEPHASE,
    KIND_INTERCEPT,
    ChannelModel,
    UnsupportedModelError,
    as_probability,
)
from .field import FieldSpec

Probability = Fraction | float


def _ratio(num, den) -> Probability:
    """num / den: an exact Fraction for two ints, else float division."""
    if isinstance(num, int) and isinstance(den, int):
        return Fraction(num, den)
    return num / den


class BellDistribution:
    """Distribution over entangled-basis outcome labels (a, ell).

    Missing keys mean probability zero.  An exact table holds integer
    numerators ``num`` over one positive denominator ``den``, and every
    check and observable below is decided on them; ``e`` forms the
    Fractions on first use.  The constructor takes a dict of
    probabilities: Fraction (or int) entries are put over the lcm of
    their denominators, and a table with any float entry, as sampled
    data has, keeps its entries as ``num`` over ``den = 1``, so its
    arithmetic is float.  :func:`bell_distribution` builds its tables
    with :meth:`from_numerators`.
    """

    __slots__ = ("spec", "num", "den", "_e")

    def __init__(self, spec: FieldSpec, e: dict[tuple[int, int], Probability]):
        self.spec = spec
        self._e = e
        if all(isinstance(p, Rational) for p in e.values()):
            den = math.lcm(*(int(p.denominator) for p in e.values()))
            self.num = {k: int(p.numerator) * (den // int(p.denominator)) for k, p in e.items()}
            self.den = den
        else:
            self.num, self.den = e, 1

    @classmethod
    def from_numerators(
        cls, spec: FieldSpec, num: dict[tuple[int, int], int], den: int
    ) -> "BellDistribution":
        """The exact table of int numerators ``num`` over the int ``den`` > 0."""
        d = cls.__new__(cls)
        d.spec, d.num, d.den, d._e = spec, num, den, None
        return d

    @property
    def e(self) -> dict[tuple[int, int], Probability]:
        if self._e is None:
            self._e = {k: Fraction(v, self.den) for k, v in self.num.items()}
        return self._e

    def __eq__(self, other) -> bool:
        if not isinstance(other, BellDistribution):
            return NotImplemented
        return self.spec == other.spec and self.e == other.e

    __hash__ = None

    def __repr__(self) -> str:
        return f"BellDistribution({self.spec!r}, {self.e!r})"

    def get(self, a: int, ell: int) -> Probability:
        return self.e.get((a, ell), Fraction(0))

    def total(self) -> Probability:
        return _ratio(sum(self.num.values()), self.den)

    def validate(self, tol: float = 0.0) -> None:
        """Check normalisation, positivity, and the per-index sum rule.

        The sum rule: e_{a,0} + e_{a,1} takes the same value for every
        nonzero index a.
        """
        for (a, ell), p in self.num.items():
            self.spec.check(a)
            if ell not in (0, 1):
                raise ValueError(f"bad ell {ell}")
            # written so that NaN fails: every comparison with it is false
            if not p >= 0:
                raise ValueError(f"negative or NaN probability at {(a, ell)}")
        total = sum(self.num.values())
        if total != self.den and not abs(_ratio(total - self.den, self.den)) <= tol:
            raise ValueError(f"probabilities sum to {_ratio(total, self.den)}")
        get = self.num.get
        masses = [get((a, 0), 0) + get((a, 1), 0) for a in range(1, self.spec.order)]
        lo, hi = min(masses), max(masses)
        if hi != lo and _ratio(hi - lo, self.den) > tol:
            raise ValueError("per-index sum rule violated")


class _Kept(NamedTuple):
    """A table's kept-index quantities, as numerators over its ``den``.

    The numerators are ints for an exact table, floats for a float one.
    """

    e00: int
    e10: int
    e01: int
    e11: int
    e_c: int
    # e_b * e_c, the phase-flipped kept mass
    phase: int
    # the distillation left side of :func:`check_ed_condition`
    ed_lhs: int
    # the two routes to e_c agree: 1 - e_c = (N - 2)(e_{1,0} + e_{1,1})
    consistent: bool


def _kept(d: BellDistribution) -> _Kept:
    N = d.spec.order
    get = d.num.get
    e00, e10, e01, e11 = get((0, 0), 0), get((1, 0), 0), get((0, 1), 0), get((1, 1), 0)
    e_c = e00 + e10 + e01 + e11
    phase = e01 + e11
    ed_lhs = phase + (N - 1) * (e10 + e11)
    return _Kept(e00, e10, e01, e11, e_c, phase, ed_lhs, d.den - e_c == (N - 2) * (e10 + e11))


def _distinct_masks(sign_bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``sign_bits`` and the row id of each term.

    Rows are deduplicated as their bits packed into uint64 words, one
    word per 64 indices, which sorts far fewer and wider keys than the
    bit rows themselves.
    """
    packed = np.packbits(sign_bits, axis=1, bitorder="little")
    words = -(-packed.shape[1] // 8)
    padded = np.zeros((len(packed), 8 * words), np.uint8)
    padded[:, : packed.shape[1]] = packed
    keys = padded.view(np.uint64)
    _, first, mask_id = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    return sign_bits[first], mask_id


def bell_distribution(model: ChannelModel) -> BellDistribution:
    """Exact outcome distribution for a unitary-mixture channel.

    Starting from the reference outcome (0, 0), each unitary term with
    shift c and mask f lands, by ``qstates.conjugate_frame``, on index
    c/lam with sign bit f(beta) ^ f(lam + beta), averaged uniformly over
    lam != 0 and beta.  Per distinct mask and lam the sign flips are
    counted as integers, #{beta : f(beta) != f(beta ^ lam)}; a
    RandomDephase term flips for exactly half of the beta, since the two
    support labels differ.
    The table is integer numerators over weight_den * N(N - 1): per
    outcome cell, the counts of each distinct term probability times its
    numerator ``model.weight_num``.
    Intercept-resend terms are not unitary and are rejected.
    """
    if model.has_intercept():
        raise UnsupportedModelError(
            "bell_distribution requires a unitary-mixture channel"
        )
    spec = model.spec
    N = spec.order
    masks, mask_id = _distinct_masks(model.sign_bits)
    # from (b, kappa) = (0, 0): the index c/lam per (term, lam, 1) and the
    # sign per (distinct mask, lam, beta)
    land, sign = qstates.conjugate_frame(
        spec, np.arange(1, N)[:, None], np.arange(N), model.shift[:, None, None], masks, 0, 0
    )
    flips = np.where((model.kind == KIND_DEPHASE)[:, None], N // 2, sign.sum(axis=2)[mask_id])
    # mul_table is uint8, and the int64 weight ids widen the cell index
    # before it could wrap at n = 8
    cell = (model.weight_id[:, None] * N + land[..., 0]) * 2
    counts = np.zeros((len(model.weights), 2 * N), np.int64)
    np.add.at(counts.reshape(-1), cell, N - flips)
    np.add.at(counts.reshape(-1), cell + 1, flips)
    # cell a * 2 + ell; the numerators are Python ints, which do not wrap
    cells = np.flatnonzero(counts.any(axis=0))
    nums = np.array(model.weight_num, dtype=object) @ counts[:, cells]
    num = {divmod(c, 2): v for c, v in zip(cells.tolist(), nums.tolist())}
    return BellDistribution.from_numerators(spec, num, model.weight_den * N * (N - 1))


@dataclass(frozen=True)
class ObservablePrediction:
    """Predicted (e_b, e_c) plus an internal-consistency flag.

    ``consistent`` records whether the two routes to e_c (direct sum of
    the kept-index masses versus the complement identity through the
    nonkept masses) agree exactly.  ``e_b`` is None when e_c = 0.
    """

    e_b: Probability | None
    e_c: Probability
    consistent: bool


def predict_observables(d: BellDistribution) -> ObservablePrediction:
    k = _kept(d)
    e_b = None if k.e_c == 0 else _ratio(k.phase, k.e_c)
    return ObservablePrediction(e_b, _ratio(k.e_c, d.den), k.consistent)


@dataclass(frozen=True)
class ErrorMatrix:
    """Kept-index error channel probabilities (p_i, p_x, p_y, p_z)."""

    p_i: Probability
    p_x: Probability
    p_y: Probability
    p_z: Probability

    def __post_init__(self) -> None:
        vals = (self.p_i, self.p_x, self.p_y, self.p_z)
        # written so that NaN fails: every comparison with it is false
        if not all(v >= 0 for v in vals):
            raise ValueError("error matrix entries must be nonnegative, not NaN")
        if not abs(sum(vals) - 1) <= 1e-9:
            raise ValueError(f"error matrix entries sum to {sum(vals)}")

    def as_floats(self) -> "ErrorMatrix":
        return ErrorMatrix(
            float(self.p_i), float(self.p_x), float(self.p_y), float(self.p_z)
        )

    def astuple(self) -> tuple:
        return (self.p_i, self.p_x, self.p_y, self.p_z)

    def __iter__(self):
        return iter(self.astuple())


def error_matrix(d: BellDistribution) -> ErrorMatrix:
    """Conditional error matrix of the kept indices.

    Layout: p_I and p_z are the index-0 masses (sign unflipped/flipped),
    p_x and p_y the index-1 masses, all divided by e_c.
    """
    k = _kept(d)
    if k.e_c == 0:
        raise ValueError("e_c = 0, error matrix undefined")
    return ErrorMatrix(*(_ratio(x, k.e_c) for x in (k.e00, k.e10, k.e11, k.e01)))


@dataclass(frozen=True)
class EdVerdict:
    """Distillability check on the raw outcome distribution."""

    passes: bool
    lhs: Probability
    e00_exceeds_half: bool


def check_ed_condition(d: BellDistribution) -> EdVerdict:
    """Strict sufficient condition for the two-way distillation to work.

    lhs = e_{0,1} + e_{1,1} + (N - 1)(e_{1,0} + e_{1,1}) < 1/2.  Also
    reports whether e_{0,0} exceeds 1/2, i.e. whether the identity
    outcome dominates the table.
    """
    k = _kept(d)
    return EdVerdict(2 * k.ed_lhs < d.den, _ratio(k.ed_lhs, d.den), 2 * k.e00 > d.den)


def intercept_distribution(eta, spec: FieldSpec) -> tuple[Fraction, Fraction]:
    """Exact (e_b, e_c) = (eta/2, 1) for the partial intercept-resend channel.

    An intercept collapses Alice's state onto |i> or |j> of her pair
    {i, j}.  A pair of Bob's clicks in-pair on the collapsed state only
    if it holds that index, and the one such pair on Alice's line is
    {i, j} itself; the same holds for the untouched state.  So every
    in-pair click on the line is accepted: e_c = 1.  On {i, j} the
    collapsed state gives Plus or Minus with probability 1/2 each
    whatever Alice's sign, and the untouched state never errs, so half
    of the intercepted rounds err: e_b = eta/2.  Neither rate depends on
    the field ``spec``.
    """
    return as_probability(eta) / 2, Fraction(1)


def analysis_report(model: ChannelModel) -> dict:
    """JSON-ready summary of a channel's predicted statistics."""
    from .protocol import check_pm_condition, pm_condition_lhs

    spec = model.spec
    report: dict = {"n": spec.n, "modulus": hex(spec.modulus)}
    if model.has_intercept():
        intercept = model.kind == KIND_INTERCEPT
        noisy = (model.kind == KIND_DEPHASE) | (model.shift != 0) | model.sign_bits.any(axis=1)
        if (noisy & ~intercept).any():
            raise UnsupportedModelError(
                "mixed intercept channels are out of scope for analysis"
            )
        counts = np.bincount(model.weight_id[intercept], minlength=len(model.weights))
        e_b, e_c = intercept_distribution(model.weighted(counts), spec)
        passes = check_pm_condition(e_b, e_c, spec.n)
        lhs = pm_condition_lhs(e_b, e_c, spec.n)
        report.update(
            {
                "kind": "intercept",
                "e_b": float(e_b),
                "e_c": float(e_c),
                "continuation_lhs": float(lhs),
                "continuation_pass": passes,
            }
        )
        return report
    d = bell_distribution(model)
    d.validate()
    k = _kept(d)
    den = d.den
    report.update(
        {
            "kind": "unitary",
            "outcome_table": {f"{a},{ell}": p / den for (a, ell), p in sorted(d.num.items())},
            "e_b": None if k.e_c == 0 else k.phase / k.e_c,
            "e_c": k.e_c / den,
            "consistent": k.consistent,
            "distill_lhs": k.ed_lhs / den,
            "distill_pass": 2 * k.ed_lhs < den,
            "identity_outcome_dominates": 2 * k.e00 > den,
        }
    )
    if k.e_c > 0:
        # protocol.pm_condition_lhs at e_b = phase / e_c and e_c, over the
        # one denominator (N - 2) * den
        N = spec.order
        lhs, lhs_den = (N - 2) * k.phase + (N - 1) * (den - k.e_c), (N - 2) * den
        report["continuation_lhs"] = lhs / lhs_den
        report["continuation_pass"] = 2 * lhs < lhs_den
        report["error_matrix"] = {
            "p_i": k.e00 / k.e_c,
            "p_x": k.e10 / k.e_c,
            "p_y": k.e11 / k.e_c,
            "p_z": k.e01 / k.e_c,
        }
    return report
