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
the table divided by e_c.  All arithmetic here is exact rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


@dataclass(frozen=True)
class BellDistribution:
    """Distribution over entangled-basis outcome labels (a, ell).

    Missing keys mean probability zero.  Entries are Fractions when
    produced by :func:`bell_distribution`; float-valued tables are
    accepted for sampled data.
    """

    spec: FieldSpec
    e: dict[tuple[int, int], Probability]

    def get(self, a: int, ell: int) -> Probability:
        return self.e.get((a, ell), Fraction(0))

    def total(self) -> Probability:
        return sum(self.e.values())

    def validate(self, tol: float = 0.0) -> None:
        """Check normalisation, positivity, and the per-index sum rule.

        The sum rule: e_{a,0} + e_{a,1} takes the same value for every
        nonzero index a.
        """
        for (a, ell), p in self.e.items():
            self.spec.check(a)
            if ell not in (0, 1):
                raise ValueError(f"bad ell {ell}")
            # written so that NaN fails: every comparison with it is false
            if not p >= 0:
                raise ValueError(f"negative or NaN probability at {(a, ell)}")
        if not abs(self.total() - 1) <= tol:
            raise ValueError(f"probabilities sum to {self.total()}")
        masses = {
            a: self.get(a, 0) + self.get(a, 1) for a in range(1, self.spec.order)
        }
        lo, hi = min(masses.values()), max(masses.values())
        if hi - lo > tol:
            raise ValueError("per-index sum rule violated")


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
    Fractions are formed once per distinct term probability, at the end.
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
    counts = np.zeros((len(model.weights), N, 2), np.int64)
    np.add.at(counts.reshape(-1), cell, N - flips)
    np.add.at(counts.reshape(-1), cell + 1, flips)
    scale = Fraction(1, N * (N - 1))
    e = {
        (int(a), int(ell)): scale * model.weighted(counts[:, a, ell])
        for a, ell in zip(*np.nonzero(counts.any(axis=0)))
    }
    return BellDistribution(spec, e)


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
    N = d.spec.order
    e_c = d.get(0, 0) + d.get(1, 0) + d.get(0, 1) + d.get(1, 1)
    phase_mass = d.get(0, 1) + d.get(1, 1)
    e_b = None if e_c == 0 else phase_mass / e_c
    alt = (N - 2) * (d.get(1, 0) + d.get(1, 1))
    consistent = (1 - e_c) == alt
    return ObservablePrediction(e_b, e_c, consistent)


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
    e_c = d.get(0, 0) + d.get(1, 0) + d.get(0, 1) + d.get(1, 1)
    if e_c == 0:
        raise ValueError("e_c = 0, error matrix undefined")
    return ErrorMatrix(
        d.get(0, 0) / e_c,
        d.get(1, 0) / e_c,
        d.get(1, 1) / e_c,
        d.get(0, 1) / e_c,
    )


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
    N = d.spec.order
    lhs = d.get(0, 1) + d.get(1, 1) + (N - 1) * (d.get(1, 0) + d.get(1, 1))
    return EdVerdict(lhs < Fraction(1, 2), lhs, d.get(0, 0) > Fraction(1, 2))


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
    pred = predict_observables(d)
    ed = check_ed_condition(d)
    report.update(
        {
            "kind": "unitary",
            "outcome_table": {
                f"{a},{ell}": float(p) for (a, ell), p in sorted(d.e.items())
            },
            "e_b": None if pred.e_b is None else float(pred.e_b),
            "e_c": float(pred.e_c),
            "consistent": pred.consistent,
            "distill_lhs": float(ed.lhs),
            "distill_pass": ed.passes,
            "identity_outcome_dominates": ed.e00_exceeds_half,
        }
    )
    if pred.e_b is not None:
        passes = check_pm_condition(pred.e_b, pred.e_c, spec.n)
        report["continuation_lhs"] = float(pm_condition_lhs(pred.e_b, pred.e_c, spec.n))
        report["continuation_pass"] = passes
    if pred.e_c > 0:
        m = error_matrix(d)
        report["error_matrix"] = {
            "p_i": float(m.p_i),
            "p_x": float(m.p_x),
            "p_y": float(m.p_y),
            "p_z": float(m.p_z),
        }
    return report
