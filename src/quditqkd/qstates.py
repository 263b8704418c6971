"""Sparse qudit states, pair bases, and Bell-frame bookkeeping.

The protocol only ever handles kets supported on one or two computational
basis states of an N = 2^n dimensional qudit, with amplitudes of equal
magnitude and signs +-1.  ``SparseKet`` stores exactly that: an ordered
tuple of (index, sign) terms with an implicit 1/sqrt(len) normalisation,
canonicalised so the first listed sign is + (global phase dropped).

On top of the single-qudit layer this module implements the maximally
entangled frame used by the security analysis.  The basis states are

    Psi_{a,l} = (|0, a> + (-1)^l |1, a+1>) / sqrt(2),   a in GF(N), l in {0,1}

and ``conjugate_bell`` tracks how an error operator, conjugated through
the random affine relabelling L_{lam,beta}: |c> -> |lam*c + beta>, moves
one basis state to another.  For a shift by ``a`` composed with l
applications of the norm-sign operator Z (which flips the sign of every
nonzero basis label), the image of Psi_{b,kappa} is Psi_{b + a/lam, kappa'}
where kappa' flips exactly when l = 1 and norm(lam*b + beta) differs from
norm(lam*(b+1) + beta).  ``conjugate_bell_mask`` generalises the rule to
an arbitrary diagonal sign mask f, the flip condition becoming
f(lam*b + beta) != f(lam*(b+1) + beta).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction

import numpy as np

from .field import FieldElement, FieldMismatchError, FieldSpec


class Outcome(IntEnum):
    """Result of a pair-basis measurement."""

    PLUS = 0
    MINUS = 1
    OUTSIDE = 2


def _check_same_spec(spec: FieldSpec, *els: FieldElement) -> None:
    for e in els:
        if e.spec != spec:
            raise FieldMismatchError(f"element of {e.spec} used with {spec}")


@dataclass(frozen=True)
class SparseKet:
    """One- or two-term signed superposition of computational basis states.

    ``terms`` is a tuple of (index, sign) pairs in canonical form: indices
    strictly increasing, first sign +1, signs in {+1, -1}.  Normalisation
    is implicit (1/sqrt(len)).
    """

    spec: FieldSpec
    terms: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.terms) <= 2:
            raise ValueError("SparseKet supports 1 or 2 terms")
        seen = -1
        for idx, sign in self.terms:
            self.spec.check(idx)
            if idx <= seen:
                raise ValueError("term indices must be strictly increasing")
            seen = idx
            if sign not in (1, -1):
                raise ValueError(f"term sign must be +-1, got {sign}")
        if self.terms[0][1] != 1:
            raise ValueError("canonical form requires a leading + sign")

    @classmethod
    def from_terms(
        cls, spec: FieldSpec, terms: list[tuple[int, int]] | tuple[tuple[int, int], ...]
    ) -> "SparseKet":
        """Build a ket, canonicalising order and global sign."""
        terms = sorted(terms)
        if terms and terms[0][1] == -1:
            terms = [(i, -s) for i, s in terms]
        return cls(spec, tuple(terms))

    @classmethod
    def single(cls, spec: FieldSpec, index: int) -> "SparseKet":
        return cls(spec, ((spec.check(index), 1),))

    @classmethod
    def pair(cls, spec: FieldSpec, i: int, j: int, sign_bit: int) -> "SparseKet":
        """The state (|i> + (-1)^sign_bit |j>) / sqrt(2)."""
        if i == j:
            raise ValueError("pair ket requires distinct indices")
        s = -1 if sign_bit & 1 else 1
        return cls.from_terms(spec, [(spec.check(i), 1), (spec.check(j), s)])

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.terms)

    def coefficient(self, index: int) -> int:
        """Signed indicator of |index> in the ket (normalisation dropped)."""
        for i, s in self.terms:
            if i == index:
                return s
        return 0

    def relative_sign(self) -> int:
        """Product of the term signs (+1 for single-term kets)."""
        r = 1
        for _, s in self.terms:
            r *= s
        return r


@dataclass(frozen=True)
class PairState:
    """Alice's prepared state: indices i != j and a sign bit s.

    Represents (|i> + (-1)^s |j>) / sqrt(2).  Swapping i and j changes the
    state only by a global phase, so the canonical order is i < j with s
    unchanged.
    """

    spec: FieldSpec
    i: int
    j: int
    s: int

    def __post_init__(self) -> None:
        self.spec.check(self.i)
        self.spec.check(self.j)
        if self.i >= self.j:
            raise ValueError("canonical PairState requires i < j")
        if self.s not in (0, 1):
            raise ValueError("sign bit must be 0 or 1")

    def ket(self) -> SparseKet:
        return SparseKet.pair(self.spec, self.i, self.j, self.s)


@dataclass(frozen=True)
class DiagonalPhase:
    """Diagonal sign operator |b> -> (-1)^f(b) |b> given by an N-bit mask."""

    spec: FieldSpec
    mask: int

    def __post_init__(self) -> None:
        if not 0 <= self.mask < (1 << self.spec.order):
            raise ValueError("phase mask out of range")

    @classmethod
    def zero(cls, spec: FieldSpec) -> "DiagonalPhase":
        return cls(spec, 0)

    @classmethod
    def norm_mask(cls, spec: FieldSpec) -> "DiagonalPhase":
        """The operator Z: sign flip on every nonzero basis label."""
        return cls(spec, (1 << spec.order) - 2)

    def __call__(self, index: int) -> int:
        self.spec.check(index)
        return (self.mask >> index) & 1


@dataclass(frozen=True)
class BellIndex:
    """Label (a, ell) of the entangled basis state Psi_{a,ell}."""

    a: FieldElement
    ell: int

    def __post_init__(self) -> None:
        if self.ell not in (0, 1):
            raise ValueError("ell must be 0 or 1")


def conjugate_bell_mask(
    lam: FieldElement,
    beta: FieldElement,
    a: FieldElement,
    phase: DiagonalPhase,
    b: FieldElement,
    kappa: int,
) -> BellIndex:
    """Image of Psi_{b,kappa} under (I x L^-1 X_a phase L).

    Works for an arbitrary diagonal sign mask.  The index moves to
    b + a/lam and the sign bit flips iff the mask disagrees on the two
    support labels lam*b + beta and lam*(b+1) + beta.
    """
    spec = b.spec
    _check_same_spec(spec, lam, beta, a)
    if phase.spec != spec:
        raise FieldMismatchError("phase mask spec does not match field spec")
    if lam.value == 0:
        raise ValueError("lam must be nonzero")
    if kappa not in (0, 1):
        raise ValueError("kappa must be 0 or 1")
    lb = spec.mul(lam.value, b.value) ^ beta.value
    lb1 = spec.mul(lam.value, b.value ^ 1) ^ beta.value
    flip = phase(lb) ^ phase(lb1)
    idx = b.value ^ spec.mul(spec.inv(lam.value), a.value)
    return BellIndex(FieldElement(spec, idx), kappa ^ flip)


def conjugate_bell(
    lam: FieldElement,
    beta: FieldElement,
    a: FieldElement,
    ell: int,
    b: FieldElement,
    kappa: int,
) -> BellIndex:
    """Image of Psi_{b,kappa} under (I x L^-1 X_a Z^ell L).

    The norm-mask case of :func:`conjugate_bell_mask`: the index moves to
    b + a/lam, and kappa flips exactly when ell = 1 and the norms of
    lam*b + beta and lam*(b+1) + beta differ.
    """
    if ell not in (0, 1):
        raise ValueError("ell must be 0 or 1")
    phase = DiagonalPhase.norm_mask(b.spec) if ell else DiagonalPhase.zero(b.spec)
    return conjugate_bell_mask(lam, beta, a, phase, b, kappa)


def probabilities(
    ket: SparseKet, i_prime: FieldElement, j_prime: FieldElement
) -> tuple[Fraction, Fraction, Fraction]:
    """Exact Born probabilities (Plus, Minus, Outside) for a pair basis.

    The measurement projects onto (|i'> +- |j'>) / sqrt(2) with the third
    outcome collecting the rest.  For the reachable kets the results are
    rationals with denominator dividing 4.
    """
    _check_same_spec(ket.spec, i_prime, j_prime)
    if i_prime.value == j_prime.value:
        raise ValueError("measurement pair requires distinct indices")
    ci = ket.coefficient(i_prime.value)
    cj = ket.coefficient(j_prime.value)
    ln = len(ket.terms)
    p_plus = Fraction((ci + cj) ** 2, 2 * ln)
    p_minus = Fraction((ci - cj) ** 2, 2 * ln)
    return p_plus, p_minus, 1 - p_plus - p_minus


def decide_outcome(p_plus: float, p_minus: float, u: float) -> Outcome:
    """Map one uniform draw to an outcome given the two projection weights.

    The scalar threshold of :func:`measure` and of the round-at-a-time
    replay in tests/reference.py.  The session engine's
    ``protocol.measure`` counts the thresholds p_plus and
    p_plus + p_minus that u reaches (u >= threshold), which picks the
    same outcome since p_minus >= 0; its thresholds are
    ``protocol.born_weights`` tabulated per ket case.
    """
    if u < p_plus:
        return Outcome.PLUS
    if u < p_plus + p_minus:
        return Outcome.MINUS
    return Outcome.OUTSIDE


def measure(
    ket: SparseKet,
    i_prime: FieldElement,
    j_prime: FieldElement,
    rng: np.random.Generator,
) -> Outcome:
    """Sample a three-outcome pair-basis measurement (one uniform draw)."""
    p_plus, p_minus, _ = probabilities(ket, i_prime, j_prime)
    return decide_outcome(float(p_plus), float(p_minus), rng.random())
