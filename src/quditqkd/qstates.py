"""Pair-measurement outcomes and Bell-frame bookkeeping.

The security analysis works in the maximally entangled frame whose basis
states are

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

Bob's pair-basis measurement itself is ``protocol.born_weights``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

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
