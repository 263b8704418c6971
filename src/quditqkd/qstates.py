"""Pair-measurement outcomes and Bell-frame bookkeeping.

The security analysis works in the maximally entangled frame whose basis
states are

    Psi_{a,l} = (|0, a> + (-1)^l |1, a+1>) / sqrt(2),   a in GF(N), l in {0,1}

and ``conjugate_frame`` tracks how an error operator, conjugated through
the random affine relabelling L_{lam,beta}: |c> -> |lam*c + beta>, moves
one basis state to another.  For a shift by ``a`` composed with a
diagonal sign mask f, the image of Psi_{b,kappa} is Psi_{b + a/lam, kappa'}
where kappa' flips exactly when f(lam*b + beta) differs from
f(lam*(b+1) + beta).  A mask is N bits, bit y the sign of label y; the
norm-sign operator Z (which flips the sign of every nonzero basis label)
is the mask (1 << N) - 2.  The rule is one array function, shared by
``analysis.bell_distribution`` and the ``verify`` conjugation suite.

Bob's pair-basis measurement is the one Born table of ``protocol``,
read by ``protocol.measure`` and ``protocol.born_weights``.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np

from .field import FieldSpec


class Outcome(IntEnum):
    """Result of a pair-basis measurement."""

    PLUS = 0
    MINUS = 1
    OUTSIDE = 2


def conjugate_frame(spec: FieldSpec, lam, beta, shift, sign_bits, b, kappa):
    """(index, sign) of the image of Psi_{b,kappa} under (I x L^-1 X_shift f L).

    ``lam`` (nonzero), ``beta``, ``shift`` and ``b`` are field-element
    columns and ``kappa`` sign bits, broadcast against each other.  The
    mask is read as f(y) = ``sign_bits[..., y]``: a 1-D ``sign_bits`` is
    one mask, and each leading axis of stacked masks leads the sign's
    shape.  The index b ^ shift/lam broadcasts over (lam, shift, b); the
    sign kappa ^ f(lam*b + beta) ^ f(lam*(b^1) + beta) over the masks,
    then (lam, beta, b, kappa).
    """
    if not np.all(lam):
        raise ValueError("lam must be nonzero")
    mul = spec.mul_table
    index = b ^ mul[spec.inv_table[lam], shift]
    flip = sign_bits[..., mul[lam, b] ^ beta] ^ sign_bits[..., mul[lam, b ^ 1] ^ beta]
    return index, kappa ^ flip
