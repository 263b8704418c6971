"""Independent reference computations used to pin expected values.

Everything here recomputes behaviour along a path that shares no code
with the package: bitwise polynomial arithmetic, dense integer
matrices, explicit enumeration, exact fractions.  Tests freeze these
results; the fast implementations must match them.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def slow_gf_mul(a: int, b: int, modulus: int, n: int) -> int:
    """Carry-less polynomial product reduced by the modulus."""
    acc = 0
    for bit in range(n):
        if (b >> bit) & 1:
            acc ^= a << bit
    for bit in range(2 * n - 2, n - 1, -1):
        if (acc >> bit) & 1:
            acc ^= modulus << (bit - n)
    return acc


def poly_mod(a: int, m: int) -> int:
    """Remainder of the GF(2) polynomial bit mask a modulo m."""
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


def is_irreducible(p: int) -> bool:
    """Exhaustive trial division by every polynomial of degree 1..deg/2."""
    d = p.bit_length() - 1
    if d < 1:
        return False
    return all(poly_mod(p, q) for q in range(2, 1 << (d // 2 + 1)))


def smallest_irreducible(n: int) -> int:
    """Lexicographically smallest irreducible polynomial of degree n."""
    return next(p for p in range(1 << n, 1 << (n + 1)) if is_irreducible(p))


def dense_frame(spec, lam: int, beta: int, b: int, kappa: int) -> np.ndarray:
    """Integer amplitude vector of the (b, kappa) frame on the (lam, beta) line.

    Basis order: control-bit major, qudit index minor, 2N entries.
    """
    order = spec.order
    vec = np.zeros(2 * order, dtype=np.int64)
    vec[slow_gf_mul(lam, b, spec.modulus, spec.n) ^ beta] += 1
    vec[order + (slow_gf_mul(lam, b ^ 1, spec.modulus, spec.n) ^ beta)] += (-1) ** kappa
    return vec


def dense_error_operator(spec, a: int, mask: int) -> np.ndarray:
    """Shift-by-a times the diagonal sign pattern of ``mask`` as a matrix."""
    order = spec.order
    mat = np.zeros((order, order), dtype=np.int64)
    for y in range(order):
        mat[y ^ a, y] = -1 if (mask >> y) & 1 else 1
    return mat


def norm_mask_bits(spec) -> int:
    mask = 0
    for y in range(1, spec.order):
        mask |= 1 << y
    return mask


def conjugation_matches(
    spec, lam: int, beta: int, a: int, ell: int, b: int, kappa: int, index: int, sign: int
) -> bool:
    """Is the frame image (index, sign) the dense matrix action's result?

    Compared up to a global sign, which is all a state assignment can
    promise.
    """
    mask = norm_mask_bits(spec) if ell else 0
    op = dense_error_operator(spec, a, mask)
    vec = dense_frame(spec, lam, beta, b, kappa)
    got = np.concatenate([op @ vec[: spec.order], op @ vec[spec.order :]])
    want = dense_frame(spec, lam, beta, index, sign)
    return bool(np.array_equal(got, want) or np.array_equal(got, -want))


def exact_continuation_lhs(e_b: Fraction, e_c: Fraction, order: int) -> Fraction:
    return e_b * e_c + Fraction(order - 1, order - 2) * (1 - e_c)


def exact_distill_lhs(dist: dict[tuple[int, int], Fraction], order: int) -> Fraction:
    e01 = dist.get((0, 1), Fraction(0))
    e10 = dist.get((1, 0), Fraction(0))
    e11 = dist.get((1, 1), Fraction(0))
    return e01 + e11 + (order - 1) * (e10 + e11)


def observed_rates(
    dist: dict[tuple[int, int], Fraction], order: int
) -> tuple[Fraction | None, Fraction]:
    """(e_b, e_c) exactly as the estimators define them."""
    e_c = sum(dist.get(key, Fraction(0)) for key in ((0, 0), (0, 1), (1, 0), (1, 1)))
    if e_c == 0:
        return None, e_c
    e_b = (dist.get((0, 1), Fraction(0)) + dist.get((1, 1), Fraction(0))) / e_c
    return e_b, e_c


def random_exact_distribution(rng: np.random.Generator, order: int, denom: int = 64):
    """A random normalized outcome table satisfying the per-index sum rule.

    Index masses for a != 0 must be equal, so one shared mass is drawn
    and split per index between the two sign bits.  The table is
    ``(num, den)``, integer numerators over one denominator: the masses
    scaled by ``denom``, so that every split is whole.
    """
    m00, m01, shared = rng.integers(0, denom, size=3).tolist()
    cuts = rng.integers(0, denom + 1, size=order - 1).tolist()
    total = m00 + m01 + shared * (order - 1)
    if total == 0:
        return {(0, 0): 1}, 1
    return split_table(m00 * denom, m01 * denom, shared, cuts, denom), total * denom


def split_table(n00: int, n01: int, shared: int, cuts: list[int], denom: int) -> dict:
    """Numerators of an outcome table whose index a >= 1 splits ``shared``
    as cuts[a - 1] : denom - cuts[a - 1] between its two sign bits.

    Zero entries are left out.
    """
    num = {}
    if n00:
        num[(0, 0)] = n00
    if n01:
        num[(0, 1)] = n01
    for a, cut in enumerate(cuts, start=1):
        if shared * cut:
            num[(a, 0)] = shared * cut
        if shared * (denom - cut):
            num[(a, 1)] = shared * (denom - cut)
    return num


def pump_pair_once(p: tuple) -> tuple:
    """One explicit pairing stage on an (i, x, y, z) label distribution.

    Pairs survive when their phase labels agree; the survivor keeps the
    first phase label and the parity of the two bit-flip labels.
    """
    pi, px, py, pz = (Fraction(v) if not isinstance(v, Fraction) else v for v in p)
    keep = (pi + px) ** 2 + (py + pz) ** 2
    qi = (pi * pi + px * px) / keep
    qx = 2 * pi * px / keep
    qy = 2 * py * pz / keep
    qz = (py * py + pz * pz) / keep
    return (qi, qx, qy, qz)


def iterate_pumping(p: tuple, k: int) -> tuple:
    for _ in range(k):
        p = pump_pair_once(p)
    return p


def majority_fail_exact(x: Fraction, r: int) -> Fraction:
    """P(more than r/2 of r independent flips), exact."""
    x = Fraction(x)
    return sum(
        Fraction(math.comb(r, t)) * x**t * (1 - x) ** (r - t)
        for t in range(r // 2 + 1, r + 1)
    )


def parity_fail_exact(z: Fraction, r: int) -> Fraction:
    """P(odd number of z flips among r), exact."""
    z = Fraction(z)
    return sum(
        Fraction(math.comb(r, t)) * z**t * (1 - z) ** (r - t)
        for t in range(1, r + 1, 2)
    )


def wilson_reference(successes: int, trials: int, z: float) -> tuple[float, float]:
    """Textbook score interval, written independently of the package."""
    p_hat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p_hat + z2 / (2 * trials)) / denom
    half = (
        z * math.sqrt(p_hat * (1.0 - p_hat) / trials + z2 / (4.0 * trials * trials))
    ) / denom
    return max(0.0, center - half), min(1.0, center + half)
