"""Built-in consistency suites behind the ``verify`` CLI subcommand.

Each suite holds code the package runs to an independent path and
tallies agreements, so a table or sign regression cannot pass silently:

- field tables: ``mul_table`` against bitwise polynomial arithmetic,
  ``inv_table`` by multiplying back to 1, and ``norm`` against the
  Lagrange power a^(N-1);
- born completeness: the engine's Born table, read through
  ``protocol.born_weights`` by the case map ``protocol.measure`` runs,
  against dense integer amplitudes, for every ket and pair basis;
- conjugation: the array rule ``qstates.conjugate_frame``, which
  ``analysis.bell_distribution`` runs, against a dense matrix action on
  the two-register frame.

Each suite is one array comparison per degree; the conjugation suite
makes one ``conjugate_frame`` call over all of its cases.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import protocol, qstates
from .field import FieldSpec, field_spec

__all__ = [
    "SuiteResult",
    "check_field_tables",
    "check_born_completeness",
    "check_conjugation",
    "run_all",
]

FIELD_DEGREES = (2, 3, 4, 5, 6, 7, 8)
BORN_DEGREES = (2, 3, 4)
SAMPLED_CONJUGATION_DEGREES = (3, 4)


@dataclass(frozen=True)
class SuiteResult:
    """Agreement tally for one named suite."""

    label: str
    ok: int
    total: int

    @property
    def passed(self) -> bool:
        return self.ok == self.total

    def line(self) -> str:
        word = "ok" if self.passed else "MISMATCH"
        return f"{self.label}: {self.ok}/{self.total} {word}"


def _slow_mul(a, b, modulus: int, n: int):
    # carry-less multiply then modulus reduction, no lookup tables
    acc = np.zeros(np.broadcast(a, b).shape, np.int64)
    for bit in range(n):
        acc ^= (a << bit) * ((b >> bit) & 1)
    for bit in range(2 * n - 2, n - 1, -1):
        acc ^= (modulus << (bit - n)) * ((acc >> bit) & 1)
    return acc


def check_field_tables(n: int) -> SuiteResult:
    """Products, inverses and the norm for one degree.

    ``mul_table`` against bitwise polynomial arithmetic, ``inv_table``
    against ``mul_table``, and ``norm`` against the Lagrange identity
    norm(a) = a^(N-1), raised by repeated squaring through the table.
    """
    spec = field_spec(n)
    el = np.arange(spec.order)
    mul = spec.mul_table
    products = mul == _slow_mul(el[:, None], el[None, :], spec.modulus, n)
    inverses = mul[el[1:], spec.inv_table[1:]] == 1
    # a^(N-1) = a * a^2 * a^4 * ... * a^(N/2)
    power = square = el
    for _ in range(n - 1):
        square = mul[square, square]
        power = mul[power, square]
    good = np.concatenate([products.ravel(), inverses, spec.norm(el) == power])
    return SuiteResult(f"field tables (n={n})", int(good.sum()), good.size)


def check_born_completeness(n: int) -> SuiteResult:
    """The engine's Born weights for every ket and pair basis.

    ``protocol.born_weights`` over all single-index and signed pair
    kets against dense integer amplitudes, (amp[u] +- amp[v])^2 /
    (2 |amp|^2), with the two weights summing to at most one.  The
    weights are the table ``protocol.measure`` reads, through the same
    case map, so a fault in either is a mismatch here.
    """
    spec = field_spec(n)
    order = spec.order
    pairs = protocol.pair_table(spec)
    u, v = pairs[:, 0], pairs[:, 1]
    # kets: every |i>, then (|i> + (-1)^s |j>) / sqrt(2) per pair and sign
    k1 = np.concatenate([np.arange(order), np.repeat(u, 2)])
    k2 = np.concatenate([np.full(order, -1), np.repeat(v, 2)])
    sigma = np.concatenate([np.zeros(order, np.int8), np.tile([0, 1], len(pairs))])
    amp = np.zeros((len(k1), order), np.int64)
    amp[np.arange(len(k1)), k1] = 1
    amp[np.arange(order, len(k1)), k2[order:]] = 1 - 2 * sigma[order:]
    scale = 2 * (amp**2).sum(axis=1, keepdims=True)
    want_plus = (amp[:, u] + amp[:, v]) ** 2 / scale
    want_minus = (amp[:, u] - amp[:, v]) ** 2 / scale
    p_plus, p_minus = protocol.born_weights(
        u, v, k1[:, None], k2[:, None], sigma[:, None]
    )
    good = (p_plus == want_plus) & (p_minus == want_minus) & (p_plus + p_minus <= 1)
    return SuiteResult(f"born completeness (n={n})", int(good.sum()), good.size)


def _frame_vectors(spec: FieldSpec, lam, beta, b, kappa) -> np.ndarray:
    # one two-register frame vector per case, qubit value major
    order = spec.order
    rows = np.arange(len(lam))
    vec = np.zeros((len(lam), 2 * order), np.int64)
    vec[rows, spec.mul_table[lam, b] ^ beta] = 1
    vec[rows, order + (spec.mul_table[lam, b ^ 1] ^ beta)] = 1 - 2 * kappa
    return vec


def _error_action(spec: FieldSpec, vec: np.ndarray, a, ell) -> np.ndarray:
    # X_a Z^ell on both registers: entry y moves to y ^ a, negated when
    # ell = 1 and norm(y) = 1; so entry x reads y = x ^ a
    src = np.arange(spec.order) ^ a[:, None]
    sign = 1 - 2 * ell[:, None] * spec.norm(src)
    regs = vec.reshape(len(a), 2, spec.order)
    moved = np.take_along_axis(regs, src[:, None, :], axis=2) * sign[:, None, :]
    return moved.reshape(vec.shape)


def check_conjugation(
    n: int, samples: int | None = None, seed: int = 0
) -> SuiteResult:
    """Frame-index arithmetic against a dense matrix action.

    ``samples=None`` walks the whole tuple space (lam, beta, a, ell, b,
    kappa) with lam nonzero; otherwise that many uniform draws, at
    least one.  The images come from one ``qstates.conjugate_frame``
    call over all cases, with the zero mask where ell = 0 and the norm
    mask where ell = 1; the dense action runs on all cases at once.
    """
    spec = field_spec(n)
    order = spec.order
    if samples is None:
        space = itertools.product(
            range(1, order), range(order), range(order), (0, 1), range(order), (0, 1)
        )
        cases = np.array(list(space))
        label = "conjugation" if n == 2 else f"conjugation (n={n})"
    elif samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    else:
        rng = np.random.default_rng(seed)
        cases = rng.integers((1, 0, 0, 0, 0, 0), (order, order, order, 2, order, 2), (samples, 6))
        label = f"conjugation sampled (n={n})"
    lam, beta, a, ell, b, kappa = cases.T
    masks = np.stack([np.zeros(order, np.int64), spec.norm(np.arange(order))])
    out_b, signs = qstates.conjugate_frame(spec, lam, beta, a, masks, b, kappa)
    out_kappa = signs[ell, np.arange(len(ell))]
    got = _error_action(spec, _frame_vectors(spec, lam, beta, b, kappa), a, ell)
    want = _frame_vectors(spec, lam, beta, out_b, out_kappa)
    good = (got == want).all(axis=1) | (got == -want).all(axis=1)
    return SuiteResult(label, int(good.sum()), len(good))


def run_all(samples: int = 2000, seed: int = 0) -> list[SuiteResult]:
    """Every suite at its default scope, exhaustive where cheap."""
    results = [check_field_tables(n) for n in FIELD_DEGREES]
    results.extend(check_born_completeness(n) for n in BORN_DEGREES)
    results.append(check_conjugation(2, samples=None))
    results.extend(
        check_conjugation(n, samples=samples, seed=seed + n)
        for n in SAMPLED_CONJUGATION_DEGREES
    )
    return results
