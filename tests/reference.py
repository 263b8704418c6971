"""Reference paths of the session engine.

The package runs each session through its vectorised stages
(``prepare``, ``transmit``, ``measure``, ``line_offsets``) and writes
wire records in batches.  This module keeps the scalar path those
stages replaced: the ket layer (``SparseKet`` and its exact Born rule
:func:`probabilities`, sampled by :func:`decide_outcome`), per-round
draws on those kets, per-ket channel actions, per-record wire encoders
and the per-row round-log writer.  It also keeps the earlier vectorised stage bodies (2-D
fancy-index gathers, Bob's weights computed per round and nested
``np.where`` thresholds), the binary term search, the list-built pair
table and the row-wise mask dedupe as ``reference_*``.  Differential
tests compare the fast paths against both.  It also keeps the index
pairing of a distillation stage (:func:`pair_stage_permutation` and
:func:`reference_pair_stage`), the reference for the in-place shuffle
``distill.pair_stage``, and :func:`toeplitz_compress`, a
non-cryptographic stand-in for key
compression that the package never calls, and the scalar field layer:
:class:`FieldElement` (its products and inverses read the spec's
tables), the sign-mask operator :class:`DiagonalPhase`, and the
one-case-at-a-time frame rule
:func:`conjugate_bell_mask` (with its norm-mask case
:func:`conjugate_bell`), the reference for the array rule
``qstates.conjugate_frame``.  :func:`reference_e_max_scan` keeps the
frontier scan that built one frozen-dataclass :class:`DataclassScanRow`
per slice, the reference for the named-tuple rows that
``threshold.e_max_scan`` builds in bulk.

Unlike :mod:`oracles`, this module imports ``quditqkd``: the scalar
replay reuses the engine's tally and post-round stages (``Tally.of``
with both sides' bits and ``_outcome_counts`` on its whole log as one
chunk, then ``_finish_session``), so a differential test pins only the
per-round stages.  :func:`reference_finish_session` keeps the earlier
tail that sifts, estimates and counts in passes over the whole log,
with e_c counted from line offsets by :func:`accepted_counts`, the
reference for the offset-free counts of ``Tally``.
:func:`reference_sift_digest` hashes a whole sift list at once, the
reference for the SIFT_ACCEPT digest that the wire roles feed window
by window.  The ``fraction_*`` functions and
:class:`FractionBellDistribution` keep the exact analysis as it ran in
``Fraction``s, a per-term sum for the channel weights and per-entry
sums for the outcome table, its checks and observables: the reference
for the integer numerators of ``ChannelModel`` and
``analysis.BellDistribution``, and for criterion 3's integer table
generators.
"""

from __future__ import annotations

import csv
import hashlib
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from quditqkd.analysis import (
    EdVerdict,
    ErrorMatrix,
    ObservablePrediction,
    intercept_distribution,
)
from quditqkd.channels import (
    KIND_DEPHASE,
    KIND_INTERCEPT,
    Action,
    ChannelModel,
    RandomDephase,
    UnitaryTerm,
    resolve_channel,
)
from quditqkd.field import FieldSpec, field_spec
from quditqkd.protocol import (
    _LOG_DTYPES,
    STREAM_ALICE,
    STREAM_BOB,
    STREAM_CHANNEL,
    STREAM_SAMPLE,
    Z_99,
    RateEstimate,
    RoundLog,
    SessionConfig,
    SessionOutput,
    SessionStats,
    Tally,
    _finish_session,
    _outcome_counts,
    check_pm_condition,
    condition_verdict,
    draw_sample,
    kept_rounds,
    pair_table,
    pm_condition_lhs,
    sample_rates,
    spawn_streams,
)
from quditqkd.qstates import Outcome, conjugate_frame
from quditqkd.threshold import (
    STATUS_BOUNDARY,
    STATUS_FEASIBLE,
    STATUS_UNREACHABLE,
    ScanResult,
)

# -- scalar field elements and the scalar frame rule ----------------------------


class FieldMismatchError(ValueError):
    """Raised when elements of different field specs are combined."""


@dataclass(frozen=True)
class FieldElement:
    """A single element of a fixed GF(2^n).

    Supports ``+`` (also ``-``, equal in characteristic 2), ``*``, ``/``,
    ``inv``, integer powers, and the norm map.  Operations between
    elements of different specs raise :class:`FieldMismatchError`.
    """

    spec: FieldSpec
    value: int

    def __post_init__(self) -> None:
        self.spec.check(self.value)

    def _joint(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.spec != self.spec:
            raise FieldMismatchError(
                f"cannot combine elements of {self.spec} and {other.spec}"
            )

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._joint(other)
        return FieldElement(self.spec, self.value ^ other.value)

    __sub__ = __add__

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._joint(other)
        return FieldElement(self.spec, int(self.spec.mul_table[self.value, other.value]))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        self._joint(other)
        return self * other.inv()

    def __pow__(self, k: int) -> "FieldElement":
        base = self.inv() if k < 0 else self
        out = FieldElement(self.spec, 1)
        for _ in range(abs(k)):
            out = out * base
        return out

    def inv(self) -> "FieldElement":
        if self.value == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return FieldElement(self.spec, int(self.spec.inv_table[self.value]))

    def norm(self) -> int:
        return self.spec.norm(self.value)

    def __index__(self) -> int:
        return self.value

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"FieldElement({self.value}, GF(2^{self.spec.n}))"


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
    """Image of Psi_{b,kappa} under (I x L^-1 X_a phase L), one case at a time.

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
    mul = spec.mul_table
    lb = int(mul[lam.value, b.value]) ^ beta.value
    lb1 = int(mul[lam.value, b.value ^ 1]) ^ beta.value
    flip = phase(lb) ^ phase(lb1)
    idx = b.value ^ int(mul[spec.inv_table[lam.value], a.value])
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


# -- kets, the scalar Born rule and channel actions -----------------------------


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

    The scalar threshold of the round-at-a-time replay
    (:func:`draw_bob_round`).  The session engine's
    ``protocol.measure`` counts the thresholds p_plus and
    p_plus + p_minus that u reaches (u >= threshold), which picks the
    same outcome since p_minus >= 0; its thresholds are the one Born
    table of ``protocol``, a row per ket case.
    """
    if u < p_plus:
        return Outcome.PLUS
    if u < p_plus + p_minus:
        return Outcome.MINUS
    return Outcome.OUTSIDE


def apply_error(a: FieldElement, phase: DiagonalPhase, ket: SparseKet) -> SparseKet:
    """Apply the error operator X_a . phase: signs first, then index shift."""
    _check_same_spec(ket.spec, a)
    if phase.spec != ket.spec:
        raise FieldMismatchError("phase mask spec does not match ket spec")
    return SparseKet.from_terms(
        ket.spec,
        [(i ^ a.value, -s if phase(i) else s) for i, s in ket.terms],
    )


def apply_term(
    action: Action, ket: SparseKet, aux_u: float, spec: FieldSpec
) -> SparseKet:
    """Apply one sampled action.  ``aux_u`` feeds the branchy actions.

    Every round consumes exactly one auxiliary uniform whether or not the
    action uses it, keeping draw order identical across implementations.
    """
    if isinstance(action, UnitaryTerm):
        return apply_error(
            FieldElement(spec, action.shift), DiagonalPhase(spec, action.mask), ket
        )
    if isinstance(action, RandomDephase):
        if len(ket.terms) == 2 and aux_u < 0.5:
            (i, si), (j, sj) = ket.terms
            return SparseKet.from_terms(spec, [(i, si), (j, -sj)])
        return ket
    # Intercept-resend: Born weights on a 1-2 term ket are uniform over
    # the support, so one fair choice over the canonical ordering works.
    idx = ket.indices
    pick = idx[0] if aux_u < 0.5 or len(idx) == 1 else idx[1]
    return SparseKet.single(spec, pick)


def transmit(
    model: ChannelModel, ket: SparseKet, rng: np.random.Generator
) -> SparseKet:
    """Send one ket through the channel (always two uniform draws)."""
    if ket.spec != model.spec:
        raise ValueError("ket spec does not match channel spec")
    term_u = rng.random()
    aux_u = rng.random()
    _, action = model.terms[model.sample_term_index(term_u)]
    return apply_term(action, ket, aux_u, model.spec)


# -- per-round draws and the scalar replay ------------------------------------


def pick_pair_index(u: float, count: int) -> int:
    """Uniform table row from one uniform draw (top edge clamped)."""
    return min(int(u * count), count - 1)


def pair_offset(spec: FieldSpec, i: int, j: int, u: int, v: int) -> int:
    """Line offset of Bob's pair {u, v} relative to Alice's {i, j}.

    Returns the field factor a with u = i + a*(i+j) when both pairs share
    the same index difference, else -1 (off the line).  Offsets a and a^1
    name the same unordered pair, so class membership is a & ~1.
    """
    delta = i ^ j
    if (u ^ v) != delta:
        return -1
    return int(spec.mul_table[u ^ i, spec.inv_table[delta]])


def draw_alice_round(table: np.ndarray, rng) -> tuple[int, int, int]:
    """Alice's per-round preparation (i, j, s): two uniforms (pair, sign bit)."""
    row = pick_pair_index(rng.random(), len(table))
    s = int(rng.random() >= 0.5)
    return int(table[row, 0]), int(table[row, 1]), s


def draw_bob_round(spec: FieldSpec, table: np.ndarray, ket: SparseKet, rng):
    """Bob's per-round measurement: three uniforms (pair, outcome, noise).

    Returns ((u, v), outcome, noise_bit).  The noise bit is drawn every
    round whether or not it is needed, keeping the draw count fixed.
    """
    row = pick_pair_index(rng.random(), len(table))
    u, v = int(table[row, 0]), int(table[row, 1])
    p_plus, p_minus, _ = probabilities(ket, FieldElement(spec, u), FieldElement(spec, v))
    outcome = decide_outcome(float(p_plus), float(p_minus), rng.random())
    noise = int(rng.random() >= 0.5)
    return (u, v), outcome, noise


def decode_bob_bit(outcome: Outcome, noise_bit: int) -> int:
    """Plus -> 0, Minus -> 1, Outside -> the provided random bit."""
    return int(outcome) if outcome != Outcome.OUTSIDE else noise_bit


def replay_session_scalar(cfg: SessionConfig) -> SessionOutput:
    """Round-at-a-time reference implementation of ``run_session``.

    Draws every round through the scalar per-round helpers above; the
    post-round stages are the engine's own.
    """
    spec = field_spec(cfg.n)
    model = resolve_channel(cfg.channel, spec)
    streams = spawn_streams(cfg.seed)
    table = pair_table(spec)
    rows = []
    for _ in range(cfg.rounds):
        i, j, s = draw_alice_round(table, streams[STREAM_ALICE])
        ket = transmit(model, SparseKet.pair(spec, i, j, s), streams[STREAM_CHANNEL])
        (u, v), out, noise = draw_bob_round(spec, table, ket, streams[STREAM_BOB])
        bit = decode_bob_bit(out, noise)
        off = pair_offset(spec, i, j, u, v)
        rows.append((i, j, s, u, v, int(out), bit, off))
    cols = np.array(rows, np.int64).T
    log = RoundLog(*(col.astype(dtype) for col, dtype in zip(cols, _LOG_DTYPES)))
    tally = Tally.of(
        log.alice_i,
        log.alice_j,
        log.bob_i,
        log.bob_j,
        log.clicked,
        np.flatnonzero(log.sifted),
        log.alice_s,
        log.bob_bit,
    )
    counts = _outcome_counts(log, spec.order)
    return _finish_session(cfg, log, tally, counts, streams[STREAM_SAMPLE])


def accepted_counts(offset, clicked) -> tuple[int, int]:
    """Successes and trials of the accepted rate, from line offsets and in-pair flags.

    Among rounds measured on Alice's line with an in-pair outcome, the
    ones whose offset class is {0, 1} (i.e. Bob's pair equals Alice's).
    Rejected (unsifted) on-line rounds enter the denominator.
    """
    on_line = (offset >= 0) & clicked
    in_class = on_line & ((offset & ~1) == 0)
    return int(np.count_nonzero(in_class)), int(np.count_nonzero(on_line))


def accepted_rate(offset, clicked, z: float = Z_99) -> RateEstimate:
    """Accepted-rate estimate of :func:`accepted_counts`; no trials give rate None."""
    return RateEstimate.from_counts(*accepted_counts(offset, clicked), z)


def reference_outcome_counts(log: RoundLog, order: int) -> dict[tuple[int, int], int]:
    """Rounds per (line offset, outcome), one bincount over the whole log."""
    code = (log.offset.astype(np.intp) + 1) * 3 + log.outcome
    total = np.bincount(code, minlength=3 * (order + 1))
    return {(c // 3 - 1, c % 3): int(k) for c, k in enumerate(total) if k}


def reference_finish_session(cfg: SessionConfig, log: RoundLog, sample_rng) -> SessionOutput:
    """Sift, sample, estimate and decide in passes over the whole round log."""
    sift_idx = np.flatnonzero(log.sifted)
    sample_pos = draw_sample(len(sift_idx), cfg.sample_fraction, sample_rng)
    sample_rounds = sift_idx[sample_pos]
    keep = kept_rounds(sift_idx, sample_pos)
    clicked = log.clicked
    e_b, e_b_all = sample_rates(
        log.alice_s[sample_rounds], log.bob_bit[sample_rounds], clicked[sample_rounds]
    )
    e_c = accepted_rate(log.offset, clicked)
    lhs, verdict = condition_verdict(e_b, e_c, cfg.n)
    stats = SessionStats(
        status="ok" if len(sift_idx) else "insufficient-sift",
        rounds=cfg.rounds,
        sifted_count=len(sift_idx),
        sample_count=len(sample_pos),
        outside_in_sifted=int(np.count_nonzero(~clicked[sift_idx])),
        key_length=len(keep),
        e_b=e_b,
        e_b_all=e_b_all,
        e_c=e_c,
        counts=reference_outcome_counts(log, 1 << cfg.n),
        condition_lhs=lhs,
        condition_pass=verdict,
    )
    alice_key = log.alice_s[keep].astype(np.uint8)
    return SessionOutput(alice_key, log.bob_bit[keep].astype(np.uint8), stats, log)


def reference_sift_digest(sift_idx) -> bytes:
    """SHA-256 of a whole sift list as little-endian int64, hashed at once."""
    return hashlib.sha256(np.ascontiguousarray(sift_idx, "<i8")).digest()


# -- earlier vectorised stage bodies --------------------------------------------


def reference_sample_term_index(model: ChannelModel, u):
    return np.minimum(
        np.searchsorted(model.cum_weights, u, side="right"), len(model.terms) - 1
    )


def reference_pair_table(spec: FieldSpec) -> np.ndarray:
    n = spec.order
    return np.array(
        [(u, v) for u in range(n) for v in range(u + 1, n)], dtype=np.int16
    )


def reference_distinct_masks(sign_bits: np.ndarray):
    return np.unique(sign_bits, axis=0, return_inverse=True)


def reference_pick_pairs(table: np.ndarray, u: np.ndarray):
    pairs = len(table)
    row = np.minimum((u * pairs).astype(np.int64), pairs - 1)
    return table[row, 0], table[row, 1]


def reference_prepare(table: np.ndarray, rng, count: int):
    draw = rng.random((count, 2))
    i, j = reference_pick_pairs(table, draw[:, 0])
    return i, j, (draw[:, 1] >= 0.5).astype(np.int8)


def reference_transmit(model: ChannelModel, k1, k2, sigma, rng):
    draw = rng.random((len(k1), 2))
    t = model.sample_term_index(draw[:, 0])
    heads = draw[:, 1] < 0.5
    kind = model.kind[t]
    collapse = k2 < 0
    k2 = np.where(collapse, k1, k2)
    bits = model.sign_bits
    sig = sigma ^ bits[t, k1] ^ bits[t, k2] ^ (heads & (kind == KIND_DEPHASE))
    shift = model.shift[t]
    x1 = k1 ^ shift
    x2 = k2 ^ shift
    m1 = np.minimum(x1, x2)
    m2 = np.maximum(x1, x2)
    intercept = kind == KIND_INTERCEPT
    m1 = np.where(intercept & ~heads, m2, m1)
    collapse |= intercept
    m2[collapse] = -1
    sig[collapse] = 0
    return m1, m2, sig, t


def reference_measure(table: np.ndarray, k1, k2, sigma, rng):
    draw = rng.random((len(k1), 3))
    u, v = reference_pick_pairs(table, draw[:, 0])
    sign2 = 1 - 2 * sigma.astype(np.int64)
    c_u = (u == k1) * 1 + (u == k2) * sign2
    c_v = (v == k1) * 1 + (v == k2) * sign2
    width = np.where(k2 < 0, 2.0, 4.0)
    p_plus, p_minus = (c_u + c_v) ** 2 / width, (c_u - c_v) ** 2 / width
    u_out = draw[:, 1]
    out = np.where(u_out < p_plus, 0, np.where(u_out < p_plus + p_minus, 1, 2))
    noise = (draw[:, 2] >= 0.5).astype(np.int8)
    return u, v, out, np.where(out < 2, out, noise)


def reference_line_offsets(spec: FieldSpec, ai, aj, bi, bj) -> np.ndarray:
    delta = ai ^ aj
    on = (bi ^ bj) == delta
    off = np.full(len(ai), -1, np.int16)
    off[on] = spec.mul_table[(bi ^ ai)[on], spec.inv_table[delta[on]]]
    return off


# -- per-record wire encodings ------------------------------------------------


def serialize_ket(ket: SparseKet) -> bytes:
    """Per term a big-endian u16 index and one sign byte (0x00 +, 0x01 -)."""
    return b"".join(struct.pack(">HB", i, 0 if s == 1 else 1) for i, s in ket.terms)


def encode_pair(i: int, j: int) -> bytes:
    return struct.pack(">HH", i, j)


def encode_outcome_announce(u: int, v: int, category: int) -> bytes:
    return struct.pack(">HHB", u, v, category)


# -- round log ----------------------------------------------------------------


def round_log_csv(log: RoundLog, fileobj) -> None:
    """Per-row writer of the round-log CSV (``RoundLog.to_csv`` format)."""
    writer = csv.writer(fileobj)
    writer.writerow(
        ["round", "i", "j", "s", "i_prime", "j_prime", "outcome", "sifted", "offset"]
    )
    names = {0: "plus", 1: "minus", 2: "outside"}
    sift = log.sifted
    for r in range(len(log)):
        off = int(log.offset[r])
        writer.writerow(
            [
                r,
                int(log.alice_i[r]),
                int(log.alice_j[r]),
                int(log.alice_s[r]),
                int(log.bob_i[r]),
                int(log.bob_j[r]),
                names[int(log.outcome[r])],
                int(sift[r]),
                "" if off < 0 else off,
            ]
        )


def toeplitz_compress(bits: np.ndarray, output_fraction: float, rng) -> np.ndarray:
    """Toeplitz-style parity compression of a bit vector.

    NOT a cryptographic privacy-amplification step: a placeholder with
    the right shape (seeded random binary Toeplitz matrix applied over
    GF(2)) standing in for the out-of-scope final code.
    """
    if not 0 < output_fraction <= 1:
        raise ValueError("output_fraction must be in (0, 1]")
    length = len(bits)
    out_len = int(output_fraction * length)
    if out_len == 0:
        return np.zeros(0, np.uint8)
    diag = rng.integers(0, 2, size=out_len + length - 1, dtype=np.uint8)
    conv = np.convolve(diag.astype(np.int64), np.asarray(bits, np.int64), mode="valid")
    return (conv % 2).astype(np.uint8)


def pair_stage_permutation(length: int, seed: int) -> np.ndarray:
    """The pairing shuffle of one stage: positions perm[2t], perm[2t+1] pair up."""
    return np.random.default_rng(seed).permutation(length)


def reference_pair_stage(length: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions (first[t], second[t]) paired by one stage; an odd one out is left."""
    perm = pair_stage_permutation(length, seed)
    half = length // 2
    return perm[0 : 2 * half : 2], perm[1 : 2 * half : 2]


# -- the frontier scan with one dataclass row per slice ------------------------


@dataclass(frozen=True)
class DataclassScanRow:
    """Verdict for one e_b slice, as ``ScanRow`` was before it became a tuple."""

    e_b: float
    min_f: float | None
    status: str

    @property
    def feasible(self) -> bool:
        return self.status == STATUS_FEASIBLE


def reference_e_max_scan(n: int, grid: int) -> ScanResult:
    """``threshold.e_max_scan`` with its rows built one dataclass at a time."""
    order = 1 << n
    e_b = np.linspace(0.0, 1.0, grid + 1).tolist()
    last = (grid - 1) // 2
    k = np.arange(last + 1, dtype=np.float64)
    lead = grid - 2 * k
    tail = 2 * (order - 2) ** 2 * grid - ((order - 4) ** 2 + order**2) * k
    denom = (order - 1) * grid - (order - 2) * k
    min_f = (lead * tail / (8 * denom * denom)).tolist()
    rows = [DataclassScanRow(b, f, STATUS_FEASIBLE) for b, f in zip(e_b, min_f)]
    if grid % 2 == 0:
        rows.append(DataclassScanRow(e_b[grid // 2], 0.0, STATUS_BOUNDARY))
    rows.extend(DataclassScanRow(b, None, STATUS_UNREACHABLE) for b in e_b[grid // 2 + 1 :])
    return ScanResult(
        n=n, grid=grid, rows=tuple(rows), e_max=e_b[last], resolution=1.0 / grid
    )


# -- the Fraction path of the exact analysis ------------------------------------


def fraction_channel_weights(terms):
    """``(terms, weights, weight_id, cum_weights)`` as a per-term Fraction sum built them.

    Raises as ``ChannelModel`` does on a probability that is not a
    nonnegative Fraction or on a sum other than 1.
    """
    total = Fraction(0)
    for p, _ in terms:
        if not isinstance(p, Fraction) or p < 0:
            raise ValueError("term probabilities must be nonnegative Fractions")
        total += p
    if total != 1:
        raise ValueError(f"term probabilities sum to {total}, expected 1")
    kept = tuple((p, a) for p, a in terms if p > 0)
    cum_weights = np.cumsum([float(p) for p, _ in kept])
    cum_weights[-1] = 1.0
    ids: dict[Fraction, int] = {}
    weight_id = np.array([ids.setdefault(p, len(ids)) for p, _ in kept])
    return kept, tuple(ids), weight_id, cum_weights


def fraction_weighted(weights, counts) -> Fraction:
    return sum((p * int(c) for p, c in zip(weights, counts) if c), Fraction(0))


def fraction_bell_distribution(model: ChannelModel) -> dict:
    """The outcome table ``e``, weighted per distinct probability in Fractions."""
    spec = model.spec
    N = spec.order
    masks, mask_id = reference_distinct_masks(model.sign_bits)
    land, sign = conjugate_frame(
        spec, np.arange(1, N)[:, None], np.arange(N), model.shift[:, None, None], masks, 0, 0
    )
    flips = np.where((model.kind == KIND_DEPHASE)[:, None], N // 2, sign.sum(axis=2)[mask_id])
    cell = (model.weight_id[:, None] * N + land[..., 0]) * 2
    counts = np.zeros((len(model.weights), N, 2), np.int64)
    np.add.at(counts.reshape(-1), cell, N - flips)
    np.add.at(counts.reshape(-1), cell + 1, flips)
    scale = Fraction(1, N * (N - 1))
    return {
        (int(a), int(ell)): scale * fraction_weighted(model.weights, counts[:, a, ell])
        for a, ell in zip(*np.nonzero(counts.any(axis=0)))
    }


@dataclass(frozen=True)
class FractionBellDistribution:
    """An outcome table whose checks and sums run on its own entries."""

    spec: FieldSpec
    e: dict

    def get(self, a: int, ell: int):
        return self.e.get((a, ell), Fraction(0))

    def total(self):
        return sum(self.e.values())

    def validate(self) -> None:
        for (a, ell), p in self.e.items():
            self.spec.check(a)
            if ell not in (0, 1):
                raise ValueError(f"bad ell {ell}")
            if p < 0:
                raise ValueError(f"negative probability at {(a, ell)}")
        if self.total() != 1:
            raise ValueError(f"probabilities sum to {self.total()}")
        masses = {a: self.get(a, 0) + self.get(a, 1) for a in range(1, self.spec.order)}
        if max(masses.values()) != min(masses.values()):
            raise ValueError("per-index sum rule violated")


def fraction_predict_observables(d: FractionBellDistribution) -> ObservablePrediction:
    N = d.spec.order
    e_c = d.get(0, 0) + d.get(1, 0) + d.get(0, 1) + d.get(1, 1)
    phase_mass = d.get(0, 1) + d.get(1, 1)
    e_b = None if e_c == 0 else phase_mass / e_c
    alt = (N - 2) * (d.get(1, 0) + d.get(1, 1))
    return ObservablePrediction(e_b, e_c, (1 - e_c) == alt)


def fraction_error_matrix(d: FractionBellDistribution) -> ErrorMatrix:
    e_c = d.get(0, 0) + d.get(1, 0) + d.get(0, 1) + d.get(1, 1)
    if e_c == 0:
        raise ValueError("e_c = 0, error matrix undefined")
    return ErrorMatrix(d.get(0, 0) / e_c, d.get(1, 0) / e_c, d.get(1, 1) / e_c, d.get(0, 1) / e_c)


def fraction_check_ed_condition(d: FractionBellDistribution) -> EdVerdict:
    N = d.spec.order
    lhs = d.get(0, 1) + d.get(1, 1) + (N - 1) * (d.get(1, 0) + d.get(1, 1))
    return EdVerdict(lhs < Fraction(1, 2), lhs, d.get(0, 0) > Fraction(1, 2))


def fraction_analysis_report(model: ChannelModel) -> dict:
    """``analysis_report`` with every float taken from a Fraction."""
    spec = model.spec
    report: dict = {"n": spec.n, "modulus": hex(spec.modulus)}
    if model.has_intercept():
        intercept = model.kind == KIND_INTERCEPT
        counts = np.bincount(model.weight_id[intercept], minlength=len(model.weights))
        e_b, e_c = intercept_distribution(fraction_weighted(model.weights, counts), spec)
        lhs = pm_condition_lhs(e_b, e_c, spec.n)
        report.update(
            {
                "kind": "intercept",
                "e_b": float(e_b),
                "e_c": float(e_c),
                "continuation_lhs": float(lhs),
                "continuation_pass": check_pm_condition(e_b, e_c, spec.n),
            }
        )
        return report
    d = FractionBellDistribution(spec, fraction_bell_distribution(model))
    d.validate()
    pred = fraction_predict_observables(d)
    ed = fraction_check_ed_condition(d)
    report.update(
        {
            "kind": "unitary",
            "outcome_table": {f"{a},{ell}": float(p) for (a, ell), p in sorted(d.e.items())},
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
        m = fraction_error_matrix(d)
        report["error_matrix"] = {
            "p_i": float(m.p_i),
            "p_x": float(m.p_x),
            "p_y": float(m.p_y),
            "p_z": float(m.p_z),
        }
    return report


def fraction_random_exact_distribution(rng: np.random.Generator, order: int, denom: int = 64):
    """``oracles.random_exact_distribution``'s table, built in Fractions one draw at a time."""
    weights = rng.integers(0, denom, size=3)
    e00 = Fraction(int(weights[0]), 1)
    e01 = Fraction(int(weights[1]), 1)
    shared = Fraction(int(weights[2]), 1)
    parts = []
    for _ in range(order - 1):
        cut = Fraction(int(rng.integers(0, denom + 1)), denom)
        parts.append((shared * cut, shared * (1 - cut)))
    total = e00 + e01 + shared * (order - 1)
    if total == 0:
        return {(0, 0): Fraction(1)}
    return _fraction_table(e00, e01, parts, total)


def fraction_heavy_outcome_table(rng: np.random.Generator, order: int):
    """Criterion 3's heavy-identity table, built in Fractions one draw at a time."""
    m00 = int(rng.integers(3 * order, 12 * order))
    m01 = int(rng.integers(0, 4))
    shared = int(rng.integers(0, 3))
    denom = 16
    parts = []
    for _ in range(order - 1):
        cut = Fraction(int(rng.integers(0, denom + 1)), denom)
        parts.append((shared * cut, shared * (1 - cut)))
    total = Fraction(m00 + m01 + shared * (order - 1))
    return _fraction_table(m00, m01, parts, total)


def _fraction_table(e00, e01, parts, total) -> dict:
    table = {}
    if e00:
        table[(0, 0)] = e00 / total
    if e01:
        table[(0, 1)] = e01 / total
    for a, (p0, p1) in enumerate(parts, start=1):
        if p0:
            table[(a, 0)] = p0 / total
        if p1:
            table[(a, 1)] = p1 / total
    return table
