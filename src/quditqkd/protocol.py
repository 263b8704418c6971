"""Monte Carlo engine for the prepare-and-measure session.

Per round: Alice draws a uniform unordered index pair i < j and a sign
bit s, prepares (|i> + (-1)^s |j>)/sqrt(2), and sends it through the
channel.  Bob draws his own pair and measures the three-outcome basis
{Plus, Minus, Outside}.  Pairs are announced, rounds with equal pairs
are sifted into the raw key (Plus -> 0, Minus -> 1; a sifted round whose
outcome fell Outside decodes to a fresh random bit and is counted
separately), a random sample of the sifted rounds is revealed to
estimate the error rate, and the continuation inequality

    e_b * e_c + (N - 1)(1 - e_c)/(N - 2) < 1/2      (strict)

is evaluated on the estimates.

Randomness contract
-------------------

One master seed expands via SeedSequence.spawn into five child streams:
alice, bob, channel, sample, pairing (in that index order).  Per round,
alice consumes exactly two uniforms (pair, sign), the channel two
(term, auxiliary), bob three (pair, outcome, outside-decode noise).
Batched draws fill row-major, so any chunking of rounds -- including the
networked runner's windows of rounds -- reproduces identical sessions.
Each uniform is one 64-bit draw, so the engine starts a span of rounds
at round lo by advancing copies of the alice, channel and bob streams by
2*lo, 2*lo and 3*lo draws; spans run side by side on the usable CPUs,
and outputs do not depend on how many there are.  Each span's thread
also tallies its chunks as it fills them, into the :class:`Tally` the
networked roles build per window (the in-pair flags, the e_c counts and
each side's bit of the sifted rounds, one byte per sifted round and no
round index), plus the outcome counts.  After the spans join, the tail
draws the sample over the sifted positions and gathers the sample bits
and the keys from those bits alone.
The sample stream is consumed once (a single permutation of the sifted
rounds); the pairing stream is left untouched here and feeds the
post-processing stage seeds downstream.

Bob's Born rule is one table over the 18 cases a ket can present to a
pair basis: ``measure`` reads its outcome thresholds from it and
``born_weights``, which the ``verify`` Born suite checks, reads the
weights, both through the one case map ``_born_case``.
"""

from __future__ import annotations

import copy
import csv
import functools
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .channels import KIND_DEPHASE, KIND_INTERCEPT, ChannelModel, resolve_channel
from .field import FieldSpec, check_degree, field_spec
from .qstates import Outcome

# Two-sided 99% normal quantile, hardcoded to avoid a scipy dependency.
Z_99 = 2.5758293035489004

STREAM_ALICE = 0
STREAM_BOB = 1
STREAM_CHANNEL = 2
STREAM_SAMPLE = 3
STREAM_PAIRING = 4
_STREAM_COUNT = 5

# Chunking leaves results unchanged; 2^16 keeps transmit's chunk
# temporaries small enough for glibc to return the heap after a session
# (at 2^18 the next small session ran up to 40% slower), and against
# 2^17 it cuts the peak by a chunk's temporaries at the same speed.
# Each span's thread allocates its temporaries in its own malloc arena,
# so a threaded session holds one chunk's temporaries per usable CPU.
_ENGINE_CHUNK = 1 << 16

# Uniforms each stage draws per round, as the randomness contract fixes.
_DRAWS_PER_ROUND = ((STREAM_ALICE, 2), (STREAM_CHANNEL, 2), (STREAM_BOB, 3))


def spawn_streams(seed) -> list[np.random.Generator]:
    """The five independent child generators of one master seed.

    Index layout: [alice, bob, channel, sample, pairing].  Every role in
    the networked runner builds this same list from its own seed and uses
    only its slot, so a shared seed reproduces the in-process engine.
    """
    children = np.random.SeedSequence(seed).spawn(_STREAM_COUNT)
    return [np.random.default_rng(c) for c in children]


@functools.cache
def pair_table(spec: FieldSpec) -> np.ndarray:
    """All unordered index pairs u < v in lexicographic order, shape (C, 2).

    Built once per spec and shared read-only by every session, role and
    verify call.
    """
    table = np.stack(np.triu_indices(spec.order, 1), axis=1).astype(np.int16)
    table.setflags(write=False)
    return table


def pm_condition_lhs(e_b, e_c, n: int):
    """Left side of the continuation inequality, duck-typed.

    Exact inputs give an exact value (Fraction comparisons against the
    0.5 literal are exact in Python), so boundary cases are decidable.
    """
    check_degree(n)
    if not (0 <= e_b <= 1 and 0 <= e_c <= 1):
        raise ValueError("e_b and e_c must lie in [0, 1]")
    order = 1 << n
    return e_b * e_c + (order - 1) * (1 - e_c) / (order - 2)


def check_pm_condition(e_b, e_c, n: int) -> bool:
    """Strict continuation verdict on the announced-statistics pair."""
    return pm_condition_lhs(e_b, e_c, n) < 0.5


def condition_verdict(e_b, e_c, n: int):
    """(lhs, verdict) from two rate estimates; undefined rates fail.

    Shared by the in-process engine and the networked roles so both
    decide continuation identically.  ``lhs`` is the float left side,
    for reports; the verdict is :func:`check_pm_condition` on the exact
    count ratios, so a sample on the boundary fails however the float
    left side rounds.
    """
    if e_b.rate is None or e_c.rate is None:
        return None, False
    exact = Fraction(e_b.successes, e_b.trials), Fraction(e_c.successes, e_c.trials)
    return pm_condition_lhs(e_b.rate, e_c.rate, n), check_pm_condition(*exact, n)


def wilson_interval(successes: int, trials: int, z: float = Z_99):
    """Wilson score interval; (0, 1) when there are no trials."""
    if trials == 0:
        return 0.0, 1.0
    p = successes / trials
    zz = z * z
    denom = 1.0 + zz / trials
    center = (p + zz / (2 * trials)) / denom
    half = z * np.sqrt(p * (1 - p) / trials + zz / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class RateEstimate:
    """A counted rate with its Wilson confidence interval."""

    successes: int
    trials: int
    z: float
    rate: float | None
    low: float
    high: float

    @classmethod
    def from_counts(cls, successes: int, trials: int, z: float = Z_99):
        rate = successes / trials if trials else None
        low, high = wilson_interval(successes, trials, z)
        return cls(int(successes), int(trials), z, rate, low, high)

    @property
    def half_width(self) -> float:
        return (self.high - self.low) / 2

    def to_json_dict(self) -> dict:
        return {
            "successes": self.successes,
            "trials": self.trials,
            "rate": self.rate,
            "low": self.low,
            "high": self.high,
            "half_width": self.half_width,
            "z": self.z,
        }


@dataclass(frozen=True)
class SessionConfig:
    """Parameters of one simulated session.

    ``channel`` is a ChannelModel or a builder string such as
    "z_flip:0.3".  The accepted rate e_c is counted among in-pair
    outcomes, the reading the closed-form analysis predicts, and the
    continuation comparison is the paper's strict one.
    """

    n: int = 2
    rounds: int = 10000
    channel: ChannelModel | str = "identity"
    sample_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not 0 < self.sample_fraction < 1:
            raise ValueError("sample_fraction must be strictly between 0 and 1")


# Column dtypes of a RoundLog, in constructor order.
_LOG_DTYPES = (np.int16, np.int16, np.int8, np.int16, np.int16, np.int8, np.int8, np.int16)


class RoundLog:
    """Columnar per-round record of a session.

    Arrays (length = round count): alice_i/alice_j/alice_s, bob_i/bob_j,
    outcome, bob_bit (decoded, including the random fill for sifted
    Outside rounds), and offset (line offset, -1 when Bob's pair is off
    Alice's line).
    """

    def __init__(self, alice_i, alice_j, alice_s, bob_i, bob_j, outcome, bob_bit, offset):
        self.alice_i = alice_i
        self.alice_j = alice_j
        self.alice_s = alice_s
        self.bob_i = bob_i
        self.bob_j = bob_j
        self.outcome = outcome
        self.bob_bit = bob_bit
        self.offset = offset

    def __len__(self) -> int:
        return len(self.alice_i)

    @property
    def sifted(self) -> np.ndarray:
        return sift_mask(self.alice_i, self.alice_j, self.bob_i, self.bob_j)

    @property
    def clicked(self) -> np.ndarray:
        return self.outcome != int(Outcome.OUTSIDE)

    def to_csv(self, fileobj) -> None:
        """Write the log as CSV: round,i,j,s,i_prime,j_prime,outcome,sifted,offset."""
        writer = csv.writer(fileobj)
        writer.writerow(
            ["round", "i", "j", "s", "i_prime", "j_prime", "outcome", "sifted", "offset"]
        )
        names = np.array(["plus", "minus", "outside"])
        sift = self.sifted.view(np.int8)
        cols = (self.alice_i, self.alice_j, self.alice_s, self.bob_i, self.bob_j)
        # bounded chunks keep the Python objects of each .tolist() few
        for lo in range(0, len(self), _ENGINE_CHUNK):
            part = slice(lo, lo + _ENGINE_CHUNK)
            off = self.offset[part]
            writer.writerows(
                zip(
                    range(lo, lo + len(off)),
                    *(col[part].tolist() for col in cols),
                    names[self.outcome[part]].tolist(),
                    sift[part].tolist(),
                    np.where(off < 0, None, off).tolist(),
                )
            )


@dataclass(frozen=True)
class SessionStats:
    """Summary statistics of a session.

    ``e_b`` is the in-pair sample error rate (the estimator the
    closed-form analysis predicts); ``e_b_all`` additionally counts the
    randomly decoded Outside rounds of the sample.  ``status`` is
    "insufficient-sift" when no round survived sifting.
    """

    status: str
    rounds: int
    sifted_count: int
    sample_count: int
    outside_in_sifted: int
    key_length: int
    e_b: RateEstimate
    e_b_all: RateEstimate
    e_c: RateEstimate
    counts: dict[tuple[int, int], int]
    condition_lhs: float | None
    condition_pass: bool

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "rounds": self.rounds,
            "sifted": self.sifted_count,
            "sampled": self.sample_count,
            "outside_in_sifted": self.outside_in_sifted,
            "key_length": self.key_length,
            "ec_mode": "in_pair",  # names the e_c estimator
            "e_b": self.e_b.to_json_dict(),
            "e_b_all": self.e_b_all.to_json_dict(),
            "e_c": self.e_c.to_json_dict(),
            "counts": {f"{a},{o}": c for (a, o), c in sorted(self.counts.items())},
            "condition": {"lhs": self.condition_lhs, "pass": self.condition_pass},
        }


class SessionOutput(NamedTuple):
    alice_key: np.ndarray
    bob_key: np.ndarray
    stats: SessionStats
    log: RoundLog


# -- vectorised stages ----------------------------------------------------------
#
# Each stage works on column arrays of any number of rounds and draws its
# own uniforms row-major, exactly as the round-at-a-time reference in
# tests/reference.py draws them one round at a time.  A batch of kets is
# three columns: the support k1 < k2 (k2 = -1 for a collapsed single-term
# ket) and the relative sign bit sigma (0 for a single-term ket).


def pick_pairs(table: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The table pair of each uniform (row floor(u * C), top edge clamped)."""
    pairs = len(table)
    row = (u * pairs).astype(np.intp)
    np.minimum(row, pairs - 1, out=row)
    return table[:, 0][row], table[:, 1][row]


def prepare(table: np.ndarray, rng, count: int):
    """Alice's stage: pairs i < j and sign bits s of ``count`` rounds."""
    draw = rng.random((count, 2))
    i, j = pick_pairs(table, draw[:, 0])
    return i, j, (draw[:, 1] >= 0.5).view(np.int8)


def transmit(model: ChannelModel, k1, k2, sigma, rng):
    """Channel stage: push a ket batch through ``model``.

    Draws two uniforms per ket (term, auxiliary) and returns the output
    columns (k1, k2, sigma) with the drawn term index of each ket.  Each
    ket reads its drawn term's row of the compiled term arrays.
    """
    draw = rng.random((len(k1), 2))
    t = model.sample_term_index(draw[:, 0])
    heads = draw[:, 1] < 0.5
    kind = model.kind[t]
    # A single-term ket is handled as the degenerate pair {k1, k1}: shifts
    # and sign masks then act on it correctly, and the collapse below
    # restores its canonical form (no second index, sign +).
    collapse = k2 < 0
    k2 = np.where(collapse, k1, k2)
    # bit y of term t's mask sits at t*N + y of the flattened sign bits
    row = t * model.spec.order
    bits = model.sign_bits.reshape(-1)
    sig = sigma ^ bits[row + k1] ^ bits[row + k2] ^ (heads & (kind == KIND_DEPHASE))
    shift = model.shift[t]
    x1 = k1 ^ shift
    x2 = k2 ^ shift
    m1 = np.minimum(x1, x2)
    m2 = np.maximum(x1, x2)
    # intercept-resend (shift 0, so m1 = k1 and m2 = k2): heads keeps k1
    intercept = kind == KIND_INTERCEPT
    m1 = np.where(intercept & ~heads, m2, m1)
    collapse |= intercept
    m2[collapse] = -1
    sig[collapse] = 0
    return m1, m2, sig, t


# The weights depend on a ket only through its case: its coefficients
# c_u, c_v in {-1, 0, 1} on the basis pair and whether it has one term.
_BORN_CASES = 18


def _born_case(u, v, k1, k2, sigma) -> np.ndarray:
    """Index 6(c_u+1) + 2(c_v+1) + single of each ket's (c_u, c_v, single-term) case."""
    sign2 = 1 - 2 * sigma
    c_u = (u == k1).view(np.int8) + (u == k2) * sign2
    c_v = (v == k1).view(np.int8) + (v == k2) * sign2
    return (6 * c_u + 2 * c_v + (k2 < 0) + 8).astype(np.intp)


def _outcome_thresholds() -> tuple[np.ndarray, np.ndarray]:
    """Per case, the outcome uniform's lowest Minus and lowest Outside value.

    These are p_plus and p_plus + p_minus, with p_plus = (c_u + c_v)^2 / w
    and p_minus = (c_u - c_v)^2 / w, w = 2 for a single-term ket and 4
    for a pair, in :func:`_born_case`'s index order.  Squared projections
    are dyadic rationals, exact in float64, so the thresholds equal the
    exact rational Born weights.  The 8 cases no canonical ket reaches
    hold the formula's values too; nothing reads them, as ``transmit``
    emits only canonical kets and the QUDIT decoder admits only those.
    """
    c_u, c_v, single = np.unravel_index(np.arange(_BORN_CASES), (3, 3, 2))
    c_u, c_v = c_u - 1, c_v - 1
    width = np.where(single, 2.0, 4.0)
    p_plus = (c_u + c_v) ** 2 / width
    return p_plus, p_plus + (c_u - c_v) ** 2 / width


_OUTCOME_THRESHOLDS = _outcome_thresholds()


def born_weights(u, v, k1, k2, sigma):
    """Plus and minus weights of each ket in its pair basis {u, v}.

    The ket is (|k1> + (-1)^sigma |k2>) / sqrt(2), or |k1> when k2 < 0;
    the basis states are (|u> +- |v>) / sqrt(2).  Arguments broadcast.
    The weights are read through :func:`_born_case` from the table
    :func:`measure` reads, so a check of them checks the engine's one
    Born rule.
    """
    minus, outside = _OUTCOME_THRESHOLDS
    case = _born_case(u, v, k1, k2, sigma)
    return minus[case], outside[case] - minus[case]


def measure(table: np.ndarray, k1, k2, sigma, rng):
    """Bob's stage: pair, outcome and decoded key bit of each ket.

    Draws three uniforms per ket (pair, outcome, noise) and returns the
    columns (u, v, outcome, bit): outcome holds :class:`Outcome` values,
    bit is 0 for Plus, 1 for Minus and the noise draw for Outside.  The
    outcome counts the thresholds p_plus and p_plus + p_minus that the
    outcome uniform reaches: Plus below p_plus, Minus below
    p_plus + p_minus, Outside above.
    """
    draw = rng.random((len(k1), 3))
    u, v = pick_pairs(table, draw[:, 0])
    minus, outside = _OUTCOME_THRESHOLDS
    case = _born_case(u, v, k1, k2, sigma)
    x = draw[:, 1]
    out = (x >= minus[case]).view(np.int8) + (x >= outside[case]).view(np.int8)
    noise = (draw[:, 2] >= 0.5).view(np.int8)
    # Plus and Minus keep their outcome bit, Outside (out = 2) takes noise
    return u, v, out, (out & 1) | ((out >> 1) & noise)


def line_offsets(spec: FieldSpec, ai, aj, bi, bj) -> np.ndarray:
    """Line offset of each Bob pair {u, v} relative to Alice's {i, j}.

    The offset is the field factor a with u = i + a*(i+j) when both pairs
    share the same index difference, else -1 (off Alice's line).  Offsets
    a and a^1 name the same unordered pair, so class membership is a & ~1.
    The per-round form is the scalar reference in tests/reference.py.
    """
    delta = ai ^ aj
    # product (u ^ i) * inv(delta) sits at (u ^ i)*N + inv(delta) of the
    # flattened table; rows off the line read a product that is unused
    cell = (bi ^ ai).astype(np.intp) * spec.order + spec.inv_table[delta]
    on = ((bi ^ bj) == delta).view(np.int8)
    # rows on the line keep their product, the others read 0 - 1 = -1
    return spec.mul_table.reshape(-1)[cell] * on + (on - 1)


# -- post-round stages ------------------------------------------------------
#
# Sift, sample, estimate: the steps after the quantum rounds.  Every count
# they need comes from the announcements, so the in-process engine (per
# chunk, both sides' bits) and both networked endpoints (per window, their
# own bits) build the same Tally as their rounds close and decide through
# estimate_session; the scalar replay in tests/reference.py calls these
# same functions.


def sift_mask(ai, aj, bi, bj) -> np.ndarray:
    """Whether each round's announced pairs are equal (it joins the raw key)."""
    return (ai == bi) & (aj == bj)


class Tally(NamedTuple):
    """What is kept of a run of rounds: what the post-round stages need of it.

    The in-pair flags and the e_c counts come from the announcements.
    e_c's successes are the sifted rounds: a Bob pair in the offset class
    {0, 1} of Alice's line is her own pair.  Its trials are the rounds
    Bob measured on Alice's line, (i ^ j) == (u ^ v).  Both count only
    the in-pair (clicked) rounds.  ``bits`` holds each side's bit of the
    sifted rounds, for the sides the caller passed: both in the engine,
    its own in a role.  No round index is kept.
    """

    clicked: np.ndarray  # in-pair flag of each sifted round
    ec: tuple[int, int]  # accepted-rate successes and trials
    bits: tuple[np.ndarray, ...]  # per side, its uint8 bit of each sifted round

    @classmethod
    def of(cls, ai, aj, bi, bj, clicked, sift, *bits) -> Tally:
        """Tally announced rounds; ``sift`` holds the positions where :func:`sift_mask` is set."""
        on_line = (ai ^ aj) == (bi ^ bj)
        sift_clicked = clicked[sift]
        ec = int(np.count_nonzero(sift_clicked)), int(np.count_nonzero(on_line & clicked))
        return cls(sift_clicked, ec, tuple(side[sift].astype(np.uint8) for side in bits))

    @classmethod
    def join(cls, tallies) -> Tally:
        """The tally of consecutive runs of rounds, in round order."""
        clicked, ec, bits = zip(*tallies)
        return cls(
            np.concatenate(clicked),
            tuple(map(sum, zip(*ec))),
            tuple(map(np.concatenate, zip(*bits))),
        )


def draw_sample(count: int, fraction: float, rng) -> np.ndarray:
    """Sorted positions, among ``count`` sifted rounds, of those revealed for e_b.

    One permutation draw of the positions; its prefix of
    floor(fraction * count) is the sample.  The positions are shuffled
    in place as 4-byte integers below 2^31 of them: ``permutation(count)``
    is ``shuffle(arange(count))`` and its swaps depend on the count
    alone, so the sample and the stream state after it are the same.
    """
    perm = np.arange(count, dtype=np.int32 if count < 1 << 31 else np.int64)
    rng.shuffle(perm)
    return np.sort(perm[: int(fraction * count)])


def kept_rounds(sifted: np.ndarray, sample_pos: np.ndarray) -> np.ndarray:
    """The entries of a sift-aligned array left for the key once the sample is removed."""
    keep = np.ones(len(sifted), bool)
    keep[sample_pos] = False
    return sifted[keep]


def sample_rates(alice_bits, bob_bits, clicked) -> tuple[RateEstimate, RateEstimate]:
    """(e_b, e_b_all) of the revealed sample.

    e_b counts disagreements among the in-pair (clicked) rounds only;
    e_b_all also counts the randomly decoded Outside rounds.
    """
    err = alice_bits != bob_bits
    e_b = RateEstimate.from_counts(
        int(np.count_nonzero(err & clicked)), int(np.count_nonzero(clicked))
    )
    return e_b, RateEstimate.from_counts(int(np.count_nonzero(err)), len(err))


def estimate_session(cfg: SessionConfig, clicked, ec, sample_pos, bits, other_bits):
    """(e_b, e_b_all, e_c, lhs, verdict) of a session's sifted rounds and revealed sample.

    ``clicked`` and ``ec`` are a tally's in-pair flags of the sifted
    rounds and its e_c counts; ``sample_pos`` indexes the sifted rounds;
    ``bits`` and ``other_bits`` are the two sides' bits of the sampled
    rounds, in either order (a disagreement count does not depend on
    which side is alice).
    """
    e_b, e_b_all = sample_rates(bits, other_bits, clicked[sample_pos])
    e_c = RateEstimate.from_counts(*ec)
    return (e_b, e_b_all, e_c, *condition_verdict(e_b, e_c, cfg.n))


def _outcome_counts(log: RoundLog, order: int) -> np.ndarray:
    """Rounds per (line offset + 1) * 3 + outcome; offset -1 is off Alice's line."""
    # int16 holds the code: an offset is below the order, at most 256
    code = (log.offset + 1) * 3 + log.outcome
    return np.bincount(code, minlength=3 * (order + 1))


def _outcome_table(counts: np.ndarray) -> dict[tuple[int, int], int]:
    """Rounds per (line offset, outcome) of an :func:`_outcome_counts` tally."""
    return {(c // 3 - 1, c % 3): int(k) for c, k in enumerate(counts) if k}


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _fill_rounds(
    spec, model, table, cols, streams, lo: int, hi: int
) -> tuple[Tally, np.ndarray]:
    """Run rounds [lo, hi) into their rows of the round-log columns.

    Works on copies of the alice, channel and bob streams advanced to
    round lo, so every span draws what a serial run draws for its rounds.
    Each chunk is tallied with both sides' bits while its rows are still
    in cache; returns the span's :class:`Tally` and its
    :func:`_outcome_counts`.
    """
    alice, channel, bob = (
        np.random.Generator(copy.deepcopy(streams[slot].bit_generator).advance(per_round * lo))
        for slot, per_round in _DRAWS_PER_ROUND
    )
    runs, counts = [], 0
    for start in range(lo, hi, _ENGINE_CHUNK):
        stop = min(start + _ENGINE_CHUNK, hi)
        ai, aj, s = prepare(table, alice, stop - start)
        m1, m2, sigma, _ = transmit(model, ai, aj, s, channel)
        bu, bv, out, bit = measure(table, m1, m2, sigma, bob)
        chunk = (ai, aj, s, bu, bv, out, bit, line_offsets(spec, ai, aj, bu, bv))
        for col, part in zip(cols, chunk):
            col[start:stop] = part
        rows = RoundLog(*(col[start:stop] for col in cols))
        runs.append(Tally.of(ai, aj, bu, bv, rows.clicked, np.flatnonzero(rows.sifted), s, bit))
        counts += _outcome_counts(rows, spec.order)
    return Tally.join(runs), counts


def run_session(cfg: SessionConfig) -> SessionOutput:
    """Run a full session and estimate its statistics.

    Vectorised over rounds; any chunking of the rounds, including the
    networked runner's windows, consumes randomness identically, so a
    replay with the same master seed produces identical output.  The
    rounds are cut evenly into one contiguous span per usable CPU, none
    shorter than a quarter engine chunk: the calling thread runs the
    first, a thread started here each other one, and all are joined
    before this returns or raises.  Besides the round log the session
    holds only the spans' tallies, which are joined and released before
    the tail runs.
    """
    spec = field_spec(cfg.n)
    model = resolve_channel(cfg.channel, spec)
    streams = spawn_streams(cfg.seed)
    table = pair_table(spec)
    rounds = cfg.rounds

    cols = [np.empty(rounds, dtype) for dtype in _LOG_DTYPES]
    # below a quarter chunk per span, thread start and GIL handoffs cost
    # more than a second CPU saves
    spans = max(1, min(_usable_cpus(), rounds // max(1, _ENGINE_CHUNK // 4)))
    edges = [k * rounds // spans for k in range(spans + 1)]
    results = [None] * spans
    errors = []

    def fill(k):
        # any failure is raised again in the caller: a span left unfilled
        # would leave np.empty garbage in the log
        try:
            results[k] = _fill_rounds(spec, model, table, cols, streams, *edges[k : k + 2])
        except BaseException as exc:
            errors.append(exc)

    workers = [threading.Thread(target=fill, args=(k,)) for k in range(1, spans)]
    for worker in workers:
        worker.start()
    try:
        results[0] = _fill_rounds(spec, model, table, cols, streams, *edges[:2])
    finally:
        for worker in workers:
            worker.join()
    if errors:
        raise errors[0]
    tally = Tally.join(run for run, _ in results)
    counts = sum(count for _, count in results)
    results.clear()
    return _finish_session(cfg, RoundLog(*cols), tally, counts, streams[STREAM_SAMPLE])


def _finish_session(
    cfg: SessionConfig, log: RoundLog, tally: Tally, counts: np.ndarray, sample_rng
) -> SessionOutput:
    """Sample, estimate and decide on a session's two-sided tally and outcome counts.

    Never reads the round log, which it only returns: the sample is
    drawn over the sifted positions, and the sample bits and the keys
    are gathered from the two sides' sifted bits.  A session with no
    sifted round ends "insufficient-sift" with empty keys and undefined
    sample rates.
    """
    clicked, ec, (alice, bob) = tally
    count = len(clicked)
    sample_pos = draw_sample(count, cfg.sample_fraction, sample_rng)
    e_b, e_b_all, e_c, lhs, verdict = estimate_session(
        cfg, clicked, ec, sample_pos, alice[sample_pos], bob[sample_pos]
    )
    alice_key = kept_rounds(alice, sample_pos)
    stats = SessionStats(
        status="ok" if count else "insufficient-sift",
        rounds=cfg.rounds,
        sifted_count=count,
        sample_count=len(sample_pos),
        outside_in_sifted=count - int(np.count_nonzero(clicked)),
        key_length=len(alice_key),
        e_b=e_b,
        e_b_all=e_b_all,
        e_c=e_c,
        counts=_outcome_table(counts),
        condition_lhs=lhs,
        condition_pass=verdict,
    )
    return SessionOutput(alice_key, kept_rounds(bob, sample_pos), stats, log)
