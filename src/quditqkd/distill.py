"""Two-way post-processing on labeled key bits.

Each key position carries an error label (x, z): z marks a raw-key bit
disagreement (Bob's bit = Alice's ^ z), x marks an index-shift error.
Label categories map onto an :class:`~quditqkd.analysis.ErrorMatrix` as
identity=(0,0), x=(1,0), y=(1,1), z=(0,1).

The pipeline runs k pumping stages -- random pairing, keep the first
position of pairs whose announced bit parities agree (z1 ^ z2 == 0),
new label (x1 ^ x2, z1) -- then groups survivors into blocks of odd
size r, replacing each block with its parity.  A block's output
z-label is the parity of its z labels; its x-label is the majority
vote.  ``ep_recursion`` is the i.i.d. closed form of the pumping
stage, ``majority_stage`` of the blocking stage.

A stage pairs by shuffling its packed labels in place with the stage
seed's generator (:func:`pair_stage`), the same pairing as gathering
through ``permutation(len)`` without an index array.

The final error-correcting code itself is out of scope: the pipeline
ends in a rate verdict.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .analysis import ErrorMatrix

_SEED_BOUND = 1 << 63
# rows of uniforms per sample_labeled_key draw, 2 MiB of them; the labels
# do not depend on it
_LABEL_CHUNK = 1 << 17


class InsufficientKeyError(ValueError):
    """Key shorter than the 2**k * r positions the schedule consumes."""


@dataclass(frozen=True)
class DistillParams:
    """Pumping depth k and majority block size r (odd)."""

    k: int
    r: int

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("k must be >= 0")
        if self.r < 1 or self.r % 2 == 0:
            raise ValueError("r must be odd and >= 1")

    @property
    def min_length(self) -> int:
        return (1 << self.k) * self.r


@dataclass(frozen=True)
class DistillBudget:
    """Search limits and acceptance margins for parameter selection.

    ``margin`` operationalizes the "much greater" in both feasibility
    tests; ``z_budget`` bounds r * (residual z rate); ``css_target`` is
    the reported goal for the final x_fail + z_fail sum.
    """

    k_max: int = 30
    r_max: int = 999_999
    css_target: float = 0.01
    z_budget: float = 0.005
    margin: float = 10.0

    def __post_init__(self) -> None:
        if self.k_max < 0:
            raise ValueError("k_max must be >= 0")
        if self.r_max < 1 or self.r_max % 2 == 0:
            raise ValueError("r_max must be odd and >= 1")
        if not 0 < self.z_budget < self.css_target:
            raise ValueError("need 0 < z_budget < css_target")
        if self.margin <= 0:
            raise ValueError("margin must be positive")


@dataclass(frozen=True)
class LabeledKey:
    """Alice's bits with per-position (x, z) error labels."""

    bits: np.ndarray
    x: np.ndarray
    z: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.bits) == len(self.x) == len(self.z)):
            raise ValueError("bits, x, z must have equal length")
        for arr in (self.bits, self.x, self.z):
            # unsigned and bool entries cannot be negative: one pass for them
            unsigned = arr.dtype.kind in "ub"
            if not (arr.max(initial=0) <= 1 if unsigned else ((arr == 0) | (arr == 1)).all()):
                raise ValueError("entries must be bits")

    def __len__(self) -> int:
        return len(self.bits)

    @property
    def bob_bits(self) -> np.ndarray:
        return self.bits ^ self.z


def _coerce_matrix(m) -> ErrorMatrix:
    if isinstance(m, ErrorMatrix):
        return m
    return ErrorMatrix(*m)


def sample_labeled_key(m, count: int, rng: np.random.Generator) -> LabeledKey:
    """i.i.d. labels from an error matrix plus uniform key bits.

    Consumes a (count, 2) uniform block, drawn _LABEL_CHUNK rows at a
    time: column 0 picks the label category (identity, x, y, z
    cumulative order), column 1 the bit.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    m = _coerce_matrix(m)
    cum = np.cumsum([float(m.p_i), float(m.p_x), float(m.p_y), float(m.p_z)])
    bits, x, z = (np.empty(count, np.uint8) for _ in range(3))
    draws = np.empty((min(count, _LABEL_CHUNK), 2))
    for lo in range(0, count, _LABEL_CHUNK):
        hi = min(lo + _LABEL_CHUNK, count)
        block = rng.random(out=draws[: hi - lo])
        u, xs = block[:, 0], x[lo:hi]
        # category = #{j: cum[j] <= u}: x for 1 and 2, z for 2 and 3 (u < 1)
        np.less(u, cum[2], out=xs)
        xs &= u >= cum[0]
        np.greater_equal(u, cum[1], out=z[lo:hi])
        np.greater_equal(block[:, 1], 0.5, out=bits[lo:hi])
    return LabeledKey(bits, x, z)


def _pumped_coeffs(m: ErrorMatrix, k: int) -> tuple[float, float, float, float]:
    """(A, B, C, D) after k pumpings, rescaled by max(p_i+p_x, p_y+p_z)^m.

    The raw coefficients underflow for large k; every downstream use is
    scale invariant, so each is divided by the dominant base.  The
    rescaled A + C lies in [1, 2].
    """
    pi, px, py, pz = m.as_floats()
    a0, b0 = pi + px, pi - px
    # d0 sign chosen so the k = 0 (exponent 1) case reproduces the input;
    # even exponents at k >= 1 make the two conventions agree.
    c0, d0 = py + pz, pz - py
    base = max(a0, c0)
    if base == 0:
        raise ValueError("degenerate error matrix: p_i+p_x and p_y+p_z both zero")
    exp = 1 << k
    return (
        (a0 / base) ** exp,
        (b0 / base) ** exp,
        (c0 / base) ** exp,
        (d0 / base) ** exp,
    )


def ep_recursion(m, k: int) -> ErrorMatrix:
    """Closed form for the label distribution after k pumping stages.

    With A = (p_i+p_x)^(2^k), B = (p_i-p_x)^(2^k), C = (p_y+p_z)^(2^k),
    D = (p_z-p_y)^(2^k), the survivors are distributed as
    ((A+B), (A-B), (C-D), (C+D)) / (2(A+C)) over (i, x, y, z).
    k = 0 reproduces the input.
    """
    m = _coerce_matrix(m)
    if k < 0:
        raise ValueError("k must be >= 0")
    a, b, c, d = _pumped_coeffs(m, k)
    # A or C is exactly 1 after rescaling, so the denominator is at least 2
    denom = 2 * (a + c)
    return ErrorMatrix(
        (a + b) / denom, (a - b) / denom, (c - d) / denom, (c + d) / denom
    )


def _binomial_tail_above_half(r: int, x: float) -> float:
    """P(Binomial(r, x) > r/2) by full summation over the tail."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    lo = r // 2 + 1
    t = np.arange(lo, r + 1)
    if r <= 200:
        return float(
            sum(math.comb(r, int(k)) * x ** int(k) * (1 - x) ** int(r - k) for k in t)
        )
    # Log-space for large r: log C(r,t) from cumulative log factorials.
    logfact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, r + 1)))])
    logs = (
        logfact[r]
        - logfact[t]
        - logfact[r - t]
        + t * math.log(x)
        + (r - t) * math.log1p(-x)
    )
    peak = logs.max()
    return float(math.exp(peak) * np.exp(logs - peak).sum())


def majority_stage(m, r: int) -> tuple[float, float]:
    """Residual (x_fail, z_fail) of parity blocks of odd size r.

    z_fail = [1 - (1 - 2(p_z+p_y))^r]/2 is the block parity error;
    x_fail = P(Binomial(r, p_x+p_y) > r/2) is the majority-vote failure.
    """
    m = _coerce_matrix(m)
    if r < 1 or r % 2 == 0:
        raise ValueError("r must be odd and >= 1")
    x = float(m.p_x + m.p_y)
    z = float(m.p_z + m.p_y)
    z_fail = (1.0 - (1.0 - 2.0 * z) ** r) / 2.0
    x_fail = _binomial_tail_above_half(r, x)
    return x_fail, z_fail


def check_secure_condition(m) -> bool:
    """Strict pumping-convergence test: (p_i - p_x)^2 > (p_i + p_x)(p_y + p_z)."""
    m = _coerce_matrix(m)
    return (m.p_i - m.p_x) ** 2 > (m.p_i + m.p_x) * (m.p_y + m.p_z)


@dataclass(frozen=True)
class KTrial:
    """Diagnostics for one candidate pumping depth."""

    k: int
    x_rate: float
    z_rate: float
    r: int | None
    cond1_value: float | None
    cond2_lhs: float
    cond2_rhs: float
    status: str


@dataclass(frozen=True)
class SelectionOutcome:
    """Result of the (k, r) search with its per-k diagnostic trail."""

    feasible: bool
    params: DistillParams | None
    trail: tuple[KTrial, ...]
    budget: DistillBudget
    x_fail: float | None = None
    z_fail: float | None = None
    meets_target: bool | None = None

    def to_json_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "k": self.params.k if self.params else None,
            "r": self.params.r if self.params else None,
            "x_fail": self.x_fail,
            "z_fail": self.z_fail,
            "meets_target": self.meets_target,
            "budget": asdict(self.budget),
            "trail": [asdict(t) for t in self.trail],
        }


def select_params(m, budget: DistillBudget | None = None) -> SelectionOutcome:
    """Smallest pumping depth k whose derived block size passes both tests.

    For each k the residual rates x' = p_x'+p_y' and z' = p_z'+p_y' come
    from :func:`ep_recursion`.  r is the largest odd integer at most
    z_budget / z' (capped at r_max; r_max itself when z' = 0), rounded
    down so the z budget stays met.  Feasibility needs
    2 r (1/2 - x')^2 >= margin (cond1) and the r-independent existence
    test (B+D)^2 >= margin * (2/z_budget) * C(A+C) (cond2), scale
    invariant, so it is evaluated on the rescaled coefficients.  A
    matrix with no residual error at some k is trivially feasible with
    r = 1.

    In exact arithmetic cond1 implies cond2: 1/2 - x' = (B+D)/(2(A+C))
    and z' = C/(A+C), so r <= z_budget/z' turns cond1 into cond2, and
    z' = 0 makes cond2's right side 0.  cond2 is kept as a float guard;
    its ``"cond2-failed"`` status could only come from rounding.
    """
    m = _coerce_matrix(m)
    budget = budget or DistillBudget()
    trail: list[KTrial] = []
    cond2_factor = budget.margin * (2.0 / budget.z_budget)
    for k in range(budget.k_max + 1):
        a, b, c, d = _pumped_coeffs(m, k)
        x_rate = (a - b + c - d) / (2 * (a + c))
        z_rate = c / (a + c)
        cond2_lhs = (b + d) ** 2
        cond2_rhs = cond2_factor * c * (a + c)
        r = cond1_value = None
        if x_rate == 0.0 and z_rate == 0.0:
            r, status = 1, "trivial"
        elif x_rate >= 0.5:
            status = "x-rate-too-high"
        else:
            r = budget.r_max  # odd and >= 1
            if z_rate != 0.0:
                # a subnormal z' makes the quotient inf: cap it before int()
                r = int(min(budget.z_budget / z_rate, r))
                if r % 2 == 0:
                    r -= 1
            if r < 1:
                r, status = None, "z-budget-unmet"
            else:
                cond1_value = 2.0 * r * (0.5 - x_rate) ** 2
                ok1 = cond1_value >= budget.margin
                ok2 = cond2_lhs >= cond2_rhs
                status = "feasible" if ok1 and ok2 else "cond2-failed" if ok1 else "cond1-failed"
        trail.append(KTrial(k, x_rate, z_rate, r, cond1_value, cond2_lhs, cond2_rhs, status))
        if status in ("trivial", "feasible"):
            return _finish_selection(m, DistillParams(k, r), trail, budget)
    return SelectionOutcome(False, None, tuple(trail), budget)


def _finish_selection(
    m: ErrorMatrix, params: DistillParams, trail: list[KTrial], budget: DistillBudget
) -> SelectionOutcome:
    x_fail, z_fail = majority_stage(ep_recursion(m, params.k), params.r)
    return SelectionOutcome(
        True,
        params,
        tuple(trail),
        budget,
        x_fail=x_fail,
        z_fail=z_fail,
        meets_target=(x_fail + z_fail) <= budget.css_target,
    )


@dataclass(frozen=True)
class StageRecord:
    """Bookkeeping for one pumping stage."""

    stage: int
    seed: int
    input_length: int
    paired: int
    kept: int


@dataclass(frozen=True)
class DistillationReport:
    """Outcome of one simulated post-processing run."""

    params: DistillParams
    input_length: int
    stages: tuple[StageRecord, ...]
    survivor_count: int
    survivor_tallies: dict[tuple[int, int], int]
    n_blocks: int
    alice_out: np.ndarray
    bob_out: np.ndarray
    out_x: np.ndarray
    out_z: np.ndarray
    disagreement_count: int
    expected_lengths: tuple[float, ...] | None = None

    @property
    def disagreement_rate(self) -> float | None:
        return self.disagreement_count / self.n_blocks if self.n_blocks else None

    @property
    def out_tallies(self) -> dict[tuple[int, int], int]:
        return _label_tallies(self.out_x, self.out_z)

    def to_json_dict(self) -> dict:
        return {
            "k": self.params.k,
            "r": self.params.r,
            "input_length": self.input_length,
            "stages": [asdict(s) for s in self.stages],
            "survivors": self.survivor_count,
            "survivor_tallies": {
                f"{x},{z}": c for (x, z), c in sorted(self.survivor_tallies.items())
            },
            "blocks": self.n_blocks,
            "disagreements": self.disagreement_count,
            "disagreement_rate": self.disagreement_rate,
            "out_tallies": {f"{x},{z}": c for (x, z), c in sorted(self.out_tallies.items())},
            "expected_lengths": list(self.expected_lengths)
            if self.expected_lengths is not None
            else None,
        }


def _label_tallies(x: np.ndarray, z: np.ndarray) -> dict[tuple[int, int], int]:
    """Count of each (x, z) label pair present; empty labels give {}."""
    code = np.asarray(x, np.int64) * 2 + z
    return {(c // 2, c % 2): int(k) for c, k in enumerate(np.bincount(code)) if k}


def expected_stage_lengths(m, k: int, initial_length: int) -> tuple[float, ...]:
    """Analytic expected survivor counts after each pumping stage.

    A pair survives stage t with probability a_t^2 + c_t^2 where a_t, c_t
    are the stage-t marginals of (p_i+p_x, p_y+p_z).  Key-rate accounting
    is not fixed by the source analysis; this models the implemented
    discard-both-on-mismatch rule.
    """
    m = _coerce_matrix(m)
    lengths = [float(initial_length)]
    for t in range(k):
        mt = ep_recursion(m, t)
        a0 = float(mt.p_i + mt.p_x)
        c0 = float(mt.p_y + mt.p_z)
        lengths.append((lengths[-1] / 2.0) * (a0 * a0 + c0 * c0))
    return tuple(lengths)


def pair_stage(values: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Shuffle one stage's payload in place; return views of its (first, second) pairs.

    ``Generator.permutation(n)`` is ``shuffle(arange(n))`` and the
    swaps depend on n alone, so shuffling ``values`` with the seeded
    generator leaves it equal to ``values[permutation(len(values))]``:
    entry 2t pairs with 2t + 1, and an odd one out stays at the end.
    """
    np.random.default_rng(seed).shuffle(values)
    end = len(values) // 2 * 2
    return values[0:end:2], values[1:end:2]


def block_parities(bits, r: int) -> np.ndarray:
    """Parity of each consecutive r-chunk; the trailing remainder is dropped."""
    bits = np.asarray(bits, np.uint8)
    blocks = len(bits) // r
    return np.bitwise_xor.reduce(bits[: blocks * r].reshape(blocks, r), axis=1)


def draw_stage_seeds(k: int, rng: np.random.Generator) -> np.ndarray:
    """k pairing seeds from the shared stream; no draw at all when k = 0."""
    return rng.integers(0, _SEED_BOUND, size=k, dtype=np.uint64)


def simulate_distillation(
    keys: LabeledKey,
    params: DistillParams,
    rng: np.random.Generator,
    matrix=None,
) -> DistillationReport:
    """Run the label-level pipeline on concrete keys.

    Stage seeds come from ``rng`` via :func:`draw_stage_seeds` (the
    networked runner announces these same seeds on the wire).  Blocks
    are consecutive r-chunks of the survivors; the trailing remainder is
    dropped.  With k = 0, r = 1 the keys pass through unchanged.
    """
    length = len(keys)
    if length < params.min_length:
        raise InsufficientKeyError(
            f"need at least 2**k * r = {params.min_length} labeled bits, got {length}"
        )
    # one packed label per position, bit | x << 1 | z << 2, built in place
    # in a private array (uint8 keys are or-ed in without a copy)
    lab = keys.z.astype(np.uint8)
    lab <<= 1
    lab |= keys.x.astype(np.uint8, copy=False)
    lab <<= 1
    lab |= keys.bits.astype(np.uint8, copy=False)
    seeds = draw_stage_seeds(params.k, rng)
    stages: list[StageRecord] = []
    for t in range(params.k):
        cur = len(lab)
        first, second = pair_stage(lab, int(seeds[t]))
        keep = ((first ^ second) & 4) == 0
        stages.append(StageRecord(t, int(seeds[t]), cur, len(first), int(np.count_nonzero(keep))))
        first ^= second & 2
        lab = first[keep]
    bits, x, z = lab & 1, (lab >> 1) & 1, lab >> 2
    survivors = len(lab)
    tallies = _label_tallies(x, z)
    r = params.r
    n_blocks = survivors // r
    used = n_blocks * r
    alice_out = block_parities(bits, r)
    z_out = block_parities(z, r)
    x_out = (x[:used].reshape(n_blocks, r).astype(np.int64).sum(axis=1) * 2 > r).astype(np.uint8)
    bob_out = alice_out ^ z_out
    expected = (
        expected_stage_lengths(matrix, params.k, length) if matrix is not None else None
    )
    return DistillationReport(
        params=params,
        input_length=length,
        stages=tuple(stages),
        survivor_count=survivors,
        survivor_tallies=tallies,
        n_blocks=n_blocks,
        alice_out=alice_out,
        bob_out=bob_out,
        out_x=x_out,
        out_z=z_out,
        disagreement_count=int(z_out.astype(np.int64).sum()),
        expected_lengths=expected,
    )
