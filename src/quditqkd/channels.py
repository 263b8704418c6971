"""Channel models for the quantum link between Alice and Bob.

A ``ChannelModel`` is an exact-rational probability mixture of per-round
actions.  Three action kinds cover the workbench:

* ``UnitaryTerm(shift, mask)``: apply the diagonal sign mask, then shift
  every basis label by XOR with ``shift`` (the additive error X_shift).
* ``RandomDephase()``: apply a fresh uniformly random diagonal sign mask
  each use.  Distributionally identical to the uniform mixture over all
  2^N explicit masks, which becomes unwieldy past N = 16.
* ``InterceptResend()``: measure in the computational basis and resend
  the collapsed single-index state.

Each model is compiled once, at construction, into read-only term
arrays: ``kind`` (one of KIND_UNITARY, KIND_DEPHASE, KIND_INTERCEPT),
``shift``, ``sign_bits`` (bit y of each term's mask for every index
y < N, zero for non-unitary terms) and ``weight_id`` into the distinct
probabilities ``weights``, which ``weight_num`` also holds as integer
numerators over their common denominator ``weight_den``, plus the term
search's ``cum_weights`` and its guide table (Chen and Asau's indexed
search: per bucket of [0, 1), the first term a uniform there can
draw).  The session engine and the
closed-form analysis read these arrays by term index; the scalar
reference that applies one action to one ket is kept in
tests/reference.py.

Channel specs can also be given as strings, e.g. ``"z_flip:0.3"``,
``"shift_noise:0.2"``, ``"partial_intercept:0.4"``, ``"full_dephase"``,
``"identity"``, or ``"custom:[(0.9,a=0,f=0x0),(0.1,a=1,f=0x6)]"``.
Probabilities written in decimal are parsed exactly.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from .field import FieldSpec
from .qstates import DiagonalPhase

FULL_DEPHASE_ENUM_MAX_N = 4  # explicit 2^N mask mixture up to this n

# The guide table's search takes at most this many boundary steps per
# uniform.  Its bucket count grows from 2^(ceil(log2 T) + 1) by doubling,
# at most to _GUIDE_GROWTH times that, until no bucket holds more
# boundaries; rows in a bucket that still does fall back to a binary
# search over the boundaries.
_GUIDE_STEPS = 1
_GUIDE_GROWTH = 8


class UnsupportedModelError(ValueError):
    """Raised when an operation cannot handle a channel's action kinds."""


@dataclass(frozen=True)
class UnitaryTerm:
    """Sign mask followed by a basis shift."""

    shift: int
    mask: int


@dataclass(frozen=True)
class InterceptResend:
    """Computational-basis measure-and-resend attack."""


@dataclass(frozen=True)
class RandomDephase:
    """Uniformly random diagonal sign mask, fresh per use."""


Action = UnitaryTerm | InterceptResend | RandomDephase

KIND_UNITARY, KIND_DEPHASE, KIND_INTERCEPT = 0, 1, 2
_KINDS = {
    UnitaryTerm: KIND_UNITARY,
    RandomDephase: KIND_DEPHASE,
    InterceptResend: KIND_INTERCEPT,
}


def as_probability(x) -> Fraction:
    """Coerce a numeric or decimal-string probability to an exact Fraction.

    Floats go through their shortest decimal repr, so 0.3 means 3/10.
    """
    if isinstance(x, float):
        f = Fraction(repr(x))
    elif isinstance(x, Rational):
        f = Fraction(x)
    elif isinstance(x, str):
        f = Fraction(x)
    else:
        raise TypeError(f"cannot interpret {x!r} as a probability")
    if not 0 <= f <= 1:
        raise ValueError(f"probability {f} outside [0, 1]")
    return f


class ChannelModel:
    """Probability mixture of channel actions over a fixed field spec."""

    def __init__(self, spec: FieldSpec, terms: list[tuple[Fraction, Action]]):
        if not terms:
            raise ValueError("channel model needs at least one term")
        if not all(issubclass(t, Fraction) for t in {type(p) for p, _ in terms}):
            raise ValueError("term probabilities must be nonnegative Fractions")
        acts = [a for _, a in terms]
        kinds = [_KINDS.get(type(a)) for a in acts]
        if None in kinds:
            raise TypeError(f"unknown action {acts[kinds.index(None)]!r}")
        # non-unitary actions read as shift 0 and mask 0
        shifts = [getattr(a, "shift", 0) for a in acts]
        masks = [getattr(a, "mask", 0) for a in acts]
        spec.check(min(shifts))
        spec.check(max(shifts))
        for mask in (min(masks), max(masks)):
            if not 0 <= mask < (1 << spec.order):
                raise ValueError(f"mask {mask:#x} out of range")
        nums = [p.numerator for p, _ in terms]
        dens = [p.denominator for p, _ in terms]
        # sign and sum on integers, over the lcm of the distinct denominators
        tally = Counter(zip(nums, dens))
        if min(nums) < 0:
            raise ValueError("term probabilities must be nonnegative Fractions")
        den = math.lcm(*{d for _, d in tally})
        total = sum(c * num * (den // d) for (num, d), c in tally.items())
        if total != den:
            raise ValueError(f"term probabilities sum to {Fraction(total, den)}, expected 1")
        self.spec = spec
        # zero-probability terms are dropped
        keep = [num > 0 for num in nums]
        self.terms: tuple[tuple[Fraction, Action], ...] = tuple(
            term for term, kept in zip(terms, keep) if kept
        )
        # distinct weights by (numerator, denominator), each also kept as an
        # integer numerator over ``weight_den``
        ids: dict[tuple[int, int], int] = {}
        self.weight_id = np.array(
            [ids.setdefault(pair, len(ids)) for pair in zip(nums, dens) if pair[0]]
        )
        self.weights: tuple[Fraction, ...] = tuple(Fraction(num, d) for num, d in ids)
        self.weight_den = den
        self.weight_num = tuple(num * (den // d) for num, d in ids)
        # cumulative float weights used for term sampling
        per_weight = np.array([num / d for num, d in ids])
        self.cum_weights = np.cumsum(per_weight[self.weight_id])
        self.cum_weights[-1] = 1.0
        self._compile_guide()
        self.kind = np.array(kinds, np.int8)[keep]
        self.shift = np.array(shifts, np.int16)[keep]
        width = (spec.order + 7) // 8
        raw = np.frombuffer(
            b"".join(mask.to_bytes(width, "little") for mask in masks), np.uint8
        ).reshape(len(acts), width)
        bits = np.unpackbits(raw[keep], axis=1, bitorder="little")
        # contiguous, so the engine's flat gathers read it without a copy
        self.sign_bits = np.ascontiguousarray(bits[:, : spec.order]).view(np.int8)
        for arr in (
            self.cum_weights, self._bounds, self._guide, self._dense,
            self.kind, self.shift, self.sign_bits, self.weight_id,
        ):
            arr.setflags(write=False)

    def _compile_guide(self) -> None:
        """Build the guide table of :meth:`sample_term_index`.

        ``_bounds`` is ``cum_weights`` with its last entry +inf, so no
        search runs past the last term.  Bucket b of M covers
        [b/M, (b+1)/M) and ``_guide[b]`` counts the bounds <= b/M; the
        extra entry M serves u = 1.0.  Bucket 0 starts at term 0 instead,
        for u < 0, so it also holds any bound equal to 0.0.  ``_steps`` is
        the most bounds inside any bucket that is not ``_dense``.
        """
        bounds = self.cum_weights.copy()
        bounds[-1] = np.inf
        inner = bounds[:-1]
        base = 1 << ((len(bounds) - 1).bit_length() + 1)
        buckets = base
        while True:
            x = inner * buckets
            b = np.floor(x)
            inside = (x > b) | (x == 0)
            counts = np.bincount(b[inside].astype(np.intp), minlength=buckets + 1)
            if counts.max() <= _GUIDE_STEPS or buckets == _GUIDE_GROWTH * base:
                break
            buckets *= 2
        dense = counts > _GUIDE_STEPS
        self._bounds = bounds
        self._buckets = buckets
        self._guide = np.searchsorted(bounds, np.arange(buckets + 1) / buckets, "right")
        self._guide[0] = 0
        self._steps = int(counts[~dense].max())
        self._dense = dense if dense.any() else np.zeros(0, bool)

    def sample_term_index(self, u):
        """Term index of a uniform, or of each in an array.

        The index is the number of ``cum_weights`` entries <= u, at most
        the last term: ``np.searchsorted``'s, top edge clamped.  So a
        uniform in [0, 1) draws each term with its float weight.  Any
        finite u gets that index (u < 0 the first term, u > 1 the last);
        NaN, an infinity or a u with |u| * M >= 2^63 raises ValueError.

        The search starts at the guide entry of u's bucket floor(u * M)
        and steps past each bound <= u.  M is a power of two, so u * M
        and every bucket edge b / M are exact: the start never passes
        the index and at most ``_steps`` bounds lie between them.  Rows
        in a ``_dense`` bucket are searched by bisection instead.
        """
        x = np.asarray(u, np.float64).reshape(-1)
        try:
            with np.errstate(over="raise", invalid="raise"):
                bucket = (x * self._buckets).astype(np.intp)
        except FloatingPointError:
            raise ValueError("term uniforms must be finite, with |u| * M < 2^63") from None
        # "clip" reads bucket 0 for u < 0 and the u = 1.0 entry for u > 1
        idx = self._guide.take(bucket, mode="clip")
        for _ in range(self._steps):
            idx += x >= self._bounds.take(idx, mode="clip")
        if self._dense.size:
            rows = np.flatnonzero(self._dense.take(bucket, mode="clip"))
            idx[rows] = np.searchsorted(self._bounds, x[rows], "right")
        return idx.reshape(np.shape(u))[()]

    def has_intercept(self) -> bool:
        return bool((self.kind == KIND_INTERCEPT).any())

    def weighted(self, counts) -> Fraction:
        """Exact sum of counts[w] * weights[w] over the distinct probabilities."""
        num = sum(int(c) * w for w, c in zip(self.weight_num, counts) if c)
        return Fraction(num, self.weight_den)

    def __repr__(self) -> str:
        return f"ChannelModel({self.spec!r}, {len(self.terms)} terms)"


# -- builders -----------------------------------------------------------------


def identity(spec: FieldSpec) -> ChannelModel:
    return ChannelModel(spec, [(Fraction(1), UnitaryTerm(0, 0))])


def z_flip(spec: FieldSpec, q) -> ChannelModel:
    """Apply the norm-sign operator Z with probability q."""
    q = as_probability(q)
    z = DiagonalPhase.norm_mask(spec).mask
    return ChannelModel(
        spec, [(1 - q, UnitaryTerm(0, 0)), (q, UnitaryTerm(0, z))]
    )


def shift_noise(spec: FieldSpec, eta) -> ChannelModel:
    """With total probability eta, shift by a uniform nonzero field element."""
    eta = as_probability(eta)
    per = eta / (spec.order - 1)
    terms: list[tuple[Fraction, Action]] = [(1 - eta, UnitaryTerm(0, 0))]
    terms += [(per, UnitaryTerm(a, 0)) for a in range(1, spec.order)]
    return ChannelModel(spec, terms)


def full_dephase(spec: FieldSpec) -> ChannelModel:
    """Uniformly random diagonal signs every round.

    Realised as the explicit uniform mixture over all 2^N masks for small
    fields and as a single RandomDephase action (identical distribution,
    per-index fair sign flips) beyond n = 4.
    """
    if spec.n <= FULL_DEPHASE_ENUM_MAX_N:
        count = 1 << spec.order
        per = Fraction(1, count)
        return ChannelModel(
            spec, [(per, UnitaryTerm(0, mask)) for mask in range(count)]
        )
    return ChannelModel(spec, [(Fraction(1), RandomDephase())])


def partial_intercept(spec: FieldSpec, eta) -> ChannelModel:
    """Intercept-resend each round independently with probability eta."""
    eta = as_probability(eta)
    return ChannelModel(
        spec, [(1 - eta, UnitaryTerm(0, 0)), (eta, InterceptResend())]
    )


def custom(spec: FieldSpec, triples) -> ChannelModel:
    """Build a unitary mixture from (probability, shift, mask) triples."""
    return ChannelModel(
        spec,
        [(as_probability(p), UnitaryTerm(spec.check(a), m)) for p, a, m in triples],
    )


_CUSTOM_TERM = re.compile(
    r"\(\s*([^,()]+)\s*,\s*a\s*=\s*(\d+)\s*,\s*f\s*=\s*(0x[0-9a-fA-F]+|\d+)\s*\)"
)
_TERM = _CUSTOM_TERM.pattern
_CUSTOM_LIST = re.compile(rf"\[\s*{_TERM}(?:\s*,\s*{_TERM})*\s*\]")


def parse_channel_spec(text: str, spec: FieldSpec) -> ChannelModel:
    """Parse a channel spec string into a model."""
    text = text.strip()
    name, _, arg = text.partition(":")
    name = name.strip()
    if name == "identity":
        return identity(spec)
    if name == "z_flip":
        return z_flip(spec, arg)
    if name == "shift_noise":
        return shift_noise(spec, arg)
    if name == "full_dephase":
        return full_dephase(spec)
    if name == "partial_intercept":
        return partial_intercept(spec, arg)
    if name == "custom":
        body = arg.strip()
        if not _CUSTOM_LIST.fullmatch(body):
            raise ValueError(
                f"custom spec needs a [...] list of (p,a=A,f=F) terms: {text!r}"
            )
        triples = [
            (p, int(a), int(m, 0)) for p, a, m in _CUSTOM_TERM.findall(body)
        ]
        return custom(spec, triples)
    raise ValueError(f"unknown channel spec {text!r}")


def resolve_channel(channel, spec: FieldSpec) -> ChannelModel:
    """Accept a ChannelModel or a spec string; validate the field spec."""
    if isinstance(channel, ChannelModel):
        if channel.spec != spec:
            raise ValueError("channel model built for a different field spec")
        return channel
    return parse_channel_spec(channel, spec)

