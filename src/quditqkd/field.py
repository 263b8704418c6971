"""Arithmetic in the binary extension fields GF(2^n), 2 <= n <= 8.

Field elements are integers in [0, 2^n) interpreted as bit vectors of
polynomial coefficients over GF(2).  Addition is XOR.  Multiplication is
polynomial multiplication reduced modulo an irreducible polynomial of
degree n, itself stored as a bit mask with the leading coefficient
included.  The default moduli are the lexicographically smallest
irreducible polynomials:

    n = 2:  x^2 + x + 1        0b111       0x7
    n = 3:  x^3 + x + 1        0b1011      0xb
    n = 4:  x^4 + x + 1        0b10011     0x13
    n = 5:  x^5 + x^2 + 1      0b100101    0x25
    n = 6:  x^6 + x + 1        0b1000011   0x43
    n = 7:  x^7 + x + 1        0b10000011  0x83
    n = 8:  x^8 + x^4 + x^3 + x + 1        0x11b

Any other irreducible polynomial of the right degree may be supplied;
irreducibility is verified at construction by exhaustive trial division.
A ``FieldSpec`` is immutable after construction and safe to share across
threads.  Its multiplication and inverse tables are exposed as numpy
arrays for vectorised callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

MIN_N = 2
MAX_N = 8


class FieldMismatchError(ValueError):
    """Raised when elements of different field specs are combined."""


def poly_degree(p: int) -> int:
    """Degree of a GF(2) polynomial bit mask (-1 for the zero polynomial)."""
    return p.bit_length() - 1


def poly_mod(a: int, m: int) -> int:
    """Remainder of a GF(2) polynomial a modulo m."""
    dm = poly_degree(m)
    while poly_degree(a) >= dm:
        a ^= m << (poly_degree(a) - dm)
    return a


def is_irreducible(p: int) -> bool:
    """Exhaustive trial division by every polynomial of degree 1..deg/2."""
    d = poly_degree(p)
    if d < 1:
        return False
    for q in range(2, 1 << (d // 2 + 1)):
        if poly_degree(q) >= 1 and poly_mod(p, q) == 0:
            return False
    return True


def smallest_irreducible(n: int) -> int:
    """Lexicographically smallest irreducible polynomial of degree n."""
    for p in range(1 << n, 1 << (n + 1)):
        if is_irreducible(p):
            return p
    raise AssertionError("no irreducible polynomial of degree %d" % n)


class FieldSpec:
    """An instance of GF(2^n) with a fixed reduction modulus.

    Provides raw integer arithmetic (``add``, ``mul``, ``inv``, ``pow``,
    ``norm``) plus table views for vectorised code.  Use ``el`` to wrap
    values in :class:`FieldElement` for operator syntax.
    """

    def __init__(self, n: int, modulus: int | None = None):
        if not MIN_N <= n <= MAX_N:
            raise ValueError(f"n must be in [{MIN_N}, {MAX_N}], got {n}")
        if modulus is None:
            modulus = smallest_irreducible(n)
        if poly_degree(modulus) != n:
            raise ValueError(
                f"modulus {modulus:#x} has degree {poly_degree(modulus)}, expected {n}"
            )
        if not is_irreducible(modulus):
            raise ValueError(f"modulus {modulus:#x} is reducible")
        self._n = n
        self._modulus = modulus
        self._order = 1 << n
        self._mul_table = self._build_mul_table()
        self._inv_table = self._build_inv_table()

    # -- construction helpers -------------------------------------------------

    _cache: dict[tuple[int, int | None], "FieldSpec"] = {}

    @classmethod
    def get(cls, n: int, modulus: int | None = None) -> "FieldSpec":
        """Shared cached instance for (n, modulus)."""
        key = (n, modulus)
        spec = cls._cache.get(key)
        if spec is None:
            spec = cls._cache[key] = cls(n, modulus)
        return spec

    def _build_mul_table(self) -> np.ndarray:
        N = self._order
        t = np.zeros((N, N), dtype=np.uint8 if N <= 256 else np.uint16)
        for a in range(N):
            for b in range(a, N):
                v = self._mul_raw(a, b)
                t[a, b] = v
                t[b, a] = v
        t.setflags(write=False)
        return t

    def _build_inv_table(self) -> np.ndarray:
        N = self._order
        inv = np.zeros(N, dtype=self._mul_table.dtype)
        row = self._mul_table
        for a in range(1, N):
            inv[a] = int(np.nonzero(row[a] == 1)[0][0])
        inv.setflags(write=False)
        return inv

    def _mul_raw(self, a: int, b: int) -> int:
        n, mod, r = self._n, self._modulus, 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if (a >> n) & 1:
                a ^= mod
        return r

    # -- properties -----------------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def order(self) -> int:
        """Number of field elements N = 2^n."""
        return self._order

    @property
    def modulus(self) -> int:
        return self._modulus

    @property
    def mul_table(self) -> np.ndarray:
        """Read-only (N, N) multiplication table."""
        return self._mul_table

    @property
    def inv_table(self) -> np.ndarray:
        """Read-only length-N inverse table (entry 0 is unused)."""
        return self._inv_table

    # -- raw integer arithmetic ----------------------------------------------

    def check(self, value: int) -> int:
        if not 0 <= value < self._order:
            raise ValueError(f"value {value} out of range for GF(2^{self._n})")
        return value

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        return int(self._mul_table[a, b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return int(self._inv_table[a])

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv(a), -k
        r, base = 1, a
        while k:
            if k & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            k >>= 1
        return r

    def norm(self, a: int) -> int:
        """Field norm onto GF(2): 0 for the zero element, 1 otherwise.

        Equals a^(N-1) by Lagrange, computed directly from the zero test.
        """
        return 0 if a == 0 else 1

    # -- element wrappers -----------------------------------------------------

    def el(self, value: int) -> "FieldElement":
        return FieldElement(self, self.check(value))

    def elements(self) -> Iterator["FieldElement"]:
        for v in range(self._order):
            yield FieldElement(self, v)

    # -- identity -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldSpec)
            and self._n == other._n
            and self._modulus == other._modulus
        )

    def __hash__(self) -> int:
        return hash((self._n, self._modulus))

    def __repr__(self) -> str:
        return f"FieldSpec(n={self._n}, modulus={self._modulus:#x})"


def field_spec(n: int, modulus: int | None = None) -> FieldSpec:
    """Cached constructor for :class:`FieldSpec`."""
    return FieldSpec.get(n, modulus)


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
        return FieldElement(self.spec, self.spec.mul(self.value, other.value))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        self._joint(other)
        return self * other.inv()

    def __pow__(self, k: int) -> "FieldElement":
        return FieldElement(self.spec, self.spec.pow(self.value, k))

    def inv(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec.inv(self.value))

    def norm(self) -> int:
        return self.spec.norm(self.value)

    def __index__(self) -> int:
        return self.value

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"FieldElement({self.value}, GF(2^{self.spec.n}))"
