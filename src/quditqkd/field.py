"""Arithmetic in the binary extension fields GF(2^n), 2 <= n <= 8.

Field elements are integers in [0, 2^n) interpreted as bit vectors of
polynomial coefficients over GF(2).  Addition is XOR.  Multiplication is
polynomial multiplication reduced modulo ``MODULI[n]``, the
lexicographically smallest irreducible polynomial of degree n, stored
as a bit mask with the leading coefficient included:

    n = 2:  x^2 + x + 1        0b111       0x7
    n = 3:  x^3 + x + 1        0b1011      0xb
    n = 4:  x^4 + x + 1        0b10011     0x13
    n = 5:  x^5 + x^2 + 1      0b100101    0x25
    n = 6:  x^6 + x + 1        0b1000011   0x43
    n = 7:  x^7 + x + 1        0b10000011  0x83
    n = 8:  x^8 + x^4 + x^3 + x + 1        0x11b

Every irreducible modulus of degree n gives an isomorphic field, so the
choice only relabels elements and the scheme's statistics do not depend
on it.  A ``FieldSpec`` is a frozen value, safe to share across threads.
Its multiplication table is built with array operations, one
shift-and-add over every (a, b) pair at once, and the inverse of each a
is the column where row a of that table holds 1; both are read-only
uint8 numpy arrays, and every product or inverse in the package is a
lookup in them.  ``field_spec`` is the cached constructor: it returns
one shared spec per degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MIN_N = 2
MAX_N = 8

# the reduction modulus of GF(2^n), keyed by n
MODULI = {2: 0x7, 3: 0xB, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83, 8: 0x11B}


def check_degree(n: int) -> int:
    """``n``, if GF(2^n) is a field this package builds; else a ValueError."""
    if not MIN_N <= n <= MAX_N:
        raise ValueError(f"n must be in [{MIN_N}, {MAX_N}], got {n}")
    return n


@dataclass(frozen=True)
class FieldSpec:
    """GF(2^n), reduced modulo ``MODULI[n]``.

    Products and inverses are lookups, by scalar or by array, in the
    read-only tables ``mul_table`` (N, N) and ``inv_table`` (length N,
    entry 0 unused); ``check`` bounds an element and ``norm`` maps it
    onto GF(2).  Two specs are equal when their degrees are.
    """

    n: int
    modulus: int = field(init=False, compare=False)
    order: int = field(init=False, compare=False)
    mul_table: np.ndarray = field(init=False, compare=False)
    inv_table: np.ndarray = field(init=False, compare=False)

    def __post_init__(self) -> None:
        n = check_degree(self.n)
        modulus = MODULI[n]
        order = 1 << n
        # shift-and-add over every (a, b) at once: ``row`` holds a * x^k
        # mod the modulus for every a, added wherever bit k of b is set
        b = np.arange(order)
        row = b.copy()
        mul = np.zeros((order, order), np.int64)
        for k in range(n):
            mul ^= row[:, None] * ((b >> k) & 1)
            row <<= 1
            row ^= modulus * (row >> n)
        mul_table = mul.astype(np.uint8)
        inv_table = np.argmax(mul_table == 1, axis=1).astype(np.uint8)
        mul_table.setflags(write=False)
        inv_table.setflags(write=False)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "mul_table", mul_table)
        object.__setattr__(self, "inv_table", inv_table)

    def check(self, value: int) -> int:
        if not 0 <= value < self.order:
            raise ValueError(f"value {value} out of range for GF(2^{self.n})")
        return value

    def norm(self, a: int) -> int:
        """Field norm onto GF(2): 0 for the zero element, 1 otherwise.

        Equals a^(N-1) by Lagrange, computed directly from the zero test,
        elementwise when ``a`` is an array.
        """
        return (a != 0) * 1

    def __repr__(self) -> str:
        return f"FieldSpec(n={self.n}, modulus={self.modulus:#x})"


_SPECS: dict[int, FieldSpec] = {}


def field_spec(n: int) -> FieldSpec:
    """The cached constructor: one shared :class:`FieldSpec` per degree."""
    spec = _SPECS.get(n)
    if spec is None:
        spec = _SPECS[n] = FieldSpec(n)
    return spec
