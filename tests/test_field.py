"""GF(2^n) arithmetic against independent polynomial references."""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditqkd.field import MODULI, FieldSpec, field_spec
from quditqkd.protocol import pm_condition_lhs
from quditqkd.threshold import FeasibilityPoint, e_max_scan, ec_star, f_value

from oracles import is_irreducible, slow_gf_mul, smallest_irreducible
from reference import FieldElement, FieldMismatchError

DEGREES = range(2, 9)

EXPECTED_MODULI = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011011,
}


@pytest.mark.parametrize("n", DEGREES)
def test_default_modulus_is_smallest_irreducible(n):
    assert field_spec(n).modulus == MODULI[n] == EXPECTED_MODULI[n]
    assert MODULI[n] == smallest_irreducible(n)


@pytest.mark.parametrize("n", DEGREES)
def test_mul_table_matches_slow_polynomial_product(n):
    spec = field_spec(n)
    for a in range(spec.order):
        for b in range(spec.order):
            assert spec.mul_table[a, b] == slow_gf_mul(a, b, spec.modulus, n)


@pytest.mark.parametrize("n", DEGREES)
def test_inverses_and_norm(n):
    spec = field_spec(n)
    for a in range(1, spec.order):
        assert spec.mul_table[a, spec.inv_table[a]] == 1
        assert spec.norm(a) == 1
    assert spec.norm(0) == 0


@pytest.mark.parametrize("n", DEGREES)
def test_fermat_power(n):
    spec = field_spec(n)
    for a in range(1, spec.order):
        power = 1
        for _ in range(spec.order - 1):
            power = spec.mul_table[power, a]
        assert power == 1


@settings(max_examples=200)
@given(
    n=st.integers(2, 8),
    data=st.data(),
)
def test_field_element_ring_identities(n, data):
    spec = field_spec(n)
    pick = st.integers(0, spec.order - 1)
    a = FieldElement(spec, data.draw(pick))
    b = FieldElement(spec, data.draw(pick))
    c = FieldElement(spec, data.draw(pick))
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a


@given(n=st.integers(2, 8), data=st.data())
def test_division_inverts_multiplication(n, data):
    spec = field_spec(n)
    a = FieldElement(spec, data.draw(st.integers(0, spec.order - 1)))
    b = FieldElement(spec, data.draw(st.integers(1, spec.order - 1)))
    assert (a * b) / b == a


def test_out_of_range_values_rejected():
    spec = field_spec(2)
    with pytest.raises(ValueError):
        spec.check(4)
    with pytest.raises(ValueError):
        spec.check(-1)
    with pytest.raises(ValueError):
        FieldElement(spec, 4)


def test_cross_field_operations_rejected():
    a = FieldElement(field_spec(2), 1)
    b = FieldElement(field_spec(3), 1)
    with pytest.raises(FieldMismatchError):
        _ = a + b


def test_degree_bounds():
    with pytest.raises(ValueError):
        field_spec(1)
    with pytest.raises(ValueError):
        field_spec(9)


# every entry point that takes a degree, through the one field check
DEGREE_CALLS = {
    "FieldSpec": FieldSpec,
    "e_max_scan": e_max_scan,
    "FeasibilityPoint": lambda n: f_value(FeasibilityPoint(0.1, 0.9, 0.0, n)),
    "ec_star": lambda n: ec_star(0.1, n),
    "pm_condition_lhs": lambda n: pm_condition_lhs(0.1, 0.9, n),
}


@pytest.mark.parametrize("n", [1, 9, 600, 1100])
@pytest.mark.parametrize("call", sorted(DEGREE_CALLS))
def test_degree_outside_the_field_range(call, n):
    # ec_star and pm_condition_lhs once answered 600 quietly, and f_value
    # and pm_condition_lhs overflowed float64 at 1100
    with pytest.raises(ValueError, match=rf"^n must be in \[2, 8\], got {n}$"):
        DEGREE_CALLS[call](n)


@pytest.mark.parametrize(
    "n, modulus",
    [
        (n, p)
        for n in range(2, 7)
        for p in range(1 << n, 1 << (n + 1))
        if is_irreducible(p)
    ],
)
def test_custom_irreducible_modulus_accepted(n, modulus):
    # another modulus needs no option: x -> a root of it in field_spec(n)
    # carries the field it defines onto field_spec(n), a relabelling
    spec = field_spec(n)

    def evaluate(poly: int, x: int) -> int:
        acc, power = 0, 1
        for k in range(poly.bit_length()):
            if poly >> k & 1:
                acc ^= power
            power = int(spec.mul_table[power, x])
        return acc

    roots = [x for x in range(spec.order) if evaluate(modulus, x) == 0]
    assert len(roots) == n
    image = [evaluate(a, roots[0]) for a in range(spec.order)]
    assert sorted(image) == list(range(spec.order))
    for a in range(spec.order):
        for b in range(spec.order):
            assert image[slow_gf_mul(a, b, modulus, n)] == spec.mul_table[image[a], image[b]]


def test_spec_cache_and_equality():
    assert field_spec(3) is field_spec(3)
    assert field_spec(3) is field_spec(n=3)
    assert field_spec(3) == FieldSpec(3)
    assert hash(field_spec(3)) == hash(FieldSpec(3))
    assert field_spec(3) != field_spec(4)
    spec = field_spec(3)
    with pytest.raises(FrozenInstanceError):
        spec.n = 4


def test_tables_are_read_only_views():
    spec = field_spec(2)
    mt = spec.mul_table
    assert isinstance(mt, np.ndarray)
    with pytest.raises(ValueError):
        mt[0, 0] = 5
