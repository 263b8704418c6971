"""The integer-numerator analysis against the Fraction path it replaced.

``ChannelModel`` sums its term probabilities as integer numerators over
one denominator, and ``BellDistribution`` holds exact tables the same
way; tests/reference.py keeps the per-term Fraction code as the
reference.  Weights, term arrays and tables must be identical, and every
observable, verdict and report equal.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest

from oracles import random_exact_distribution
from quditqkd.analysis import (
    BellDistribution,
    analysis_report,
    bell_distribution,
    check_ed_condition,
    error_matrix,
    predict_observables,
)
from quditqkd.channels import (
    ChannelModel,
    InterceptResend,
    RandomDephase,
    UnitaryTerm,
    resolve_channel,
)
from quditqkd.field import field_spec
from reference import (
    FractionBellDistribution,
    fraction_analysis_report,
    fraction_bell_distribution,
    fraction_channel_weights,
    fraction_check_ed_condition,
    fraction_error_matrix,
    fraction_predict_observables,
    fraction_weighted,
)

TINY = Fraction(1, 10**30)


def _mixed_terms() -> list:
    """Mixed denominators, a 1e-30 term, a repeated weight and a zero term."""
    rest = 1 - Fraction(1, 3) - 2 * Fraction(2, 7) - TINY
    return [
        (Fraction(1, 3), UnitaryTerm(1, 0b0110)),
        (Fraction(2, 7), UnitaryTerm(0, 0b0001)),
        (Fraction(0), UnitaryTerm(2, 0b1000)),
        (TINY, UnitaryTerm(2, 0b0011)),
        (Fraction(2, 7), UnitaryTerm(3, 0b0110)),
        (rest, UnitaryTerm(0, 0)),
    ]


CUSTOM = (
    "custom:[(0.5,a=1,f=0x6),(1e-30,a=0,f=0x1),(0.499999999999999999999999999999,a=0,f=0x0)]"
)
BUILDERS = [
    "identity",
    "z_flip:0.3",
    "z_flip:1",
    "shift_noise:0.2",
    "full_dephase",
    "partial_intercept:0.4",
    CUSTOM,
    "mixed",
]


def _model(n: int, name: str) -> tuple[ChannelModel, list]:
    """The model and the term list it is built from."""
    spec = field_spec(n)
    if name == "mixed":
        terms = _mixed_terms()
        return ChannelModel(spec, terms), terms
    model = resolve_channel(name, spec)
    return model, list(model.terms)


@pytest.mark.parametrize("name", BUILDERS)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
class TestBuilders:
    def test_weights_ids_and_cum_weights(self, n, name):
        model, terms = _model(n, name)
        kept, weights, weight_id, cum_weights = fraction_channel_weights(terms)
        assert model.terms == kept
        assert model.weights == weights
        assert all(type(w) is Fraction for w in model.weights)
        assert model.weight_id.dtype == weight_id.dtype
        assert np.array_equal(model.weight_id, weight_id)
        assert model.cum_weights.tobytes() == cum_weights.tobytes()
        # each distinct weight is its numerator over the common denominator
        assert [Fraction(w, model.weight_den) for w in model.weight_num] == list(weights)
        assert all(type(w) is int for w in model.weight_num)

    def test_weighted(self, n, name):
        model, _ = _model(n, name)
        rng = np.random.default_rng(n)
        for counts in [np.zeros(len(model.weights), np.int64)] + [
            rng.integers(0, 1 << 40, len(model.weights)) for _ in range(5)
        ]:
            got = model.weighted(counts)
            assert type(got) is Fraction
            assert got == fraction_weighted(model.weights, counts)

    def test_table_and_report(self, n, name):
        model, _ = _model(n, name)
        report = analysis_report(model)
        want = fraction_analysis_report(model)
        assert report == want
        assert json.dumps(report) == json.dumps(want)
        if model.has_intercept():
            return
        e = bell_distribution(model).e
        ref = fraction_bell_distribution(model)
        assert list(e.items()) == list(ref.items())
        assert all(type(k[0]) is int and type(k[1]) is int for k in e)
        assert all(type(p) is Fraction for p in e.values())
        d, ref_d = bell_distribution(model), FractionBellDistribution(model.spec, ref)
        assert predict_observables(d) == fraction_predict_observables(ref_d)
        assert check_ed_condition(d) == fraction_check_ed_condition(ref_d)
        if predict_observables(d).e_c:
            assert error_matrix(d) == fraction_error_matrix(ref_d)


def test_numerators_past_int64():
    for name in (CUSTOM, "mixed"):
        model, _ = _model(3, name)
        assert max(model.weight_num) > 2**63
        assert model.weight_den > 2**63


class TestConstructorErrors:
    SPEC = field_spec(2)
    CASES = {
        "sum-below-one": [(Fraction(1, 2), UnitaryTerm(0, 0))],
        "sum-above-one": [(Fraction(2, 3), UnitaryTerm(0, 0)), (Fraction(1, 2), UnitaryTerm(1, 0))],
        "sum-off-by-tiny": [(Fraction(1, 2), UnitaryTerm(0, 0)), (Fraction(1, 2) + TINY, RandomDephase())],
        "negative": [(Fraction(-1, 2), UnitaryTerm(0, 0)), (Fraction(3, 2), InterceptResend())],
        "float": [(1.0, UnitaryTerm(0, 0))],
        "int": [(1, UnitaryTerm(0, 0))],
        "float-among-fractions": [(Fraction(1, 2), UnitaryTerm(0, 0)), (0.5, UnitaryTerm(1, 0))],
    }

    @pytest.mark.parametrize("case", CASES)
    def test_same_error_as_the_fraction_sum(self, case):
        terms = self.CASES[case]
        with pytest.raises(ValueError) as ref:
            fraction_channel_weights(terms)
        with pytest.raises(ValueError) as got:
            ChannelModel(self.SPEC, terms)
        assert str(got.value) == str(ref.value)

    def test_tiny_term_sums_to_one(self):
        spec = field_spec(2)
        terms = [(Fraction(1, 2) - TINY, UnitaryTerm(0, 0)), (Fraction(1, 2) + TINY, RandomDephase())]
        assert ChannelModel(spec, terms).weights == fraction_channel_weights(terms)[1]


def _random_tables(count: int):
    """(spec, num, den, Fraction table) from the oracle's draws, n = 2..4."""
    rng = np.random.default_rng(26)
    for i in range(count):
        spec = field_spec(2 + i % 3)
        num, den = random_exact_distribution(rng, spec.order)
        yield spec, num, den, {k: Fraction(v, den) for k, v in num.items()}


def _decisions(d, predict, ed, matrix):
    out = [predict(d), ed(d)]
    try:
        out.append(matrix(d))
    except ValueError as exc:
        out.append(str(exc))
    return out


class TestTables:
    def test_exact_tables(self):
        for spec, num, den, e in _random_tables(600):
            ref = _decisions(
                FractionBellDistribution(spec, e),
                fraction_predict_observables,
                fraction_check_ed_condition,
                fraction_error_matrix,
            )
            for d in (BellDistribution(spec, e), BellDistribution.from_numerators(spec, num, den)):
                assert d.e == e
                assert d.total() == 1
                assert _decisions(d, predict_observables, check_ed_condition, error_matrix) == ref

    def test_float_tables(self):
        # a table is exact: the first float entry fails the constructor
        for spec, _, _, e in _random_tables(300):
            floats = {k: float(p) for k, p in e.items()}
            key, p = next(iter(floats.items()))
            with pytest.raises(ValueError) as exc:
                BellDistribution(spec, floats)
            assert str(exc.value) == f"probability at {key} is not exact: {p!r}"

    def test_missing_kept_entries(self):
        spec = field_spec(3)
        e = {(a, 0): Fraction(1, 6) for a in range(2, spec.order)}
        d, ref_d = BellDistribution(spec, e), FractionBellDistribution(spec, e)
        assert predict_observables(d) == fraction_predict_observables(ref_d)
        assert check_ed_condition(d) == fraction_check_ed_condition(ref_d)


THIRD = 1 / 6
VALIDATE_CASES = {
    "exact": {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)},
    "exact-short": {(0, 0): Fraction(1, 2)},
    # short by 1e-30, which a 1e-9 tolerance once let pass
    "exact-short-in-tol": {(0, 0): 1 - TINY, (0, 1): Fraction(0)},
    "negative": {(0, 0): Fraction(3, 2), (1, 0): Fraction(-1, 2)},
    "bad-ell": {(0, 2): Fraction(1)},
    "bad-index": {(4, 0): Fraction(1)},
    "sum-rule": {(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 2)},
    "nan": {(0, 0): float("nan")},
    "nan-among-fractions": {(0, 0): Fraction(1, 2), (0, 1): float("nan")},
    "float-negative": {(0, 0): 1.5, (0, 1): -0.5},
    "float-in-tol": {(0, 0): 0.5, (1, 0): THIRD, (2, 0): THIRD, (3, 0): THIRD + 1e-12},
    "float-out-of-tol": {(0, 0): 0.5, (1, 0): THIRD, (2, 0): THIRD, (3, 0): THIRD + 1e-12},
    "float-short": {(0, 0): 0.75},
    "empty": {},
}
# the first entry of each that is not exact, which the constructor names
NOT_EXACT = {
    "nan": ((0, 0), "nan"),
    "nan-among-fractions": ((0, 1), "nan"),
    "float-negative": ((0, 0), "1.5"),
    "float-in-tol": ((0, 0), "0.5"),
    "float-out-of-tol": ((0, 0), "0.5"),
    "float-short": ((0, 0), "0.75"),
}


@pytest.mark.parametrize("case", VALIDATE_CASES)
def test_validate_matches_the_fraction_checks(case):
    table = VALIDATE_CASES[case]
    spec = field_spec(2)
    if case in NOT_EXACT:
        key, shown = NOT_EXACT[case]
        want = f"probability at {key} is not exact: {shown}"
    else:
        try:
            FractionBellDistribution(spec, table).validate()
            want = None
        except ValueError as exc:
            want = str(exc)
    try:
        BellDistribution(spec, table).validate()
        got = None
    except ValueError as exc:
        got = str(exc)
    assert got == want
