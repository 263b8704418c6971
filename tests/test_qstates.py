"""The reference ket layer's Born rule, and Bell-frame conjugation."""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditqkd.field import FieldElement, field_spec
from quditqkd.qstates import (
    BellIndex,
    DiagonalPhase,
    Outcome,
    conjugate_bell,
    conjugate_bell_mask,
)

from oracles import conjugation_matches
from reference import SparseKet, apply_error, decide_outcome, probabilities


def F(spec, v):
    return FieldElement(spec, v)


def random_ket(spec, rng):
    if rng.random() < 0.3:
        return SparseKet.single(spec, int(rng.integers(spec.order)))
    i, j = map(int, rng.choice(spec.order, size=2, replace=False))
    i, j = min(i, j), max(i, j)
    return SparseKet.pair(spec, i, j, int(rng.integers(2)))


class TestSparseKet:
    def test_canonical_form_enforced(self):
        spec = field_spec(2)
        with pytest.raises(ValueError):
            SparseKet(spec, ((1, 1), (0, 1)))
        with pytest.raises(ValueError):
            SparseKet(spec, ((0, -1), (1, 1)))
        with pytest.raises(ValueError):
            SparseKet(spec, ((0, 1), (0, 1)))
        with pytest.raises(ValueError):
            SparseKet(spec, ())

    def test_from_terms_canonicalises_order_and_global_sign(self):
        spec = field_spec(2)
        ket = SparseKet.from_terms(spec, [(3, 1), (1, -1)])
        assert ket.terms == ((1, 1), (3, -1))
        assert ket == SparseKet.pair(spec, 3, 1, 1)

    def test_relative_sign(self):
        spec = field_spec(2)
        assert SparseKet.pair(spec, 0, 1, 0).relative_sign() == 1
        assert SparseKet.pair(spec, 0, 1, 1).relative_sign() == -1
        assert SparseKet.single(spec, 2).relative_sign() == 1


class TestProbabilities:
    """Exact Born rules for the three-outcome pair measurement."""

    def test_matched_pair(self):
        spec = field_spec(2)
        ket = SparseKet.pair(spec, 1, 2, 0)
        assert probabilities(ket, F(spec, 1), F(spec, 2)) == (1, 0, 0)
        flipped = SparseKet.pair(spec, 1, 2, 1)
        assert probabilities(flipped, F(spec, 1), F(spec, 2)) == (0, 1, 0)

    def test_single_overlap_two_term(self):
        spec = field_spec(2)
        ket = SparseKet.pair(spec, 0, 1, 0)
        p = probabilities(ket, F(spec, 1), F(spec, 2))
        assert p == (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))

    def test_single_term_inside_pair(self):
        spec = field_spec(2)
        ket = SparseKet.single(spec, 0)
        p = probabilities(ket, F(spec, 0), F(spec, 1))
        assert p == (Fraction(1, 2), Fraction(1, 2), 0)

    def test_disjoint_support(self):
        spec = field_spec(2)
        ket = SparseKet.pair(spec, 0, 1, 0)
        assert probabilities(ket, F(spec, 2), F(spec, 3)) == (0, 0, 1)

    def test_measurement_pair_order_irrelevant_for_outside(self):
        spec = field_spec(3)
        rng = np.random.default_rng(7)
        for _ in range(50):
            ket = random_ket(spec, rng)
            i, j = map(int, rng.choice(spec.order, size=2, replace=False))
            a = probabilities(ket, F(spec, i), F(spec, j))
            b = probabilities(ket, F(spec, j), F(spec, i))
            assert a[2] == b[2]
            assert a[0] + a[1] == b[0] + b[1]

    def test_identical_indices_rejected(self):
        spec = field_spec(2)
        ket = SparseKet.single(spec, 0)
        with pytest.raises(ValueError):
            probabilities(ket, F(spec, 1), F(spec, 1))

    @settings(max_examples=100)
    @given(n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
    def test_completeness_random(self, n, seed):
        spec = field_spec(n)
        rng = np.random.default_rng(seed)
        ket = random_ket(spec, rng)
        i, j = map(int, rng.choice(spec.order, size=2, replace=False))
        p_plus, p_minus, p_out = probabilities(ket, F(spec, i), F(spec, j))
        assert p_plus + p_minus + p_out == 1
        assert min(p_plus, p_minus, p_out) >= 0


class TestDecideOutcome:
    def test_interval_edges(self):
        assert decide_outcome(0.25, 0.25, 0.0) is Outcome.PLUS
        assert decide_outcome(0.25, 0.25, 0.2499) is Outcome.PLUS
        assert decide_outcome(0.25, 0.25, 0.25) is Outcome.MINUS
        assert decide_outcome(0.25, 0.25, 0.4999) is Outcome.MINUS
        assert decide_outcome(0.25, 0.25, 0.5) is Outcome.OUTSIDE
        assert decide_outcome(0.25, 0.25, 0.9999) is Outcome.OUTSIDE

    def test_degenerate_weights(self):
        assert decide_outcome(1.0, 0.0, 0.999999) is Outcome.PLUS
        assert decide_outcome(0.0, 0.0, 0.0) is Outcome.OUTSIDE


class TestLineMaps:
    def test_error_action_shifts_and_signs(self):
        spec = field_spec(2)
        phase = DiagonalPhase.norm_mask(spec)
        ket = SparseKet.pair(spec, 0, 1, 0)
        out = apply_error(F(spec, 1), phase, ket)
        # indices 0, 1 -> 1, 0; only the old index 1 carries a sign
        assert out.indices == (0, 1)
        assert out.relative_sign() == -1


class TestDiagonalPhase:
    def test_norm_mask_value(self):
        for n in (2, 3, 4):
            spec = field_spec(n)
            assert DiagonalPhase.norm_mask(spec).mask == (1 << spec.order) - 2

    def test_zero_mask_never_flips(self):
        spec = field_spec(2)
        phase = DiagonalPhase.zero(spec)
        assert [phase(i) for i in range(4)] == [0, 0, 0, 0]

    def test_mask_range_checked(self):
        spec = field_spec(2)
        with pytest.raises(ValueError):
            DiagonalPhase(spec, 1 << 4)
        with pytest.raises(ValueError):
            DiagonalPhase(spec, -1)


class TestConjugation:
    """Frame-index arithmetic pinned by a dense matrix oracle."""

    def test_worked_example_shift_with_phase(self):
        spec = field_spec(2)
        out = conjugate_bell(F(spec, 2), F(spec, 1), F(spec, 2), 1, F(spec, 0), 0)
        assert (out.a.value, out.ell) == (1, 0)

    def test_worked_example_phase_only(self):
        spec = field_spec(2)
        out = conjugate_bell(F(spec, 1), F(spec, 0), F(spec, 0), 1, F(spec, 0), 0)
        assert (out.a.value, out.ell) == (0, 1)

    def test_exhaustive_against_matrix_oracle(self):
        spec = field_spec(2)
        count = 0
        for lam, beta, a, ell, b, kappa in itertools.product(
            range(1, 4), range(4), range(4), (0, 1), range(4), (0, 1)
        ):
            out = conjugate_bell(
                F(spec, lam), F(spec, beta), F(spec, a), ell, F(spec, b), kappa
            )
            assert conjugation_matches(spec, lam, beta, a, ell, b, kappa, out)
            count += 1
        assert count == 768

    @pytest.mark.parametrize("n", [2, 3])
    def test_fixed_error_permutes_frames(self, n):
        """For each error the frame map (b, kappa) -> image is a bijection."""
        spec = field_spec(n)
        for lam in range(1, spec.order):
            for beta, a, ell in itertools.product(
                range(spec.order), range(spec.order), (0, 1)
            ):
                images = {
                    (out.a.value, out.ell)
                    for out in (
                        conjugate_bell(
                            F(spec, lam), F(spec, beta), F(spec, a), ell,
                            F(spec, b), kappa,
                        )
                        for b in range(spec.order)
                        for kappa in (0, 1)
                    )
                }
                assert len(images) == 2 * spec.order

    def test_general_mask_agrees_with_norm_rule(self):
        spec = field_spec(3)
        phase = DiagonalPhase.norm_mask(spec)
        rng = np.random.default_rng(3)
        for _ in range(300):
            lam = int(rng.integers(1, 8))
            beta, a, b = (int(v) for v in rng.integers(0, 8, size=3))
            kappa = int(rng.integers(2))
            via_mask = conjugate_bell_mask(
                F(spec, lam), F(spec, beta), F(spec, a), phase, F(spec, b), kappa
            )
            via_rule = conjugate_bell(
                F(spec, lam), F(spec, beta), F(spec, a), 1, F(spec, b), kappa
            )
            assert via_mask == via_rule

    def test_domain_errors(self):
        spec = field_spec(2)
        with pytest.raises(ValueError):
            conjugate_bell(F(spec, 0), F(spec, 0), F(spec, 0), 0, F(spec, 0), 0)
        with pytest.raises(ValueError):
            conjugate_bell(F(spec, 1), F(spec, 0), F(spec, 0), 2, F(spec, 0), 0)
        with pytest.raises(ValueError):
            conjugate_bell(F(spec, 1), F(spec, 0), F(spec, 0), 0, F(spec, 0), 5)

    def test_bell_index_validation(self):
        spec = field_spec(2)
        with pytest.raises(ValueError):
            BellIndex(F(spec, 0), 3)
