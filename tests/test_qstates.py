"""The reference ket layer's Born rule, and the array Bell-frame rule."""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditqkd.field import field_spec
from quditqkd.qstates import Outcome, conjugate_frame

from oracles import conjugation_matches
from reference import (
    BellIndex,
    DiagonalPhase,
    FieldElement,
    SparseKet,
    apply_error,
    conjugate_bell,
    conjugate_bell_mask,
    decide_outcome,
    probabilities,
)


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


def _frame(spec, lam, beta, a, ell, b, kappa):
    """``conjugate_frame`` on one case, with the norm mask when ell = 1."""
    bits = np.array([0] + [ell] * (spec.order - 1))
    index, sign = conjugate_frame(spec, lam, beta, a, bits, b, kappa)
    return int(index), int(sign)


class TestConjugation:
    """The array frame rule pinned by a dense matrix oracle."""

    def test_worked_example_shift_with_phase(self):
        assert _frame(field_spec(2), 2, 1, 2, 1, 0, 0) == (1, 0)

    def test_worked_example_phase_only(self):
        assert _frame(field_spec(2), 1, 0, 0, 1, 0, 0) == (0, 1)

    def test_exhaustive_against_matrix_oracle(self):
        spec = field_spec(2)
        count = 0
        for lam, beta, a, ell, b, kappa in itertools.product(
            range(1, 4), range(4), range(4), (0, 1), range(4), (0, 1)
        ):
            out = _frame(spec, lam, beta, a, ell, b, kappa)
            assert conjugation_matches(spec, lam, beta, a, ell, b, kappa, *out)
            count += 1
        assert count == 768

    @pytest.mark.parametrize("n", [2, 3])
    def test_fixed_error_permutes_frames(self, n):
        """For each error the frame map (b, kappa) -> image is a bijection."""
        spec = field_spec(n)
        b = np.arange(spec.order)[:, None]
        kappa = np.array([0, 1])
        for lam in range(1, spec.order):
            for beta, a, ell in itertools.product(
                range(spec.order), range(spec.order), (0, 1)
            ):
                bits = np.array([0] + [ell] * (spec.order - 1))
                index, sign = conjugate_frame(spec, lam, beta, a, bits, b, kappa)
                images = set(zip(np.broadcast_to(index, sign.shape).ravel(), sign.ravel()))
                assert len(images) == 2 * spec.order

    def test_general_mask_agrees_with_norm_rule(self):
        spec = field_spec(3)
        norm = np.array([0] + [1] * 7)
        rng = np.random.default_rng(3)
        for _ in range(300):
            lam = int(rng.integers(1, 8))
            beta, a, b = (int(v) for v in rng.integers(0, 8, size=3))
            kappa = int(rng.integers(2))
            via_mask = conjugate_frame(spec, lam, beta, a, norm, b, kappa)
            via_rule = conjugate_bell(
                F(spec, lam), F(spec, beta), F(spec, a), 1, F(spec, b), kappa
            )
            assert (int(via_mask[0]), int(via_mask[1])) == (via_rule.a.value, via_rule.ell)

    def test_domain_errors(self):
        spec = field_spec(2)
        bits = np.zeros(4, np.int8)
        with pytest.raises(ValueError, match="lam"):
            conjugate_frame(spec, 0, 0, 0, bits, 0, 0)
        with pytest.raises(ValueError, match="lam"):
            conjugate_frame(spec, np.array([1, 0, 3]), 0, 0, bits, 0, 0)
        # the scalar reference keeps its own checks on ell and kappa
        with pytest.raises(ValueError):
            conjugate_bell(F(spec, 1), F(spec, 0), F(spec, 0), 2, F(spec, 0), 0)
        with pytest.raises(ValueError):
            conjugate_bell(F(spec, 1), F(spec, 0), F(spec, 0), 0, F(spec, 0), 5)

    def test_bell_index_validation(self):
        spec = field_spec(2)
        with pytest.raises(ValueError):
            BellIndex(F(spec, 0), 3)


def _scalar_images(spec, lam, beta, a, masks, mask_id, b, kappa):
    """The scalar reference rule, one ``conjugate_bell_mask`` call per case."""
    packed = [int(sum(int(bit) << y for y, bit in enumerate(row))) for row in masks]
    out = [
        conjugate_bell_mask(
            F(spec, l), F(spec, be), F(spec, s), DiagonalPhase(spec, packed[m]), F(spec, bb), k
        )
        for l, be, s, m, bb, k in zip(
            *(np.asarray(c).tolist() for c in (lam, beta, a, mask_id, b, kappa))
        )
    ]
    return [o.a.value for o in out], [o.ell for o in out]


class TestArrayRuleAgainstScalar:
    """``conjugate_frame`` against the scalar reference ``conjugate_bell_mask``."""

    def test_exhaustive_n2_every_mask(self):
        spec = field_spec(2)
        masks = (np.arange(16)[:, None] >> np.arange(4)) & 1
        cases = np.array(
            list(itertools.product(range(1, 4), range(4), range(4), range(16), range(4), (0, 1)))
        )
        lam, beta, a, mask_id, b, kappa = cases.T
        index, sign = conjugate_frame(spec, lam, beta, a, masks, b, kappa)
        got = (index.tolist(), sign[mask_id, np.arange(len(cases))].tolist())
        assert got == _scalar_images(spec, lam, beta, a, masks, mask_id, b, kappa)
        assert len(cases) == 3 * 4 * 4 * 16 * 4 * 2

    @pytest.mark.parametrize("n", range(3, 9))
    def test_sampled_random_masks(self, n):
        spec = field_spec(n)
        order = spec.order
        rng = np.random.default_rng(170 + n)
        size = 400
        lam = rng.integers(1, order, size)
        beta, a, b = rng.integers(0, order, (3, size))
        kappa = rng.integers(0, 2, size)
        masks = rng.integers(0, 2, (size, order), dtype=np.int8)
        assert (b != 0).any() and (kappa == 1).any()
        index, sign = conjugate_frame(spec, lam, beta, a, masks, b, kappa)
        rows = np.arange(size)
        got = (index.tolist(), sign[rows, rows].tolist())
        assert got == _scalar_images(spec, lam, beta, a, masks, rows, b, kappa)

    def test_broadcast_shapes(self):
        """Index over (lam, shift, b); sign over the masks, then the cases."""
        spec = field_spec(3)
        masks = np.random.default_rng(5).integers(0, 2, (6, 8))
        lam = np.arange(1, 8)[:, None]
        index, sign = conjugate_frame(spec, lam, np.arange(8), np.arange(8)[:, None, None], masks, 0, 0)
        assert index.shape == (8, 7, 1) and sign.shape == (6, 7, 8)
        for m, l, be in itertools.product(range(6), range(7), range(8)):
            one = conjugate_frame(spec, l + 1, be, 3, masks[m], 0, 0)
            assert (index[3, l, 0], sign[m, l, be]) == one
