"""Closed-form channel analytics: outcome tables and derived observables."""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest

import quditqkd.analysis as analysis
from quditqkd.analysis import (
    BellDistribution,
    ErrorMatrix,
    _distinct_masks,
    analysis_report,
    bell_distribution,
    check_ed_condition,
    error_matrix,
    intercept_distribution,
    predict_observables,
)
from quditqkd.channels import (
    UnsupportedModelError,
    custom,
    full_dephase,
    identity,
    parse_channel_spec,
    partial_intercept,
    shift_noise,
    z_flip,
)
from quditqkd.field import field_spec

from oracles import exact_distill_lhs, observed_rates, random_exact_distribution
from reference import (
    DiagonalPhase,
    FieldElement,
    conjugate_bell_mask,
    reference_distinct_masks,
)


class TestBellDistribution:
    def test_identity_concentrates_on_reference(self):
        for n in (2, 3, 4):
            d = bell_distribution(identity(field_spec(n)))
            assert d.e == {(0, 0): Fraction(1)}

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_z_flip_table(self, n):
        spec = field_spec(n)
        q = Fraction(3, 10)
        d = bell_distribution(z_flip(spec, 0.3))
        # the norm mask dephases a fraction 2/N of the relabellings
        moved = 2 * q / spec.order
        assert d.get(0, 1) == moved
        assert d.get(0, 0) == 1 - moved
        assert d.total() == 1
        d.validate()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_shift_noise_table(self, n):
        spec = field_spec(n)
        eta = Fraction(1, 5)
        d = bell_distribution(shift_noise(spec, eta))
        assert d.get(0, 0) == 1 - eta
        per = eta / (spec.order - 1)
        for a in range(1, spec.order):
            assert d.get(a, 0) == per
            assert d.get(a, 1) == 0
        d.validate()

    def test_full_dephase_both_realisations(self):
        # enumerated masks (n = 2) and the RandomDephase action (n = 5)
        # collapse to the same two-outcome table
        for n in (2, 5):
            d = bell_distribution(full_dephase(field_spec(n)))
            assert d.get(0, 0) == Fraction(1, 2)
            assert d.get(0, 1) == Fraction(1, 2)
            assert d.total() == 1

    def test_intercept_rejected(self):
        with pytest.raises(UnsupportedModelError):
            bell_distribution(partial_intercept(field_spec(2), 0.4))

    def test_validate_catches_bad_tables(self):
        spec = field_spec(2)
        with pytest.raises(ValueError):
            BellDistribution(spec, {(0, 0): Fraction(1, 2)}).validate()
        with pytest.raises(ValueError):
            BellDistribution(
                spec, {(0, 0): Fraction(3, 2), (1, 0): Fraction(-1, 2)}
            ).validate()
        with pytest.raises(ValueError):
            BellDistribution(spec, {(0, 2): Fraction(1)}).validate()
        # per-index sum rule: nonzero indices must carry equal mass
        with pytest.raises(ValueError):
            BellDistribution(
                spec,
                {(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 2)},
            ).validate()

    def test_validate_rejects_nan(self):
        # a table is exact, so a NaN entry fails at construction
        spec = field_spec(2)
        with pytest.raises(ValueError, match=r"^probability at \(0, 0\) is not exact: nan$"):
            BellDistribution(spec, {(0, 0): float("nan")})


def _per_term_bell(model):
    """Reference table: one scalar conjugate_bell_mask call per (term, lam, beta)."""
    spec = model.spec
    F = FieldElement
    N = spec.order
    w_pair = Fraction(1, N * (N - 1))
    e = {}
    for p, action in model.terms:
        phase = DiagonalPhase(spec, action.mask)
        for lam in range(1, N):
            for beta in range(N):
                out = conjugate_bell_mask(
                    F(spec, lam), F(spec, beta), F(spec, action.shift), phase, F(spec, 0), 0
                )
                key = (out.a.value, out.ell)
                e[key] = e.get(key, Fraction(0)) + p * w_pair
    return e


class TestBellDistributionDifferential:
    """The integer flip counts against the per-term conjugation rule."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_custom_channels(self, n):
        spec = field_spec(n)
        rng = np.random.default_rng(40 + n)
        for _ in range(6):
            terms = int(rng.integers(1, 7))
            # few distinct weights, shifts and masks so that terms share them
            weights = rng.integers(1, 4, terms)
            masks = rng.integers(0, 1 << spec.order, 3)
            triples = [
                (
                    Fraction(int(wt), int(weights.sum())),
                    int(rng.integers(spec.order)),
                    int(rng.choice(masks)),
                )
                for wt in weights
            ]
            model = custom(spec, triples)
            assert bell_distribution(model).e == _per_term_bell(model)

    @pytest.mark.parametrize("n", [2, 3])
    def test_full_dephase_enumeration(self, n):
        model = full_dephase(field_spec(n))
        assert bell_distribution(model).e == _per_term_bell(model)


def _dedupe_model(name: str):
    n, _, channel = name.partition("/")
    spec = field_spec(int(n))
    if channel == "custom-repeats":
        # 40 terms over 5 masks, so many terms share a mask
        rng = np.random.default_rng(17)
        masks = rng.integers(0, 1 << spec.order, 5)
        triples = [
            (Fraction(1, 40), int(rng.integers(spec.order)), int(rng.choice(masks)))
            for _ in range(40)
        ]
        return custom(spec, triples)
    if channel == "custom-words":
        # masks that differ only past the first 64-bit word
        masks = [1 << 100, (1 << 100) | 1, 1, 1 << 100, 0, (1 << 127) | (1 << 63)]
        return custom(spec, [(Fraction(1, 6), a, m) for a, m in enumerate(masks)])
    return parse_channel_spec(channel, spec)


_DEDUPE_MODELS = [
    f"{n}/{ch}"
    for n in range(2, 9)
    for ch in ("identity", "z_flip:0.3", "shift_noise:0.2", "full_dephase")
] + ["3/custom-repeats", "7/custom-words"]


class TestPackedMaskDedupe:
    """The packed-word dedupe against ``np.unique`` over the bit rows."""

    @pytest.mark.parametrize("name", _DEDUPE_MODELS)
    def test_same_partition_and_report(self, name, monkeypatch):
        model = _dedupe_model(name)
        masks, mask_id = _distinct_masks(model.sign_bits)
        ref = reference_distinct_masks(model.sign_bits)
        # each term keeps its own row and there are as many rows as distinct masks
        assert np.array_equal(masks[mask_id], model.sign_bits)
        assert len(masks) == len(ref[0])
        d = bell_distribution(model)
        report = analysis_report(model)
        monkeypatch.setattr(analysis, "_distinct_masks", lambda sign_bits: ref)
        assert bell_distribution(model) == d
        assert analysis_report(model) == report


class TestPredictObservables:
    def test_z_flip_rates(self):
        d = bell_distribution(z_flip(field_spec(2), 0.3))
        pred = predict_observables(d)
        # all relabelled frames keep index 0, so e_c stays 1
        assert pred.e_c == 1
        assert pred.e_b == Fraction(3, 20)
        assert pred.consistent

    def test_shift_noise_rates(self):
        spec = field_spec(3)
        d = bell_distribution(shift_noise(spec, 0.2))
        pred = predict_observables(d)
        # kept mass: the untouched rounds plus the single shift landing on 1
        assert pred.e_c == Fraction(4, 5) + Fraction(1, 35)
        assert pred.e_b == 0
        assert pred.consistent

    def test_matches_oracle_rates(self):
        for n in (2, 3):
            spec = field_spec(n)
            for model in (z_flip(spec, 0.3), shift_noise(spec, 0.2)):
                d = bell_distribution(model)
                pred = predict_observables(d)
                e_b, e_c = observed_rates(d.e, spec.order)
                assert pred.e_b == e_b
                assert pred.e_c == e_c

    def test_e_b_none_when_all_mass_escapes(self):
        spec = field_spec(3)
        d = BellDistribution(
            spec, {(a, 0): Fraction(1, 6) for a in range(2, spec.order)}
        )
        pred = predict_observables(d)
        assert pred.e_b is None
        assert pred.e_c == 0


class TestErrorMatrix:
    def test_z_flip_pin(self):
        d = bell_distribution(z_flip(field_spec(2), 0.3))
        m = error_matrix(d)
        assert m.astuple() == (Fraction(17, 20), 0, 0, Fraction(3, 20))

    def test_iteration_and_floats(self):
        m = ErrorMatrix(Fraction(17, 20), Fraction(0), Fraction(0), Fraction(3, 20))
        assert list(m) == [Fraction(17, 20), 0, 0, Fraction(3, 20)]
        assert m.as_floats().astuple() == (0.85, 0.0, 0.0, 0.15)

    def test_validation(self):
        with pytest.raises(ValueError):
            ErrorMatrix(0.5, 0.5, 0.5, -0.5)
        with pytest.raises(ValueError):
            ErrorMatrix(0.5, 0.1, 0.1, 0.1)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            ErrorMatrix(float("nan"), 0.0, 0.0, 1.0)

    def test_undefined_when_no_kept_mass(self):
        spec = field_spec(3)
        d = BellDistribution(
            spec, {(a, 0): Fraction(1, 6) for a in range(2, spec.order)}
        )
        with pytest.raises(ValueError):
            error_matrix(d)


class TestEdCondition:
    def test_z_flip_passes(self):
        d = bell_distribution(z_flip(field_spec(2), 0.3))
        verdict = check_ed_condition(d)
        assert verdict.passes
        assert verdict.lhs == Fraction(3, 20)
        assert verdict.e00_exceeds_half

    def test_full_dephase_boundary_fails_strictly(self):
        d = bell_distribution(full_dephase(field_spec(2)))
        verdict = check_ed_condition(d)
        assert not verdict.passes
        assert verdict.lhs == Fraction(1, 2)
        assert not verdict.e00_exceeds_half

    def test_lhs_matches_oracle(self):
        rng = np.random.default_rng(5)
        for n in (2, 3):
            spec = field_spec(n)
            for _ in range(200):
                num, den = random_exact_distribution(rng, spec.order)
                e = {k: Fraction(v, den) for k, v in num.items()}
                d = BellDistribution(spec, e)
                assert check_ed_condition(d).lhs == exact_distill_lhs(e, spec.order)


class TestInterceptDistribution:
    def test_full_intercept_pin(self):
        e_b, e_c = intercept_distribution(1, field_spec(2))
        assert (e_b, e_c) == (Fraction(1, 2), 1)

    def test_partial_scales_linearly(self):
        e_b, e_c = intercept_distribution(0.4, field_spec(2))
        assert (e_b, e_c) == (Fraction(1, 5), 1)
        for n in (3, 4, 5, 6, 7, 8):
            e_b, e_c = intercept_distribution(0.4, field_spec(n))
            assert (e_b, e_c) == (Fraction(1, 5), 1)

    def test_zero_eta_is_noiseless(self):
        assert intercept_distribution(0, field_spec(2)) == (0, 1)


class TestAnalysisReport:
    def test_unitary_report_keys_and_values(self):
        report = analysis_report(z_flip(field_spec(2), 0.3))
        assert report["kind"] == "unitary"
        assert report["n"] == 2
        assert report["modulus"] == "0x7"
        assert report["outcome_table"] == {"0,0": 0.85, "0,1": 0.15}
        assert report["e_b"] == 0.15
        assert report["e_c"] == 1.0
        assert report["consistent"]
        assert report["distill_pass"]
        assert report["identity_outcome_dominates"]
        assert report["continuation_pass"]
        assert report["error_matrix"] == {
            "p_i": 0.85, "p_x": 0.0, "p_y": 0.0, "p_z": 0.15,
        }
        json.dumps(report)

    def test_intercept_report(self):
        report = analysis_report(partial_intercept(field_spec(2), 0.4))
        assert report["kind"] == "intercept"
        assert report["e_b"] == 0.2
        assert report["e_c"] == 1.0
        assert report["continuation_pass"]
        json.dumps(report)

    def test_mixed_intercept_rejected(self):
        from quditqkd.channels import ChannelModel, InterceptResend, UnitaryTerm

        spec = field_spec(2)
        model = ChannelModel(
            spec,
            [
                (Fraction(1, 2), UnitaryTerm(1, 0)),
                (Fraction(1, 2), InterceptResend()),
            ],
        )
        with pytest.raises(UnsupportedModelError):
            analysis_report(model)


class TestEdImpliesPm:
    def test_random_distributions(self):
        """On exact random tables the distillation condition implies the
        continuation condition (small-scale version of the big sweep)."""
        from quditqkd.protocol import check_pm_condition

        rng = np.random.default_rng(17)
        for n in (2, 3, 4):
            spec = field_spec(n)
            for _ in range(500):
                num, den = random_exact_distribution(rng, spec.order)
                e = {k: Fraction(v, den) for k, v in num.items()}
                d = BellDistribution(spec, e)
                d.validate()
                if not check_ed_condition(d).passes:
                    continue
                e_b, e_c = observed_rates(e, spec.order)
                if e_b is None:
                    continue
                assert check_pm_condition(e_b, e_c, n)
