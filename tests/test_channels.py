"""Channel model builders, parsing, and transmission."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditqkd.channels import (
    KIND_DEPHASE,
    KIND_INTERCEPT,
    KIND_UNITARY,
    ChannelModel,
    InterceptResend,
    RandomDephase,
    UnitaryTerm,
    as_probability,
    custom,
    full_dephase,
    identity,
    parse_channel_spec,
    partial_intercept,
    resolve_channel,
    shift_noise,
    z_flip,
)
from quditqkd.field import field_spec
from quditqkd.qstates import DiagonalPhase, SparseKet

from reference import apply_error, apply_term, transmit


class TestAsProbability:
    def test_decimal_floats_parse_exactly(self):
        assert as_probability(0.3) == Fraction(3, 10)
        assert as_probability(0.1) == Fraction(1, 10)

    def test_strings_and_rationals(self):
        assert as_probability("0.25") == Fraction(1, 4)
        assert as_probability("3/7") == Fraction(3, 7)
        assert as_probability(Fraction(1, 3)) == Fraction(1, 3)
        assert as_probability(1) == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            as_probability(1.5)
        with pytest.raises(ValueError):
            as_probability("-0.1")
        with pytest.raises(TypeError):
            as_probability(None)


class TestBuilders:
    def test_identity_single_term(self):
        spec = field_spec(2)
        model = identity(spec)
        assert model.terms == ((Fraction(1), UnitaryTerm(0, 0)),)

    def test_z_flip_terms(self):
        spec = field_spec(2)
        model = z_flip(spec, 0.3)
        z = DiagonalPhase.norm_mask(spec).mask
        assert z == 0b1110
        assert model.terms == (
            (Fraction(7, 10), UnitaryTerm(0, 0)),
            (Fraction(3, 10), UnitaryTerm(0, z)),
        )

    def test_z_flip_certain(self):
        spec = field_spec(2)
        model = z_flip(spec, 1)
        # the zero-probability identity term is dropped
        assert model.terms == ((Fraction(1), UnitaryTerm(0, 0b1110)),)

    def test_shift_noise_uniform_over_nonzero_shifts(self):
        spec = field_spec(3)
        model = shift_noise(spec, 0.2)
        assert model.terms[0] == (Fraction(4, 5), UnitaryTerm(0, 0))
        rest = model.terms[1:]
        assert [a.shift for _, a in rest] == list(range(1, 8))
        assert all(p == Fraction(1, 35) for p, _ in rest)
        assert all(a.mask == 0 for _, a in rest)

    def test_full_dephase_small_field_enumerates_masks(self):
        spec = field_spec(2)
        model = full_dephase(spec)
        assert len(model.terms) == 16
        assert {a.mask for _, a in model.terms} == set(range(16))
        assert all(p == Fraction(1, 16) for p, _ in model.terms)
        assert all(a.shift == 0 for _, a in model.terms)

    def test_full_dephase_large_field_uses_random_mask_action(self):
        spec = field_spec(5)
        model = full_dephase(spec)
        assert model.terms == ((Fraction(1), RandomDephase()),)

    def test_partial_intercept(self):
        spec = field_spec(2)
        model = partial_intercept(spec, 0.4)
        assert model.terms == (
            (Fraction(3, 5), UnitaryTerm(0, 0)),
            (Fraction(2, 5), InterceptResend()),
        )
        assert model.has_intercept()
        assert not identity(spec).has_intercept()

    def test_custom_builder(self):
        spec = field_spec(2)
        model = custom(spec, [(0.9, 0, 0), (0.1, 1, 0b0110)])
        assert model.terms == (
            (Fraction(9, 10), UnitaryTerm(0, 0)),
            (Fraction(1, 10), UnitaryTerm(1, 0b0110)),
        )


class TestModelValidation:
    def test_probabilities_must_sum_to_one(self):
        spec = field_spec(2)
        with pytest.raises(ValueError):
            ChannelModel(spec, [(Fraction(1, 2), UnitaryTerm(0, 0))])

    def test_negative_probability_rejected(self):
        spec = field_spec(2)
        with pytest.raises(ValueError):
            ChannelModel(
                spec,
                [(Fraction(-1, 2), UnitaryTerm(0, 0)), (Fraction(3, 2), UnitaryTerm(1, 0))],
            )

    def test_float_probability_rejected(self):
        spec = field_spec(2)
        with pytest.raises(ValueError):
            ChannelModel(spec, [(1.0, UnitaryTerm(0, 0))])

    def test_shift_and_mask_ranges(self):
        spec = field_spec(2)
        with pytest.raises(ValueError):
            ChannelModel(spec, [(Fraction(1), UnitaryTerm(4, 0))])
        with pytest.raises(ValueError):
            ChannelModel(spec, [(Fraction(1), UnitaryTerm(0, 1 << 4))])

    def test_empty_terms_rejected(self):
        with pytest.raises(ValueError):
            ChannelModel(field_spec(2), [])

    def test_compiled_term_arrays(self):
        spec = field_spec(8)
        model = ChannelModel(
            spec,
            [
                (Fraction(1, 4), UnitaryTerm(3, (1 << 200) | 0b101)),
                (Fraction(1, 4), RandomDephase()),
                (Fraction(1, 2), InterceptResend()),
            ],
        )
        assert model.kind.tolist() == [KIND_UNITARY, KIND_DEPHASE, KIND_INTERCEPT]
        assert model.shift.tolist() == [3, 0, 0]
        assert model.sign_bits.shape == (3, 256)
        assert np.flatnonzero(model.sign_bits[0]).tolist() == [0, 2, 200]
        assert not model.sign_bits[1:].any()
        assert model.weights == (Fraction(1, 4), Fraction(1, 2))
        assert model.weight_id.tolist() == [0, 0, 1]
        assert model.weighted([3, 1]) == Fraction(5, 4)
        for arr in (model.kind, model.shift, model.sign_bits, model.weight_id):
            assert not arr.flags.writeable

    def test_cum_weights_read_only(self):
        model = identity(field_spec(2))
        with pytest.raises(ValueError):
            model.cum_weights[0] = 0.5


class TestParsing:
    def test_named_specs(self):
        spec = field_spec(2)
        assert parse_channel_spec("identity", spec).terms == identity(spec).terms
        assert parse_channel_spec("z_flip:0.3", spec).terms == z_flip(spec, 0.3).terms
        assert (
            parse_channel_spec("shift_noise:0.2", spec).terms
            == shift_noise(spec, 0.2).terms
        )
        assert (
            parse_channel_spec("full_dephase", spec).terms == full_dephase(spec).terms
        )
        assert (
            parse_channel_spec("partial_intercept:0.4", spec).terms
            == partial_intercept(spec, 0.4).terms
        )

    def test_custom_spec_string(self):
        spec = field_spec(2)
        model = parse_channel_spec("custom:[(0.9,a=0,f=0x0),(0.1,a=1,f=0x6)]", spec)
        assert model.terms == (
            (Fraction(9, 10), UnitaryTerm(0, 0)),
            (Fraction(1, 10), UnitaryTerm(1, 6)),
        )

    def test_whitespace_tolerated(self):
        spec = field_spec(2)
        model = parse_channel_spec("custom:[ (0.5, a=0, f=0), (0.5, a=1, f=6) ]", spec)
        assert len(model.terms) == 2

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            parse_channel_spec("bogus", field_spec(2))

    def test_bad_argument_rejected(self):
        for text in (
            "z_flip:2.0",
            "custom:[]",
            "custom:(0.9,a=0,f=0)",
            # the term list must be exactly comma-separated terms
            "custom:[(1/2,a=0,f=0),(1/2,a=1,f=0x6),(0.3,a=1,f=0xZZ)]",
            "custom:[(1,a=0,f=0),garbage]",
            "custom:[(1,a=0,f=0)(0,a=1,f=0)]",
            "custom:[(1,a=0,f=0),]",
        ):
            with pytest.raises(ValueError):
                parse_channel_spec(text, field_spec(2))

    def test_resolve_passthrough_and_spec_check(self):
        spec = field_spec(2)
        model = identity(spec)
        assert resolve_channel(model, spec) is model
        assert resolve_channel("identity", spec).terms == model.terms
        with pytest.raises(ValueError):
            resolve_channel(model, field_spec(3))


class TestSampling:
    def test_sample_term_index_edges(self):
        spec = field_spec(2)
        model = z_flip(spec, 0.3)
        assert model.sample_term_index(0.0) == 0
        assert model.sample_term_index(0.699) == 0
        assert model.sample_term_index(0.7) == 1
        assert model.sample_term_index(0.999999) == 1
        # u == 1.0 cannot run past the last term
        assert model.sample_term_index(1.0) == 1

    @settings(max_examples=50)
    @given(u=st.floats(0, 1, allow_nan=False))
    def test_sample_term_index_in_range(self, u):
        model = shift_noise(field_spec(2), 0.5)
        assert 0 <= model.sample_term_index(u) < len(model.terms)


class TestApplyTerm:
    def test_unitary_matches_apply_error(self):
        spec = field_spec(2)
        ket = SparseKet.pair(spec, 0, 1, 0)
        action = UnitaryTerm(2, 0b0110)
        direct = apply_error(spec.el(2), DiagonalPhase(spec, 0b0110), ket)
        assert apply_term(action, ket, 0.9, spec) == direct

    def test_intercept_collapses_to_support(self):
        spec = field_spec(2)
        ket = SparseKet.pair(spec, 1, 3, 1)
        low = apply_term(InterceptResend(), ket, 0.2, spec)
        high = apply_term(InterceptResend(), ket, 0.8, spec)
        assert low == SparseKet.single(spec, 1)
        assert high == SparseKet.single(spec, 3)

    def test_intercept_single_term_is_fixed_point(self):
        spec = field_spec(2)
        ket = SparseKet.single(spec, 2)
        assert apply_term(InterceptResend(), ket, 0.9, spec) == ket

    def test_random_dephase_flips_relative_sign_half_the_time(self):
        spec = field_spec(5)
        ket = SparseKet.pair(spec, 0, 1, 0)
        assert apply_term(RandomDephase(), ket, 0.2, spec).relative_sign() == -1
        assert apply_term(RandomDephase(), ket, 0.7, spec).relative_sign() == 1


class TestTransmit:
    def test_consumes_exactly_two_draws(self):
        """Identical rng state advance regardless of the sampled action."""
        spec = field_spec(2)
        ket = SparseKet.pair(spec, 0, 1, 0)
        for text in ("identity", "partial_intercept:0.4", "z_flip:0.3"):
            model = parse_channel_spec(text, spec)
            rng = np.random.default_rng(123)
            transmit(model, ket, rng)
            probe = rng.random()
            rng2 = np.random.default_rng(123)
            rng2.random(2)
            assert probe == rng2.random()

    def test_identity_returns_input(self):
        spec = field_spec(2)
        ket = SparseKet.pair(spec, 0, 3, 1)
        rng = np.random.default_rng(0)
        assert transmit(identity(spec), ket, rng) == ket

    def test_spec_mismatch_rejected(self):
        ket = SparseKet.single(field_spec(3), 0)
        with pytest.raises(ValueError):
            transmit(identity(field_spec(2)), ket, np.random.default_rng(0))

    def test_z_flip_frequency(self):
        """Sign-flip rate on a norm-split pair within 4 sigma of q."""
        spec = field_spec(2)
        model = z_flip(spec, 0.3)
        # indices 0 and 1: norm mask flips index 1 only
        ket = SparseKet.pair(spec, 0, 1, 0)
        rng = np.random.default_rng(42)
        trials = 20000
        flipped = sum(
            transmit(model, ket, rng).relative_sign() == -1 for _ in range(trials)
        )
        sigma = (0.3 * 0.7 / trials) ** 0.5
        assert abs(flipped / trials - 0.3) <= 4 * sigma
