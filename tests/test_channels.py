"""Channel model builders, parsing, and transmission."""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditqkd.channels import (
    _GUIDE_GROWTH,
    _GUIDE_STEPS,
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

from reference import DiagonalPhase, FieldElement, SparseKet, apply_error, apply_term, transmit
from reference import reference_sample_term_index


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
        z = (1 << spec.order) - 2
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


def _clustered(spec):
    """200 terms of 10^-6 below one large term: their bounds share a bucket."""
    tiny = Fraction(1, 10**6)
    return custom(spec, [(tiny, 0, 0)] * 200 + [(1 - 200 * tiny, 1, 0)])


def _top_clustered(spec):
    """One large term below 200 terms of 10^-6, which cluster under 1.0."""
    tiny = Fraction(1, 10**6)
    return custom(spec, [(1 - 200 * tiny, 1, 0)] + [(tiny, 0, 0)] * 200)


def _float_zero(spec):
    """Two leading terms whose float weights are 0.0, so two bounds are 0.0."""
    speck = Fraction(1, 2**1100)
    half = Fraction(1, 2)
    return custom(spec, [(speck, 0, 0), (speck, 1, 0), (half - 2 * speck, 2, 0), (half, 3, 0)])


_SAMPLED_CHANNELS = (
    "identity", "z_flip:0.3", "shift_noise:0.2", "full_dephase", "partial_intercept:0.4",
)
_SAMPLED_MODELS = [f"{n}/{ch}" for n in range(2, 9) for ch in _SAMPLED_CHANNELS] + [
    f"{n}/{build.__name__}" for n in (2, 8) for build in (_clustered, _top_clustered)
] + ["2/_float_zero"]


@functools.cache
def _sampled_model(name: str) -> ChannelModel:
    n, _, channel = name.partition("/")
    spec = field_spec(int(n))
    builder = {f.__name__: f for f in (_clustered, _top_clustered, _float_zero)}.get(channel)
    return builder(spec) if builder else parse_channel_spec(channel, spec)


def _term_probes(model: ChannelModel) -> np.ndarray:
    """Every bound, its float neighbours on both sides, 0, 1 - 2^-53 and 1."""
    cum = model.cum_weights
    probes = np.concatenate(
        [cum, np.nextafter(cum, 0), np.nextafter(cum, 2), [0.0, 1 - 2.0**-53, 1.0]]
    )
    return probes[probes <= 1]


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

    @settings(max_examples=200)
    @given(u=st.floats(0, 1, allow_nan=False) | st.floats())
    def test_sample_term_index_in_range(self, u):
        for name in ("2/shift_noise:0.2", "3/full_dephase", "8/shift_noise:0.2", "2/_clustered"):
            model = _sampled_model(name)
            if not abs(u) * model._buckets < 2.0**63:
                # NaN, an infinity or a u whose bucket overflows int64
                with pytest.raises(ValueError):
                    model.sample_term_index(u)
                continue
            index = model.sample_term_index(u)
            assert index == reference_sample_term_index(model, u)
            assert 0 <= index < len(model.terms)

    @pytest.mark.parametrize("name", _SAMPLED_MODELS)
    def test_guide_search_matches_bisection(self, name):
        model = _sampled_model(name)
        probes = _term_probes(model)
        assert np.array_equal(
            model.sample_term_index(probes), reference_sample_term_index(model, probes)
        )
        # strided, as transmit passes its term column
        draws = np.random.default_rng(71).random((1 << 17, 2))[:, 0]
        assert np.array_equal(
            model.sample_term_index(draws), reference_sample_term_index(model, draws)
        )

    @pytest.mark.parametrize("name", _SAMPLED_MODELS)
    def test_scalar_search_returns_numpy_index(self, name):
        model = _sampled_model(name)
        probes = _term_probes(model)
        for u in probes[:: max(1, len(probes) // 400)]:
            index = model.sample_term_index(float(u))
            assert isinstance(index, np.integer)
            assert index == reference_sample_term_index(model, u)
            assert model.terms[index] is model.terms[int(index)]

    @pytest.mark.parametrize(
        "name", ["2/z_flip:0.3", "4/full_dephase", "2/_clustered", "2/_float_zero"]
    )
    @pytest.mark.parametrize("u", [-0.5, -0.0, 1.5, -1e6, 1e6])
    def test_finite_uniform_outside_unit_interval(self, name, u):
        model = _sampled_model(name)
        assert model.sample_term_index(u) == reference_sample_term_index(model, u)
        batch = np.array([0.5, u, 0.25])
        assert np.array_equal(
            model.sample_term_index(batch), reference_sample_term_index(model, batch)
        )

    @pytest.mark.parametrize("name", ["2/z_flip:0.3", "4/full_dephase", "2/_clustered"])
    @pytest.mark.parametrize("u", [float("nan"), -np.inf, np.inf, 1e300, -1e300])
    def test_unbucketable_uniform_raises(self, name, u):
        model = _sampled_model(name)
        with pytest.raises(ValueError):
            model.sample_term_index(u)
        with pytest.raises(ValueError):
            model.sample_term_index(np.array([0.5, u, 0.25]))

    @pytest.mark.parametrize("name", _SAMPLED_MODELS)
    def test_guide_steps_capped(self, name):
        model = _sampled_model(name)
        assert model._steps <= _GUIDE_STEPS
        assert not model._guide.flags.writeable and not model._bounds.flags.writeable

    @pytest.mark.parametrize("name", ["2/_clustered", "8/_clustered", "8/_top_clustered"])
    def test_clustered_bounds_take_bisection(self, name):
        model = _sampled_model(name)
        assert model._dense.any()
        assert model._buckets == _GUIDE_GROWTH << (len(model.terms) - 1).bit_length() + 1


class TestApplyTerm:
    def test_unitary_matches_apply_error(self):
        spec = field_spec(2)
        ket = SparseKet.pair(spec, 0, 1, 0)
        action = UnitaryTerm(2, 0b0110)
        direct = apply_error(FieldElement(spec, 2), DiagonalPhase(spec, 0b0110), ket)
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
