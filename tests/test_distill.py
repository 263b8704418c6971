"""Pumping recursion, majority blocks, parameter search, and the pipeline."""

from __future__ import annotations

import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quditqkd.distill as distill
from quditqkd.analysis import ErrorMatrix, bell_distribution, error_matrix
from quditqkd.channels import resolve_channel
from quditqkd.distill import (
    DistillBudget,
    DistillParams,
    InsufficientKeyError,
    LabeledKey,
    block_parities,
    check_secure_condition,
    draw_stage_seeds,
    ep_recursion,
    expected_stage_lengths,
    majority_stage,
    pair_stage,
    sample_labeled_key,
    select_params,
    simulate_distillation,
)
from quditqkd.field import field_spec

from oracles import iterate_pumping, majority_fail_exact, parity_fail_exact
from reference import pair_stage_permutation, reference_pair_stage, toeplitz_compress

REF = ErrorMatrix(0.75, 0.05, 0.05, 0.15)


def random_matrix(rng) -> ErrorMatrix:
    w = rng.random(4)
    w /= w.sum()
    return ErrorMatrix(*w)


class TestEpRecursion:
    def test_k0_is_identity(self):
        out = ep_recursion(REF, 0)
        assert out.astuple() == pytest.approx(REF.astuple(), abs=1e-15)

    def test_k1_pin(self):
        out = ep_recursion(REF, 1)
        exact = (
            Fraction(113, 136), Fraction(15, 136), Fraction(3, 136), Fraction(5, 136),
        )
        for got, want in zip(out, exact):
            assert got == pytest.approx(float(want), abs=1e-12)

    def test_closed_form_matches_iterated_stages(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            m = random_matrix(rng)
            exact = tuple(Fraction(v).limit_denominator(10**6) for v in m.astuple())
            exact = tuple(v / sum(exact) for v in exact)
            for k in range(7):
                want = iterate_pumping(exact, k)
                got = ep_recursion(ErrorMatrix(*(float(v) for v in exact)), k)
                for g, w in zip(got, want):
                    assert g == pytest.approx(float(w), abs=1e-9)

    @settings(max_examples=150)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(0, 12),
    )
    def test_identity_dominance_is_preserved(self, seed, k):
        rng = np.random.default_rng(seed)
        w = rng.random(4)
        w[0] += 1.05  # force p_i > 1/2 before normalising
        w /= w.sum()
        m = ErrorMatrix(*w)
        if m.p_i <= 0.5:
            return
        # exactly > 1/2 at every finite depth; float underflow of the
        # subordinate coefficients can collapse onto the boundary
        assert ep_recursion(m, k).p_i >= 0.5

    def test_identity_dominance_strict_at_moderate_depth(self):
        for k in range(8):
            assert ep_recursion(REF, k).p_i > 0.5

    def test_tuple_input_accepted(self):
        assert ep_recursion((0.75, 0.05, 0.05, 0.15), 1) == ep_recursion(REF, 1)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            ep_recursion(REF, -1)

    def test_large_depth_limit(self):
        # pumping drives the z and y mass to zero; the i/x split tends to
        # (1/2, 1/2), leaving the x purge to the majority stage
        out = ep_recursion(REF, 40)
        assert out.p_i == pytest.approx(0.5, abs=1e-12)
        assert out.p_x == pytest.approx(0.5, abs=1e-12)
        assert out.p_y + out.p_z == pytest.approx(0.0, abs=1e-30)


class TestMajorityStage:
    def test_pin(self):
        x_fail, z_fail = majority_stage(ErrorMatrix(0.899, 0.1, 0, 0.001), 5)
        assert x_fail == pytest.approx(0.00856, abs=1e-12)
        assert z_fail == pytest.approx(0.004980039960016003, abs=1e-15)

    def test_exact_oracle_small_r_with_y_mixing(self):
        m = ErrorMatrix(0.8, 0.1, 0.06, 0.04)
        for r in (1, 3, 5, 7, 9):
            x_fail, z_fail = majority_stage(m, r)
            want_x = majority_fail_exact(Fraction(16, 100), r)
            want_z = parity_fail_exact(Fraction(10, 100), r)
            assert x_fail == pytest.approx(float(want_x), abs=1e-12)
            assert z_fail == pytest.approx(float(want_z), abs=1e-12)

    def test_r1_passthrough(self):
        x_fail, z_fail = majority_stage(ErrorMatrix(0.8, 0.1, 0.06, 0.04), 1)
        assert x_fail == pytest.approx(0.16, abs=1e-15)
        assert z_fail == pytest.approx(0.10, abs=1e-15)

    def test_large_r_log_space_matches_exact(self):
        m = ErrorMatrix(0.9, 0.08, 0.0, 0.02)
        x_fail, _ = majority_stage(m, 201)
        want = majority_fail_exact(Fraction(8, 100), 201)
        assert x_fail == pytest.approx(float(want), rel=1e-10)

    def test_edge_rates(self):
        assert majority_stage(ErrorMatrix(1.0, 0.0, 0.0, 0.0), 7) == (0.0, 0.0)
        x_fail, _ = majority_stage(ErrorMatrix(0.0, 1.0, 0.0, 0.0), 7)
        assert x_fail == 1.0

    def test_even_r_rejected(self):
        with pytest.raises(ValueError):
            majority_stage(REF, 4)
        with pytest.raises(ValueError):
            majority_stage(REF, 0)


class TestSecureCondition:
    def test_threshold_at_equal_offdiagonal(self):
        # with p_x = p_y = p_z = p the boundary sits at (5 - sqrt(5))/20
        root = (5 - 5 ** 0.5) / 20
        below = root - 1e-9
        above = root + 1e-9
        assert check_secure_condition(
            ErrorMatrix(1 - 3 * below, below, below, below)
        )
        assert not check_secure_condition(
            ErrorMatrix(1 - 3 * above, above, above, above)
        )

    def test_reference_matrix_passes(self):
        assert check_secure_condition(REF)


class TestSelectParams:
    def test_reference_pin(self):
        out = select_params(REF)
        assert out.feasible
        assert (out.params.k, out.params.r) == (3, 327)
        assert out.x_fail == pytest.approx(7.0627e-11, rel=1e-3)
        assert out.z_fail == pytest.approx(0.00496481, rel=1e-5)
        assert out.meets_target
        assert out.trail[-1].status == "feasible"
        assert all(t.status != "feasible" for t in out.trail[:-1])

    def test_pure_z_noise_pin(self):
        out = select_params(ErrorMatrix(0.85, 0.0, 0.0, 0.15))
        assert out.feasible
        assert (out.params.k, out.params.r) == (3, 5315)
        assert out.x_fail == 0.0
        assert out.z_fail == pytest.approx(0.00497408, rel=1e-5)

    def test_perfect_matrix_is_trivial(self):
        out = select_params(ErrorMatrix(1.0, 0.0, 0.0, 0.0))
        assert out.feasible
        assert out.params.r == 1
        assert out.trail[-1].status == "trivial"
        assert out.x_fail == 0.0 and out.z_fail == 0.0

    def test_symmetric_noise_never_converges(self):
        # p_i = p_x keeps the x rate pinned at 1/2 for every depth
        out = select_params(ErrorMatrix(0.3, 0.3, 0.2, 0.2), DistillBudget(k_max=8))
        assert not out.feasible
        assert out.params is None
        assert len(out.trail) == 9
        assert {t.status for t in out.trail} == {"x-rate-too-high"}

    def test_meets_target_consistency(self):
        out = select_params(REF)
        assert out.meets_target == (out.x_fail + out.z_fail <= out.budget.css_target)

    def test_json_trail(self):
        import json

        blob = json.dumps(select_params(REF).to_json_dict())
        assert '"feasible": true' in blob

    def test_cond2_never_decides(self):
        """cond1 implies cond2 in exact arithmetic, so "cond2-failed" does not occur."""
        rng = np.random.default_rng(20)
        budgets = [
            DistillBudget(margin=margin, **kw)
            for kw in (
                {},
                dict(z_budget=0.001, css_target=0.002),
                dict(z_budget=0.049, css_target=0.05, r_max=99),
            )
            for margin in np.logspace(-3, 2, 6)
        ]
        decided = Counter()
        for _ in range(60):
            rest = rng.dirichlet(np.full(3, rng.choice([0.2, 1.0, 5.0])))
            p_i = rng.uniform(0.4, 1.0)
            m = ErrorMatrix(p_i, *(rest * (1 - p_i)))
            for budget in budgets:
                decided.update(t.status for t in select_params(m, budget).trail)
        assert decided["cond2-failed"] == 0
        assert decided["feasible"] > 100 and decided["cond1-failed"] > 100

    def test_subnormal_z_rate_caps_r(self):
        # z' underflows to a subnormal at deep k, where z_budget / z' is inf
        m = ErrorMatrix(0.0035, 0.8002, 2.97e-11, 0.1963)
        budget = DistillBudget(z_budget=0.049, css_target=0.05, r_max=99, margin=100)
        out = select_params(m, budget)
        assert not out.feasible
        assert len(out.trail) == budget.k_max + 1

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            DistillBudget(r_max=10)
        with pytest.raises(ValueError):
            DistillBudget(z_budget=0.02, css_target=0.01)
        with pytest.raises(ValueError):
            DistillBudget(margin=0)


class TestLabeledKey:
    def test_bob_bits_xor(self):
        key = LabeledKey(
            np.array([0, 1, 1, 0], np.uint8),
            np.array([0, 0, 1, 1], np.uint8),
            np.array([1, 0, 1, 0], np.uint8),
        )
        assert np.array_equal(key.bob_bits, np.array([1, 1, 0, 0], np.uint8))
        assert len(key) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            LabeledKey(np.zeros(3, np.uint8), np.zeros(2, np.uint8), np.zeros(3, np.uint8))
        with pytest.raises(ValueError):
            LabeledKey(np.array([2]), np.array([0]), np.array([0]))
        for bad in (
            np.array([-1], np.int8),
            np.array([-1]),
            np.array([0.5]),
            np.array([np.nan]),
            np.array([0, 1, -1], np.int64),
        ):
            others = np.zeros(len(bad), np.uint8)
            for fields in ((bad, others, others), (others, bad, others), (others, others, bad)):
                with pytest.raises(ValueError):
                    LabeledKey(*fields)
        with pytest.raises(ValueError):
            LabeledKey(np.array([-1], np.int8), np.array([0.5]), np.zeros(1, np.uint8))
        for good in (np.array([0, 1], bool), np.array([0, 1]), np.array([0.0, 1.0])):
            assert len(LabeledKey(good, good, good)) == 2

    def test_sample_frequencies(self):
        rng = np.random.default_rng(31)
        count = 40000
        key = sample_labeled_key(REF, count, rng)
        tallies = {
            (0, 0): float(REF.p_i),
            (1, 0): float(REF.p_x),
            (1, 1): float(REF.p_y),
            (0, 1): float(REF.p_z),
        }
        for (xb, zb), p in tallies.items():
            got = int(np.count_nonzero((key.x == xb) & (key.z == zb)))
            sigma = (p * (1 - p) * count) ** 0.5
            assert abs(got - p * count) <= 4 * sigma
        ones = int(key.bits.sum())
        assert abs(ones - count / 2) <= 4 * (count / 4) ** 0.5

    def test_sample_deterministic(self):
        a = sample_labeled_key(REF, 100, np.random.default_rng(7))
        b = sample_labeled_key(REF, 100, np.random.default_rng(7))
        assert np.array_equal(a.bits, b.bits)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.z, b.z)


class TestPipeline:
    def test_short_key_error_message(self):
        key = sample_labeled_key(REF, 10, np.random.default_rng(0))
        with pytest.raises(InsufficientKeyError) as err:
            simulate_distillation(key, DistillParams(2, 3), np.random.default_rng(0))
        assert "need at least 2**k * r = 12 labeled bits, got 10" in str(err.value)

    def test_k0_r1_is_passthrough(self):
        key = sample_labeled_key(REF, 64, np.random.default_rng(1))
        report = simulate_distillation(key, DistillParams(0, 1), np.random.default_rng(2))
        assert np.array_equal(report.alice_out, key.bits)
        assert np.array_equal(report.bob_out, key.bob_bits)
        assert np.array_equal(report.out_z, key.z)
        assert report.survivor_count == 64
        assert report.n_blocks == 64
        assert report.stages == ()

    def test_deterministic_given_rng(self):
        key = sample_labeled_key(REF, 4096, np.random.default_rng(3))
        a = simulate_distillation(key, DistillParams(2, 5), np.random.default_rng(9))
        b = simulate_distillation(key, DistillParams(2, 5), np.random.default_rng(9))
        assert np.array_equal(a.alice_out, b.alice_out)
        assert a.stages == b.stages

    def test_pairing_consumes_k_seed_draws_only(self):
        rng = np.random.default_rng(13)
        probe = np.random.default_rng(13)
        seeds = draw_stage_seeds(3, rng)
        assert len(seeds) == 3
        probe.integers(0, 1 << 63, size=3, dtype=np.uint64)
        assert rng.random() == probe.random()

    def test_k0_draws_nothing(self):
        rng = np.random.default_rng(17)
        probe = np.random.default_rng(17)
        assert len(draw_stage_seeds(0, rng)) == 0
        assert rng.random() == probe.random()

    def test_survivor_labels_track_recursion(self):
        """Stage survivor tallies within 3 sigma of the closed form."""
        count = 200000
        key = sample_labeled_key(REF, count, np.random.default_rng(5))
        params = DistillParams(2, 1)
        report = simulate_distillation(
            key, params, np.random.default_rng(6), matrix=REF
        )
        predicted = ep_recursion(REF, 2)
        survivors = report.survivor_count
        tallies = report.survivor_tallies
        probs = {
            (0, 0): float(predicted.p_i),
            (1, 0): float(predicted.p_x),
            (1, 1): float(predicted.p_y),
            (0, 1): float(predicted.p_z),
        }
        for label, p in probs.items():
            got = tallies.get(label, 0)
            sigma = max((p * (1 - p) * survivors) ** 0.5, 1.0)
            assert abs(got - p * survivors) <= 3 * sigma
        # expected lengths recorded and close to the realised counts
        assert report.expected_lengths is not None
        assert len(report.expected_lengths) == 3
        assert report.expected_lengths[0] == count
        assert survivors == pytest.approx(report.expected_lengths[-1], rel=0.05)

    def test_expected_stage_lengths_manual(self):
        m = ErrorMatrix(0.9, 0.0, 0.0, 0.1)
        lengths = expected_stage_lengths(m, 2, 1000)
        # stage 0 survival: (0.9^2 + 0.1^2)/2 per pair
        assert lengths[0] == 1000
        assert lengths[1] == pytest.approx(1000 / 2 * 0.82)
        m1 = ep_recursion(m, 1)
        surv = float(m1.p_i + m1.p_x) ** 2 + float(m1.p_y + m1.p_z) ** 2
        assert lengths[2] == pytest.approx(lengths[1] / 2 * surv)

    def test_block_semantics(self):
        bits = np.array([1, 0, 1, 0, 1, 1, 0], np.uint8)
        assert np.array_equal(block_parities(bits, 3), np.array([0, 0], np.uint8))
        assert np.array_equal(block_parities(bits, 7), np.array([0], np.uint8))
        assert len(block_parities(bits, 9)) == 0

    def test_disagreements_are_z_block_parities(self):
        key = sample_labeled_key(ErrorMatrix(0.9, 0.0, 0.0, 0.1), 999, np.random.default_rng(8))
        report = simulate_distillation(key, DistillParams(0, 3), np.random.default_rng(0))
        assert report.disagreement_count == int(report.out_z.sum())
        assert np.array_equal(report.bob_out, report.alice_out ^ report.out_z)
        assert report.disagreement_rate == report.disagreement_count / report.n_blocks

    def test_report_json(self):
        import json

        key = sample_labeled_key(REF, 256, np.random.default_rng(10))
        report = simulate_distillation(
            key, DistillParams(1, 3), np.random.default_rng(11), matrix=REF
        )
        blob = json.loads(json.dumps(report.to_json_dict()))
        assert blob["k"] == 1 and blob["r"] == 3
        assert blob["survivors"] == report.survivor_count

    def test_pair_stage_permutation_is_seeded_shuffle(self):
        a = pair_stage_permutation(100, 42)
        b = pair_stage_permutation(100, 42)
        assert np.array_equal(a, b)
        assert sorted(a.tolist()) == list(range(100))


def counter_tallies(x, z) -> dict[tuple[int, int], int]:
    """Reference tally of (x, z) label pairs, one label at a time."""
    return dict(Counter(zip(np.asarray(x).tolist(), np.asarray(z).tolist())))


class TestTallies:
    @pytest.mark.parametrize("length", [0, 1, 2, 7, 5000])
    def test_label_tallies_match_counter(self, length):
        rng = np.random.default_rng(length)
        x = rng.integers(0, 2, length).astype(np.uint8)
        z = rng.integers(0, 2, length).astype(np.uint8)
        tallies = distill._label_tallies(x, z)
        assert tallies == counter_tallies(x, z)
        assert all(type(a) is int and type(b) is int for a, b in tallies)

    # the last case keeps too few survivors for one block: empty outputs
    @pytest.mark.parametrize(
        "k, r, count", [(0, 1, 300), (1, 3, 4096), (2, 5, 20000), (2, 51, 204)]
    )
    def test_report_tallies_match_counter(self, k, r, count):
        key = sample_labeled_key(REF, count, np.random.default_rng(count))
        report = simulate_distillation(key, DistillParams(k, r), np.random.default_rng(k))
        assert report.out_tallies == counter_tallies(report.out_x, report.out_z)
        assert sum(report.survivor_tallies.values()) == report.survivor_count
        if k == 0:
            assert report.survivor_tallies == counter_tallies(key.x, key.z)


class TestParamsValidation:
    def test_min_length(self):
        assert DistillParams(3, 5).min_length == 40
        assert DistillParams(0, 1).min_length == 1

    def test_bad_params(self):
        with pytest.raises(ValueError):
            DistillParams(-1, 1)
        with pytest.raises(ValueError):
            DistillParams(0, 2)


class TestToeplitz:
    def test_length_and_determinism(self):
        bits = np.random.default_rng(0).integers(0, 2, 100, dtype=np.uint8)
        a = toeplitz_compress(bits, 0.5, np.random.default_rng(1))
        b = toeplitz_compress(bits, 0.5, np.random.default_rng(1))
        assert len(a) == 50
        assert np.array_equal(a, b)
        assert set(np.unique(a)) <= {0, 1}

    def test_gf2_linearity(self):
        rng = np.random.default_rng(2)
        u = rng.integers(0, 2, 64, dtype=np.uint8)
        v = rng.integers(0, 2, 64, dtype=np.uint8)
        cu = toeplitz_compress(u, 0.5, np.random.default_rng(3))
        cv = toeplitz_compress(v, 0.5, np.random.default_rng(3))
        cuv = toeplitz_compress(u ^ v, 0.5, np.random.default_rng(3))
        assert np.array_equal(cu ^ cv, cuv)

    def test_fraction_validation(self):
        bits = np.zeros(10, np.uint8)
        with pytest.raises(ValueError):
            toeplitz_compress(bits, 0.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            toeplitz_compress(bits, 1.5, np.random.default_rng(0))
        assert len(toeplitz_compress(bits, 0.05, np.random.default_rng(0))) == 0


class TestPairStageShuffle:
    """The in-place shuffle against the index pairing it replaced."""

    @pytest.mark.parametrize("length", [0, 1, 2, 3, 4097, 10**5])
    @pytest.mark.parametrize("seed", [0, 7, 2**62 + 3])
    def test_matches_index_pairing(self, length, seed):
        original = np.random.default_rng(length).integers(0, 8, length, dtype=np.uint8)
        values = original.copy()
        first, second = pair_stage(values, seed)
        assert np.array_equal(values, original[pair_stage_permutation(length, seed)])
        ref_first, ref_second = reference_pair_stage(length, seed)
        assert np.array_equal(first, original[ref_first])
        assert np.array_equal(second, original[ref_second])
        assert len(first) == len(second) == length // 2
        assert first.base is values and second.base is values

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_caller_keys_untouched(self, k):
        keys = sample_labeled_key(REF, 5001, np.random.default_rng(k))
        before = [a.copy() for a in (keys.bits, keys.x, keys.z)]
        simulate_distillation(keys, DistillParams(k, 3), np.random.default_rng(5))
        for a, b in zip((keys.bits, keys.x, keys.z), before):
            assert np.array_equal(a, b)


class TestLabelPacking:
    """The in-place label packing on every key dtype, and what it holds."""

    @pytest.mark.parametrize("dtype", [np.bool_, np.int64])
    @pytest.mark.parametrize("k", [0, 2])
    def test_key_dtypes_give_one_report(self, dtype, k):
        keys = sample_labeled_key(REF, 20001, np.random.default_rng(k))
        want = simulate_distillation(keys, DistillParams(k, 3), np.random.default_rng(5))
        cast = LabeledKey(*(a.astype(dtype) for a in (keys.bits, keys.x, keys.z)))
        got = simulate_distillation(cast, DistillParams(k, 3), np.random.default_rng(5))
        assert_same_report(got, want)

    def test_traced_peak_above_the_keys(self):
        """10^6 uint8 labels peak under 2.5 B per label beside the caller's keys.

        The packed labels and one stage's parity temporaries measure 2 B;
        packing through a copy of each key measured 3.
        """
        count = 10**6
        keys = sample_labeled_key(REF, count, np.random.default_rng(1))
        tracemalloc.start()
        try:
            simulate_distillation(keys, DistillParams(3, 5), np.random.default_rng(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * count


def reference_sample_labeled_key(m, count, rng):
    """The one-block sampler: a (count, 2) draw and a searchsorted category."""
    draws = rng.random((count, 2))
    cum = np.cumsum([float(m.p_i), float(m.p_x), float(m.p_y), float(m.p_z)])
    cum[-1] = 1.0
    cat = np.minimum(np.searchsorted(cum, draws[:, 0], side="right"), 3)
    x = ((cat == 1) | (cat == 2)).astype(np.uint8)
    z = ((cat == 2) | (cat == 3)).astype(np.uint8)
    bits = (draws[:, 1] >= 0.5).astype(np.uint8)
    return LabeledKey(bits, x, z)


def reference_simulate_distillation(keys, params, rng, matrix=None):
    """The unpacked pipeline: separate bits, x and z arrays through every stage."""
    length = len(keys)
    bits = keys.bits.astype(np.uint8)
    x = keys.x.astype(np.uint8)
    z = keys.z.astype(np.uint8)
    seeds = draw_stage_seeds(params.k, rng)
    stages = []
    for t in range(params.k):
        cur = len(bits)
        first, second = reference_pair_stage(cur, int(seeds[t]))
        keep = (z[first] ^ z[second]) == 0
        stages.append(
            distill.StageRecord(t, int(seeds[t]), cur, len(first), int(np.count_nonzero(keep)))
        )
        kept_first = first[keep]
        kept_second = second[keep]
        bits = bits[kept_first]
        x = x[kept_first] ^ x[kept_second]
        z = z[kept_first]
    survivors = len(bits)
    r = params.r
    n_blocks = survivors // r
    used = n_blocks * r
    alice_out = block_parities(bits, r)
    z_out = block_parities(z, r)
    x_out = (
        (x[:used].reshape(n_blocks, r).astype(np.int64).sum(axis=1) * 2 > r).astype(np.uint8)
        if n_blocks
        else np.zeros(0, np.uint8)
    )
    return distill.DistillationReport(
        params=params,
        input_length=length,
        stages=tuple(stages),
        survivor_count=survivors,
        survivor_tallies=distill._label_tallies(x, z),
        n_blocks=n_blocks,
        alice_out=alice_out,
        bob_out=alice_out ^ z_out,
        out_x=x_out,
        out_z=z_out,
        disagreement_count=int(z_out.astype(np.int64).sum()),
        expected_lengths=(
            expected_stage_lengths(matrix, params.k, length) if matrix is not None else None
        ),
    )


CHUNK = distill._LABEL_CHUNK
DIFF_MATRICES = {
    "ref": REF,
    "no-x": ErrorMatrix(0.7, 0.0, 0.1, 0.2),
    "no-y": ErrorMatrix(0.7, 0.1, 0.0, 0.2),
    "all-i": ErrorMatrix(1, 0, 0, 0),
    "all-x": ErrorMatrix(0, 1, 0, 0),
    "all-y": ErrorMatrix(0, 0, 1, 0),
    "all-z": ErrorMatrix(0, 0, 0, 1),
}


class ScriptedUniforms:
    """Stands in for a Generator whose random() yields fixed doubles in order."""

    def __init__(self, values):
        self.values = np.ravel(values)
        self.pos = 0

    def random(self, size=None, out=None):
        n = out.size if out is not None else int(np.prod(size))
        chunk = self.values[self.pos : self.pos + n]
        self.pos += n
        if out is None:
            return chunk.reshape(size)
        out[...] = chunk.reshape(out.shape)
        return out


def assert_same_state(rng_a, rng_b):
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def assert_same_report(got, want):
    for name in ("alice_out", "bob_out", "out_x", "out_z"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for name in (
        "params", "input_length", "stages", "survivor_count", "survivor_tallies",
        "n_blocks", "disagreement_count", "expected_lengths",
    ):
        assert getattr(got, name) == getattr(want, name), name
    assert got.to_json_dict() == want.to_json_dict()


def sample_both(m, count, seed):
    """(chunked, reference) keys from one seed, generator states checked equal."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_labeled_key(m, count, rng)
    want = reference_sample_labeled_key(m, count, ref_rng)
    assert_same_state(rng, ref_rng)
    return got, want, rng, ref_rng


class TestChunkedKernelsMatchReference:
    """The chunked sampler and the packed pump against their one-block originals."""

    @pytest.mark.parametrize("name", sorted(DIFF_MATRICES))
    @pytest.mark.parametrize(
        "count", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5]
    )
    def test_sample(self, name, count):
        got, want, _, _ = sample_both(DIFF_MATRICES[name], count, count + 1)
        for field in ("bits", "x", "z"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype == np.uint8 and np.array_equal(a, b), field

    @pytest.mark.parametrize("name", sorted(DIFF_MATRICES))
    @pytest.mark.parametrize("k", range(5))
    @pytest.mark.parametrize("r", [1, 3, 7])
    def test_pipeline(self, name, k, r):
        m = DIFF_MATRICES[name]
        keys, _, rng, ref_rng = sample_both(m, 3000, 100 * k + r)
        got = simulate_distillation(keys, DistillParams(k, r), rng, matrix=m)
        want = reference_simulate_distillation(keys, DistillParams(k, r), ref_rng, matrix=m)
        assert_same_state(rng, ref_rng)
        assert_same_report(got, want)

    def test_ties_at_category_edges(self, monkeypatch):
        """Uniforms exactly on a cumulative edge, across chunk boundaries."""
        m = ErrorMatrix(0.5, 0.25, 0.125, 0.125)  # dyadic: cum is exact
        edges = [0.0, 0.5, 0.75, 0.875]
        u = edges + [np.nextafter(e, 0.0) for e in edges[1:]] + [np.nextafter(1.0, 0.0)]
        v = [0.5, np.nextafter(0.5, 0.0)] * 4
        monkeypatch.setattr(distill, "_LABEL_CHUNK", 3)
        got = sample_labeled_key(m, len(u), ScriptedUniforms(np.column_stack([u, v[: len(u)]])))
        want = reference_sample_labeled_key(
            m, len(u), ScriptedUniforms(np.column_stack([u, v[: len(u)]]))
        )
        for field in ("bits", "x", "z"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field

    def test_wider_input_dtypes(self):
        keys = sample_labeled_key(REF, 5000, np.random.default_rng(8))
        for dtype in (bool, np.int64):
            wide = LabeledKey(*(a.astype(dtype) for a in (keys.bits, keys.x, keys.z)))
            got = simulate_distillation(wide, DistillParams(2, 3), np.random.default_rng(9))
            want = reference_simulate_distillation(
                wide, DistillParams(2, 3), np.random.default_rng(9)
            )
            assert_same_report(got, want)

    def test_keygen_bulk_case(self):
        """z_flip:0.3 at its selected k=3, r=5315 on 10^6 labels."""
        m = error_matrix(bell_distribution(resolve_channel("z_flip:0.3", field_spec(2))))
        params = select_params(ep_recursion(m, 0)).params
        assert params == DistillParams(3, 5315)
        keys, want_keys, rng, ref_rng = sample_both(m, 10**6, 12)
        for field in ("bits", "x", "z"):
            assert np.array_equal(getattr(keys, field), getattr(want_keys, field)), field
        got = simulate_distillation(keys, params, rng, matrix=m)
        want = reference_simulate_distillation(want_keys, params, ref_rng, matrix=m)
        assert_same_state(rng, ref_rng)
        assert_same_report(got, want)
        assert got.n_blocks > 0
