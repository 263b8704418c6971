"""Session engine: draw contract, estimators, and the continuation test."""

from __future__ import annotations

import io
import csv
import os
import sys
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quditqkd.protocol as protocol
from quditqkd.channels import resolve_channel
from quditqkd.field import FieldSpec, field_spec
from quditqkd.netrun.wire import decode_qudit_batch, encode_qudit_batch
from quditqkd.protocol import (
    RateEstimate,
    SessionConfig,
    check_pm_condition,
    condition_verdict,
    pair_table,
    pm_condition_lhs,
    run_session,
    spawn_streams,
    wilson_interval,
)
from quditqkd.qstates import Outcome

from oracles import exact_continuation_lhs, wilson_reference
from reference import (
    SparseKet,
    accepted_counts,
    decode_bob_bit,
    draw_bob_round,
    pair_offset,
    pick_pair_index,
    reference_finish_session,
    reference_line_offsets,
    reference_measure,
    reference_pair_table,
    reference_prepare,
    reference_transmit,
    replay_session_scalar,
    round_log_csv,
)
from reference import transmit as transmit_ket


def counter_outcomes(log) -> dict[tuple[int, int], int]:
    """Reference tally of (line offset, outcome) pairs, one round at a time."""
    return dict(Counter(zip(log.offset.tolist(), log.outcome.tolist())))


class TestWilson:
    @settings(max_examples=200)
    @given(
        trials=st.integers(1, 10**6),
        frac=st.floats(0, 1),
        z=st.sampled_from([1.0, 1.96, protocol.Z_99, 3.0]),
    )
    def test_matches_reference(self, trials, frac, z):
        successes = min(int(frac * trials), trials)
        lo, hi = wilson_interval(successes, trials, z)
        ref_lo, ref_hi = wilson_reference(successes, trials, z)
        assert lo == pytest.approx(ref_lo, abs=1e-12)
        assert hi == pytest.approx(ref_hi, abs=1e-12)
        p = successes / trials
        # float rounding can push the clamped edges past p by an ulp
        assert 0 <= lo <= p + 1e-15
        assert p - 1e-15 <= hi <= 1

    def test_no_trials_is_vacuous(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_rate_estimate_from_counts(self):
        est = RateEstimate.from_counts(8, 34)
        assert est.rate == 8 / 34
        assert est.low <= 8 / 34 <= est.high
        assert est.half_width == (est.high - est.low) / 2
        assert RateEstimate.from_counts(0, 0).rate is None
        d = est.to_json_dict()
        assert d["successes"] == 8 and d["trials"] == 34


def _boundary_count_pairs(n: int, bound: int = 20):
    """Sample counts (s_b, t_b, s_c, t_c), trials up to ``bound``, on and off the boundary.

    On: the exact left side is 1/2.  Off: s_b one above or below an on
    pair.  The boundary e_b is solved per e_c in exact fractions.
    """
    order = 1 << n
    on, off = [], []
    for t_c in range(1, bound + 1):
        for s_c in range(1, t_c + 1):
            e_c = Fraction(s_c, t_c)
            e_b = (Fraction(1, 2) - Fraction(order - 1, order - 2) * (1 - e_c)) / e_c
            if not 0 <= e_b <= 1:
                continue
            for t_b in range(1, bound + 1):
                if (e_b * t_b).denominator == 1:
                    s_b = int(e_b * t_b)
                    on.append((s_b, t_b, s_c, t_c))
                    off.extend((s_b + d, t_b, s_c, t_c) for d in (-1, 1) if 0 <= s_b + d <= t_b)
    return on, off


class TestContinuationCondition:
    def test_boundary_exact_with_fractions(self):
        # (3/10, 5/6) sits exactly on the boundary at n = 2
        lhs = pm_condition_lhs(Fraction(3, 10), Fraction(5, 6), 2)
        assert lhs == Fraction(1, 2)
        assert not check_pm_condition(Fraction(3, 10), Fraction(5, 6), 2)

    def test_boundary_floats_land_below(self):
        # the float route rounds the same point to just under 1/2: exact
        # rationals are the only way to decide boundary cases
        lhs = pm_condition_lhs(0.3, 5 / 6, 2)
        assert lhs == 0.49999999999999994
        assert check_pm_condition(0.3, 5 / 6, 2)

    def test_noiseless_passes(self):
        assert check_pm_condition(0, 1, 2)
        assert pm_condition_lhs(0, 1, 2) == 0
        # so does a noisy point inside the region
        assert check_pm_condition(0.3, 0.9, 2)

    def test_full_leakage_fails(self):
        assert not check_pm_condition(0, 0, 2)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            pm_condition_lhs(0.1, 0.5, 1)
        with pytest.raises(ValueError):
            pm_condition_lhs(1.5, 0.5, 2)
        with pytest.raises(ValueError):
            pm_condition_lhs(0.5, -0.1, 2)

    def test_condition_verdict_undefined_rates(self):
        none = RateEstimate.from_counts(0, 0)
        some = RateEstimate.from_counts(1, 10)
        assert condition_verdict(none, some, 2) == (None, False)
        assert condition_verdict(some, none, 2) == (None, False)

    def test_float_boundary_is_decided_exactly(self):
        # e_b = 1/4, e_c = 4/5 at n = 2 sits on the boundary, but the
        # float left side rounds below 1/2; the verdict reads the counts
        e_b, e_c = RateEstimate.from_counts(1, 4), RateEstimate.from_counts(4, 5)
        assert pm_condition_lhs(0.25, 0.8, 2) == 0.49999999999999994
        assert condition_verdict(e_b, e_c, 2) == (0.49999999999999994, False)
        e_b = RateEstimate.from_counts(1, 3)
        assert not condition_verdict(e_b, e_c, 3)[1]
        # among the enumerated n = 2 boundary pairs the float left side
        # lands on both sides of 1/2, so a float verdict errs both ways
        on, _ = _boundary_count_pairs(2)
        floats = {pm_condition_lhs(s_b / t_b, s_c / t_c, 2) for s_b, t_b, s_c, t_c in on}
        assert min(floats) < 0.5 < max(floats)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_verdict_on_boundary_counts_matches_fractions(self, n):
        on, off = _boundary_count_pairs(n)
        assert on and off
        for s_b, t_b, s_c, t_c in on + off:
            exact = exact_continuation_lhs(Fraction(s_b, t_b), Fraction(s_c, t_c), 1 << n)
            e_b, e_c = RateEstimate.from_counts(s_b, t_b), RateEstimate.from_counts(s_c, t_c)
            _, verdict = condition_verdict(e_b, e_c, n)
            assert verdict == (exact < Fraction(1, 2)), (s_b, t_b, s_c, t_c)

    def test_condition_verdict_strictness(self):
        e_b = RateEstimate.from_counts(1, 2)
        e_c = RateEstimate.from_counts(1, 1)
        lhs, verdict = condition_verdict(e_b, e_c, 2)
        assert lhs == 0.5 and not verdict


class TestPairGeometry:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_pair_table_shape_and_order(self, n):
        spec = field_spec(n)
        table = pair_table(spec)
        count = spec.order * (spec.order - 1) // 2
        assert table.shape == (count, 2)
        assert table.dtype == np.int16
        assert table.flags.c_contiguous
        rows = [tuple(r) for r in table]
        assert rows == sorted(rows)
        assert all(u < v for u, v in rows)
        expected = reference_pair_table(spec)
        assert table.dtype == expected.dtype and table.shape == expected.shape
        assert np.array_equal(table, expected)

    @pytest.mark.parametrize("n", [2, 8])
    def test_pair_table_is_cached_read_only(self, n):
        table = pair_table(field_spec(n))
        # an equal spec built apart from field_spec's cache shares the table
        assert pair_table(FieldSpec(n)) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1

    def test_pick_pair_index_edges(self):
        assert pick_pair_index(0.0, 6) == 0
        assert pick_pair_index(0.999999, 6) == 5
        assert pick_pair_index(1.0, 6) == 5

    def test_pair_offset_matched(self):
        spec = field_spec(2)
        assert pair_offset(spec, 0, 1, 0, 1) == 0
        # {1, 0} with the roles swapped is offset 1, same class
        assert pair_offset(spec, 0, 1, 1, 0) == 1

    def test_pair_offset_off_line(self):
        spec = field_spec(2)
        assert pair_offset(spec, 0, 1, 0, 2) == -1

    def test_pair_offset_classes_partition_line(self):
        spec = field_spec(3)
        i, j = 2, 5
        delta = i ^ j
        offsets = {
            pair_offset(spec, i, j, u, u ^ delta) for u in range(spec.order)
        }
        assert offsets == set(range(spec.order))
        classes = {o & ~1 for o in offsets}
        assert len(classes) == spec.order // 2


class TestStreams:
    def test_five_streams_deterministic(self):
        a = spawn_streams(123)
        b = spawn_streams(123)
        assert len(a) == 5
        for x, y in zip(a, b):
            assert x.random() == y.random()

    def test_streams_differ_across_slots(self):
        streams = spawn_streams(0)
        draws = {s.random() for s in streams}
        assert len(draws) == 5


LOG_COLUMNS = (
    "alice_i", "alice_j", "alice_s", "bob_i", "bob_j", "outcome", "bob_bit", "offset",
)


def _log_rows(log, lo, hi):
    """The rows [lo, hi) of a round log, as a round log."""
    return protocol.RoundLog(*(getattr(log, name)[lo:hi] for name in LOG_COLUMNS))


def _compare_outputs(vec, ref):
    # np.array_equal ignores dtype, so a widened or narrowed column is
    # caught by the dtype checks alone
    assert vec.stats == ref.stats
    for out in (vec, ref):
        assert out.alice_key.dtype == out.bob_key.dtype == np.uint8
        for name, dtype in zip(LOG_COLUMNS, protocol._LOG_DTYPES):
            assert getattr(out.log, name).dtype == dtype, name
    assert np.array_equal(vec.alice_key, ref.alice_key)
    assert np.array_equal(vec.bob_key, ref.bob_key)
    for name in LOG_COLUMNS:
        assert np.array_equal(getattr(vec.log, name), getattr(ref.log, name))


class TestEngineEquivalence:
    CHANNELS = [
        "identity",
        "z_flip:0.3",
        "shift_noise:0.2",
        "partial_intercept:0.4",
        "full_dephase",
    ]

    @pytest.mark.parametrize("channel", CHANNELS)
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_vectorised_matches_scalar(self, n, channel):
        cfg = SessionConfig(n=n, rounds=2000, channel=channel, seed=97)
        _compare_outputs(run_session(cfg), replay_session_scalar(cfg))

    def test_chunking_invariance(self, monkeypatch):
        for n, channel in [
            (2, "z_flip:0.3"), (8, "shift_noise:0.2"), (5, "partial_intercept:0.4"),
        ]:
            cfg = SessionConfig(n=n, rounds=1037, channel=channel, seed=5)
            monkeypatch.setattr(protocol, "_ENGINE_CHUNK", 1 << 17)
            whole = run_session(cfg)
            monkeypatch.setattr(protocol, "_ENGINE_CHUNK", 64)
            _compare_outputs(run_session(cfg), whole)

    def test_seed_determinism(self):
        cfg = SessionConfig(n=2, rounds=500, channel="shift_noise:0.2", seed=11)
        _compare_outputs(run_session(cfg), run_session(cfg))

    def test_different_seeds_differ(self):
        base = SessionConfig(n=2, rounds=500, seed=1)
        other = SessionConfig(n=2, rounds=500, seed=2)
        a, b = run_session(base), run_session(other)
        assert not np.array_equal(a.log.alice_i, b.log.alice_i)

    def test_sample_fraction_does_not_touch_round_columns(self):
        """The sampling stream is separate from the per-round streams."""
        a = run_session(SessionConfig(n=2, rounds=400, seed=3, sample_fraction=0.1))
        b = run_session(SessionConfig(n=2, rounds=400, seed=3, sample_fraction=0.5))
        for name in ("alice_i", "alice_s", "bob_i", "outcome"):
            assert np.array_equal(getattr(a.log, name), getattr(b.log, name))
        assert a.stats.sample_count != b.stats.sample_count


def _span_columns(n, channel, seed, rounds, cuts):
    """Round-log columns filled by one ``_fill_rounds`` call per span."""
    spec = field_spec(n)
    model = resolve_channel(channel, spec)
    streams = spawn_streams(seed)
    cols = [np.empty(rounds, dtype) for dtype in protocol._LOG_DTYPES]
    edges = [0, *cuts, rounds]
    for lo, hi in zip(edges, edges[1:]):
        protocol._fill_rounds(spec, model, pair_table(spec), cols, streams, lo, hi)
    return cols


class TestSpans:
    """Spans of rounds on their own advanced streams, one thread each."""

    @pytest.mark.parametrize(
        "n,channel", [(2, "z_flip:0.3"), (3, "full_dephase"), (5, "partial_intercept:0.4")]
    )
    def test_spans_cut_anywhere_equal_one_span(self, n, channel):
        chunk = protocol._ENGINE_CHUNK
        rounds = chunk + 1000
        whole = _span_columns(n, channel, 7, rounds, [])
        for cuts in ([1], [500], [chunk], [chunk + 999], [3, 4, chunk - 1, chunk + 5]):
            _assert_same_columns(_span_columns(n, channel, 7, rounds, cuts), whole)

    def test_spans_cut_within_small_chunks(self, monkeypatch):
        monkeypatch.setattr(protocol, "_ENGINE_CHUNK", 64)
        whole = _span_columns(8, "shift_noise:0.2", 3, 1037, [])
        for cuts in ([1], [64], [65, 66], [100, 101, 640, 1036]):
            got = _span_columns(8, "shift_noise:0.2", 3, 1037, cuts)
            _assert_same_columns(got, whole)

    def test_spans_leave_the_callers_streams_alone(self):
        spec = field_spec(2)
        streams = spawn_streams(4)
        cols = [np.empty(300, dtype) for dtype in protocol._LOG_DTYPES]
        model = resolve_channel("z_flip:0.3", spec)
        protocol._fill_rounds(spec, model, pair_table(spec), cols, streams, 100, 300)
        for got, fresh in zip(streams, spawn_streams(4)):
            assert got.random() == fresh.random()

    @pytest.mark.parametrize("count, want", [(7, 7), (None, 1)])
    def test_usable_cpus_without_affinity(self, monkeypatch, count, want):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert protocol._usable_cpus() == want

    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    def test_session_independent_of_cpu_count(self, monkeypatch, cpus):
        monkeypatch.setattr(protocol, "_ENGINE_CHUNK", 64)
        cfg = SessionConfig(n=3, rounds=1037, channel="partial_intercept:0.4", seed=9)
        whole = run_session(cfg)
        monkeypatch.setattr(protocol, "_usable_cpus", lambda: cpus)
        # more spans than cores, switching threads as often as possible
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run_session(cfg)
        finally:
            sys.setswitchinterval(interval)
        _compare_outputs(threaded, whole)

    def test_one_chunk_starts_no_thread(self, monkeypatch):
        cfg = SessionConfig(n=2, rounds=700, channel="z_flip:0.3", seed=2)
        whole = run_session(cfg)
        monkeypatch.setattr(protocol, "_usable_cpus", lambda: 4)

        def no_thread(*args, **kwargs):
            raise AssertionError("a one-chunk session started a thread")

        monkeypatch.setattr(threading, "Thread", no_thread)
        _compare_outputs(run_session(cfg), whole)

    def test_one_chunk_session_splits_on_rounds(self, monkeypatch):
        """10^5 rounds, under two default chunks, run as two spans on two CPUs."""
        cfg = SessionConfig(n=2, rounds=10**5, channel="z_flip:0.3", seed=5)
        monkeypatch.setattr(protocol, "_usable_cpus", lambda: 1)
        whole = run_session(cfg)
        monkeypatch.setattr(protocol, "_usable_cpus", lambda: 2)
        started = []
        thread = threading.Thread

        def counted(*args, **kwargs):
            started.append(kwargs.get("args"))
            return thread(*args, **kwargs)

        monkeypatch.setattr(threading, "Thread", counted)
        _compare_outputs(run_session(cfg), whole)
        assert started == [(1,)]

    def test_worker_error_is_raised_after_join(self, monkeypatch):
        monkeypatch.setattr(protocol, "_ENGINE_CHUNK", 64)
        monkeypatch.setattr(protocol, "_usable_cpus", lambda: 2)
        spec = field_spec(2)
        model = resolve_channel("z_flip:0.3", spec)
        search = model.sample_term_index
        main = threading.current_thread()

        def failing(u):
            # the calling thread runs the first span, a worker the second
            if threading.current_thread() is not main:
                raise RuntimeError("second span failed")
            return search(u)

        monkeypatch.setattr(model, "sample_term_index", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="second span failed"):
            run_session(SessionConfig(n=2, rounds=1000, channel=model, seed=1))
        assert threading.active_count() == before


def _assert_reference_tail(cfg):
    """run_session's stats and keys equal the whole-log reference tail's."""
    out = run_session(cfg)
    sample_rng = spawn_streams(cfg.seed)[protocol.STREAM_SAMPLE]
    ref = reference_finish_session(cfg, out.log, sample_rng)
    assert out.stats == ref.stats
    assert np.array_equal(out.alice_key, ref.alice_key)
    assert np.array_equal(out.bob_key, ref.bob_key)
    return out.stats


class TestChunkTally:
    """The tail on chunk tallies against the passes over the whole log it replaced."""

    @pytest.mark.parametrize("chunk", [64, 7, 1])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_tail_matches_whole_log_reference(self, monkeypatch, chunk, cpus):
        monkeypatch.setattr(protocol, "_ENGINE_CHUNK", chunk)
        monkeypatch.setattr(protocol, "_usable_cpus", lambda: cpus)
        for n, channel in [(2, "z_flip:0.3"), (3, "partial_intercept:0.4"), (4, "shift_noise:0.2")]:
            cfg = SessionConfig(n=n, rounds=400, channel=channel, seed=n)
            stats = _assert_reference_tail(cfg)
            assert stats.sifted_count and stats.e_c.trials

    @pytest.mark.parametrize("chunk", [7, 1])
    def test_insufficient_sift(self, monkeypatch, chunk):
        monkeypatch.setattr(protocol, "_ENGINE_CHUNK", chunk)
        monkeypatch.setattr(protocol, "_usable_cpus", lambda: 2)
        stats = _assert_reference_tail(SessionConfig(n=4, rounds=2, seed=0))
        assert stats.status == "insufficient-sift"

    @pytest.mark.parametrize("chunk", [7, 1])
    def test_undefined_ec(self, monkeypatch, chunk):
        monkeypatch.setattr(protocol, "_ENGINE_CHUNK", chunk)
        monkeypatch.setattr(protocol, "_usable_cpus", lambda: 2)
        # both sifted rounds fell Outside and no other on-line round clicked
        cfg = SessionConfig(n=3, rounds=20, channel="shift_noise:0.9", seed=3)
        stats = _assert_reference_tail(cfg)
        assert stats.sifted_count == stats.outside_in_sifted == 2
        assert stats.e_c.rate is None and not stats.condition_pass


def _announced_columns(n, rng, count):
    """Random announced pairs: about a third sifted, a third on Alice's line, the rest random."""
    spec = field_spec(n)
    table = pair_table(spec)
    ai, aj = table[rng.integers(len(table), size=count)].T
    bi, bj = table[rng.integers(len(table), size=count)].T
    # x = 0 (and x = i ^ j) gives Alice's own pair, any other x her line
    x = np.where(rng.random(count) < 0.5, 0, rng.integers(spec.order, size=count))
    line = rng.random(count) < 2 / 3
    u, v = ai ^ x, aj ^ x
    bi = np.where(line, np.minimum(u, v), bi).astype(np.int16)
    bj = np.where(line, np.maximum(u, v), bj).astype(np.int16)
    return spec, ai, aj, bi, bj, rng.random(count) < 0.7


def _tally_fields(tally):
    return tally.clicked.tolist(), tally.ec, [side.tolist() for side in tally.bits]


class TestDrawSample:
    """The in-place int32 shuffle against the permutation draw it replaced."""

    @pytest.mark.parametrize("count", [0, 1, 2, 7, 4096, 10**5])
    @pytest.mark.parametrize("seed", [0, 1, 2, 2**40 + 9])
    def test_equals_permutation_prefix(self, count, seed):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for fraction in (0.1, 0.5):
            got = protocol.draw_sample(count, fraction, rng)
            want = np.sort(ref.permutation(count)[: int(fraction * count)])
            assert got.dtype == np.int32 and np.array_equal(got, want)
        assert rng.random() == ref.random()


class TestSessionMemory:
    def test_traced_peak_above_the_round_log(self, monkeypatch):
        """4*10^6 rounds on two spans hold under 4.5 B per round beside the log.

        The spans' chunk temporaries, the sifted bits and the tail's
        4-byte sample shuffle measure about 3.2 B per round; session-length
        int64 sift lists and a 2^17 chunk measured about 6.
        """
        monkeypatch.setattr(protocol, "_usable_cpus", lambda: 2)
        rounds = 4 * 10**6
        cfg = SessionConfig(n=2, rounds=rounds, channel="z_flip:0.3", seed=5)
        tracemalloc.start()
        try:
            out = run_session(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        log_bytes = sum(getattr(out.log, name).nbytes for name in LOG_COLUMNS)
        assert peak - log_bytes < 4.5 * rounds


class TestAnnouncedTally:
    """The offset-free tally against line offsets and against itself cut anywhere."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_ec_counts_match_line_offset_reference(self, n):
        rng = np.random.default_rng(n)
        spec, ai, aj, bi, bj, clicked = _announced_columns(n, rng, 5000)
        offset = protocol.line_offsets(spec, ai, aj, bi, bj)
        sifted = protocol.sift_mask(ai, aj, bi, bj)
        # off-line, on-line but unsifted, sifted, and Outside rounds all occur
        assert (offset < 0).any() and ((offset >= 0) & ~sifted).any() and sifted.any()
        assert not clicked.all() and not clicked[sifted].all()
        sides = (rng.random(5000) < 0.5).view(np.int8), rng.integers(0, 2, 5000)
        pos = np.flatnonzero(sifted)
        for bits in ((), sides[:1], sides):
            tally = protocol.Tally.of(ai, aj, bi, bj, clicked, pos, *bits)
            assert tally.ec == accepted_counts(offset, clicked)
            assert all(type(c) is int for c in tally.ec)
            assert np.array_equal(tally.clicked, clicked[sifted])
            assert len(tally.bits) == len(bits)
            for got, side in zip(tally.bits, bits):
                assert got.dtype == np.uint8 and np.array_equal(got, side[sifted])

    @pytest.mark.parametrize(
        "n,channel", [(2, "shift_noise:0.3"), (3, "shift_noise:0.4"), (5, "shift_noise:0.2")]
    )
    def test_cut_anywhere_and_joined_equals_whole(self, n, channel):
        # any window size serves; cuts around 4096 keep the session small
        window = 4096
        rounds = window + 1000
        log = run_session(SessionConfig(n=n, rounds=rounds, channel=channel, seed=7)).log
        cols = (log.alice_i, log.alice_j, log.bob_i, log.bob_j, log.clicked)

        def tally(lo, hi):
            pos = np.flatnonzero(log.sifted[lo:hi])
            bits = log.alice_s[lo:hi], log.bob_bit[lo:hi]
            return protocol.Tally.of(*(c[lo:hi] for c in cols), pos, *bits)

        whole = tally(0, rounds)
        assert whole.clicked.size and not whole.clicked.all()
        assert np.array_equal(whole.bits[1], log.bob_bit[log.sifted])
        for cuts in (
            [1], [500], [window], [window - 1], [window + 1], [3, 4, window - 1, window + 5]
        ):
            edges = [0, *cuts, rounds]
            joined = protocol.Tally.join([tally(lo, hi) for lo, hi in zip(edges, edges[1:])])
            assert _tally_fields(joined) == _tally_fields(whole), cuts


class TestSessionStatistics:
    def test_identity_session_has_no_errors(self):
        out = run_session(SessionConfig(n=2, rounds=4000, seed=0))
        assert out.stats.status == "ok"
        assert out.stats.e_b.rate == 0
        assert out.stats.condition_pass
        assert np.array_equal(out.alice_key, out.bob_key)
        assert out.stats.key_length == out.stats.sifted_count - out.stats.sample_count

    def test_z_flip_error_rate_near_half_q(self):
        out = run_session(SessionConfig(n=2, rounds=40000, channel="z_flip:0.3", seed=1))
        assert out.stats.e_b.low <= 0.15 <= out.stats.e_b.high
        assert out.stats.e_c.low <= 1.0 <= out.stats.e_c.high
        assert out.stats.condition_pass

    def test_full_dephase_fails_condition(self):
        # the channel sits exactly on the continuation boundary, so the
        # strict verdict follows the sample fluctuation; this seed's
        # sample lands above 1/2
        out = run_session(
            SessionConfig(n=2, rounds=40000, channel="full_dephase", seed=4)
        )
        assert out.stats.e_b.low <= 0.5 <= out.stats.e_b.high
        assert out.stats.e_b.rate > 0.5
        assert not out.stats.condition_pass

    def test_shift_noise_ec_estimates(self):
        cfg = SessionConfig(n=2, rounds=40000, channel="shift_noise:0.2", seed=3)
        in_pair = run_session(cfg).stats
        # the in-pair estimator tracks the channel's kept mass
        kept_mass = float(Fraction(4, 5) + Fraction(1, 15))
        assert in_pair.e_c.low <= kept_mass <= in_pair.e_c.high

    def test_insufficient_sift(self):
        out = run_session(SessionConfig(n=4, rounds=2, seed=0))
        assert out.stats.status == "insufficient-sift"
        assert out.stats.key_length == 0
        assert len(out.alice_key) == 0
        assert not out.stats.condition_pass

    def test_outcome_counts_cover_all_rounds(self):
        out = run_session(SessionConfig(n=2, rounds=3000, channel="z_flip:0.3", seed=4))
        assert sum(out.stats.counts.values()) == 3000

    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("channel", ["z_flip:0.3", "partial_intercept:0.4"])
    def test_outcome_counts_match_counter(self, n, channel):
        log = run_session(SessionConfig(n=n, rounds=3000, channel=channel, seed=n)).log
        counts = protocol._outcome_table(protocol._outcome_counts(log, 1 << n))
        assert counts == counter_outcomes(log)
        assert all(type(a) is int and type(o) is int for a, o in counts)
        assert any(a == -1 for a, _ in counts)
        assert any(o == Outcome.OUTSIDE for _, o in counts)

    def test_outcome_counts_sum_over_chunks(self):
        log = run_session(SessionConfig(n=3, rounds=1037, channel="z_flip:0.3", seed=6)).log
        total = sum(
            protocol._outcome_counts(_log_rows(log, lo, lo + 64), 8)
            for lo in range(0, len(log), 64)
        )
        assert protocol._outcome_table(total) == counter_outcomes(log)

    def test_stats_json_round_trip(self):
        import json

        out = run_session(SessionConfig(n=2, rounds=200, seed=0))
        blob = json.dumps(out.stats.to_json_dict())
        parsed = json.loads(blob)
        assert parsed["status"] == "ok"
        assert parsed["rounds"] == 200


class TestRoundLog:
    def test_csv_round_trip(self):
        out = run_session(SessionConfig(n=2, rounds=50, channel="z_flip:0.3", seed=5))
        buf = io.StringIO()
        out.log.to_csv(buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        header, body = rows[0], rows[1:]
        assert header == [
            "round", "i", "j", "s", "i_prime", "j_prime", "outcome", "sifted", "offset",
        ]
        assert len(body) == 50
        log = out.log
        names = ("plus", "minus", "outside")
        for r, row in enumerate(body):
            assert int(row[0]) == r
            assert [int(x) for x in row[1:6]] == [
                log.alice_i[r], log.alice_j[r], log.alice_s[r], log.bob_i[r], log.bob_j[r],
            ]
            assert row[6] == names[log.outcome[r]]
            assert int(row[7]) == int(log.sifted[r])
            want = "" if log.offset[r] < 0 else str(log.offset[r])
            assert row[8] == want

    @pytest.mark.parametrize("n, channel", [(3, "partial_intercept:0.4"), (2, "z_flip:0.3")])
    def test_csv_bytes_match_row_writer(self, monkeypatch, n, channel):
        log = run_session(SessionConfig(n=n, rounds=3000, channel=channel, seed=n)).log
        # off-line rounds (empty offset cell), Outside outcomes, sifted rows
        assert (log.offset < 0).any() and (log.offset >= 0).any()
        assert (log.outcome == Outcome.OUTSIDE).any() and log.sifted.any()
        want = io.StringIO()
        round_log_csv(log, want)
        want_rows = want.getvalue().split("\n")
        for chunk in (protocol._ENGINE_CHUNK, 7, 1):
            monkeypatch.setattr(protocol, "_ENGINE_CHUNK", chunk)
            got = io.StringIO()
            log.to_csv(got)
            # row by row (line ends kept), so a failure names its row
            got_rows = got.getvalue().split("\n")
            assert len(got_rows) == len(want_rows)
            for r, (a, b) in enumerate(zip(got_rows, want_rows)):
                assert a == b, (chunk, r)


class TestDecoding:
    def test_decode_bob_bit(self):
        assert decode_bob_bit(Outcome.PLUS, 1) == 0
        assert decode_bob_bit(Outcome.MINUS, 0) == 1
        assert decode_bob_bit(Outcome.OUTSIDE, 0) == 0
        assert decode_bob_bit(Outcome.OUTSIDE, 1) == 1


class TestConfigValidation:
    def test_bad_rounds(self):
        with pytest.raises(ValueError):
            SessionConfig(rounds=0)

    def test_bad_sample_fraction(self):
        with pytest.raises(ValueError):
            SessionConfig(sample_fraction=0.0)
        with pytest.raises(ValueError):
            SessionConfig(sample_fraction=1.0)

    def test_bad_ec_mode(self):
        # one e_c estimator and one strict verdict: neither is a field
        with pytest.raises(TypeError):
            SessionConfig(ec_mode="in_pair")
        with pytest.raises(TypeError):
            SessionConfig(condition_strict=True)


def _ket_columns(order, rng, count):
    """Mixed 1- and 2-term canonical ket columns (k1, k2, sigma), int16/int8."""
    a = rng.integers(order, size=count)
    b = (a + rng.integers(1, order, size=count)) % order
    single = rng.random(count) < 0.3
    k1 = np.where(single, a, np.minimum(a, b)).astype(np.int16)
    k2 = np.where(single, -1, np.maximum(a, b)).astype(np.int16)
    sigma = np.where(single, 0, rng.integers(2, size=count)).astype(np.int8)
    return k1, k2, sigma


def _random_kets(spec, rng, count):
    """Mixed 1- and 2-term canonical kets as objects and as ket columns."""
    k1, k2, sigma = _ket_columns(spec.order, rng, count)
    kets = [
        SparseKet.single(spec, i) if j < 0 else SparseKet.pair(spec, i, j, s)
        for i, j, s in zip(k1.tolist(), k2.tolist(), sigma.tolist())
    ]
    return kets, k1, k2, sigma


class TestStages:
    """The vectorised stages against the scalar per-ket helpers."""

    @pytest.mark.parametrize(
        "channel",
        TestEngineEquivalence.CHANNELS + ["custom:[(1/2,a=1,f=0x6),(1/2,a=3,f=0x9)]"],
    )
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_transmit_matches_apply_term_on_mixed_kets(self, n, channel):
        spec = field_spec(n)
        model = resolve_channel(channel, spec)
        kets, k1, k2, sigma = _random_kets(spec, np.random.default_rng(n), 400)
        m1, m2, sig, terms = protocol.transmit(
            model, k1, k2, sigma, np.random.default_rng(8)
        )
        scalar = np.random.default_rng(8)
        draws = np.random.default_rng(8).random((len(kets), 2))
        for r, ket in enumerate(kets):
            want = transmit_ket(model, ket, scalar)
            terms_got = [(int(m1[r]), 1)]
            if m2[r] >= 0:
                terms_got.append((int(m2[r]), -1 if sig[r] else 1))
            else:
                assert sig[r] == 0
            assert SparseKet(spec, tuple(terms_got)) == want, r
            assert terms[r] == model.sample_term_index(draws[r, 0])

    def test_transmit_matches_apply_term_on_high_mask_bits(self):
        # n = 8 masks are 32 bytes wide: one sets every byte, one only bits
        # at 64 and above
        dense = int("a5" * 32, 16)
        high = (1 << 255) | (1 << 129) | (1 << 64)
        channel = f"custom:[(1/3,a=5,f={dense:#x}),(2/3,a=200,f={high:#x})]"
        self.test_transmit_matches_apply_term_on_mixed_kets(8, channel)

    def test_measure_matches_draw_bob_round_on_mixed_kets(self):
        for n in (2, 3, 5, 8):
            spec = field_spec(n)
            table = pair_table(spec)
            kets, k1, k2, sigma = _random_kets(spec, np.random.default_rng(n), 600)
            u, v, out, bit = protocol.measure(table, k1, k2, sigma, np.random.default_rng(5))
            scalar = np.random.default_rng(5)
            for r, ket in enumerate(kets):
                (su, sv), s_out, noise = draw_bob_round(spec, table, ket, scalar)
                want = (su, sv, s_out, decode_bob_bit(s_out, noise))
                assert (u[r], v[r], out[r], bit[r]) == want, (n, r)

    def test_line_offsets_match_pair_offset(self):
        for n in (2, 3, 5):
            spec = field_spec(n)
            table = pair_table(spec)
            rows = np.arange(len(table))
            ai, aj = np.repeat(table[:, 0], len(rows)), np.repeat(table[:, 1], len(rows))
            bi, bj = np.tile(table[:, 0], len(rows)), np.tile(table[:, 1], len(rows))
            got = protocol.line_offsets(spec, ai, aj, bi, bj)
            want = [pair_offset(spec, *map(int, q)) for q in zip(ai, aj, bi, bj)]
            assert got.tolist() == want, n


def _assert_same_columns(got, want, same_dtypes=True):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
        assert g.dtype == w.dtype or not same_dtypes


class TestStagesAgainstReference:
    """The stages against their earlier vectorised bodies in reference.py."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_stages_match_reference(self, n):
        spec = field_spec(n)
        table = pair_table(spec)
        count = 10**5
        _assert_same_columns(
            protocol.prepare(table, np.random.default_rng(n), count),
            reference_prepare(table, np.random.default_rng(n), count),
        )
        kets = _ket_columns(spec.order, np.random.default_rng(10 + n), count)
        # as the engine passes them, and as bob decodes them off the wire
        wire = decode_qudit_batch(encode_qudit_batch(*kets), count, spec.order)
        for k1, k2, sigma in (kets, wire):
            for channel in TestEngineEquivalence.CHANNELS:
                model = resolve_channel(channel, spec)
                _assert_same_columns(
                    protocol.transmit(model, k1, k2, sigma, np.random.default_rng(n)),
                    reference_transmit(model, k1, k2, sigma, np.random.default_rng(n)),
                )
            # the outcome and bit columns were int64 and are now int8
            _assert_same_columns(
                protocol.measure(table, k1, k2, sigma, np.random.default_rng(n)),
                reference_measure(table, k1, k2, sigma, np.random.default_rng(n)),
                same_dtypes=False,
            )
        rng = np.random.default_rng(20 + n)
        ai, aj, _ = protocol.prepare(table, rng, count)
        bi, bj, _ = protocol.prepare(table, rng, count)
        # half the Bob pairs moved onto Alice's line, at a random offset
        u = ai ^ rng.integers(spec.order, size=count).astype(np.int16)
        v = u ^ ai ^ aj
        on = rng.random(count) < 0.5
        bi = np.where(on, np.minimum(u, v), bi)
        bj = np.where(on, np.maximum(u, v), bj)
        got = protocol.line_offsets(spec, ai, aj, bi, bj)
        assert got.dtype == np.int16
        assert (got >= 0).any() and (got < 0).any()
        assert np.array_equal(got, reference_line_offsets(spec, ai, aj, bi, bj))

    def test_measure_thresholds_on_planted_edges(self):
        """Uniforms exactly on every pair-row edge and every Born threshold."""
        for n in (2, 3):
            spec = field_spec(n)
            table = pair_table(spec)
            pairs = len(table)
            kets = [(k, -1, 0) for k in range(spec.order)]
            kets += [(i, j, s) for i, j in table.tolist() for s in (0, 1)]
            edges = np.arange(pairs + 1) / pairs
            outcome = np.array([0.0, 0.25, 0.5, 0.75, 1 - 2.0**-53])
            noise = np.array([0.5, 0.5 - 2.0**-53])
            grid = np.array(
                [
                    (*ket, e, x, z)
                    for ket in kets for e in edges for x in outcome for z in noise
                ]
            )
            k1 = grid[:, 0].astype(np.int16)
            k2 = grid[:, 1].astype(np.int16)
            sigma = grid[:, 2].astype(np.int8)
            draws = _PlantedDraws(grid[:, 3:])
            got = protocol.measure(table, k1, k2, sigma, draws)
            want = reference_measure(table, k1, k2, sigma, draws)
            _assert_same_columns(got, want, same_dtypes=False)
            # every outcome occurs, Outside with both noise bits
            assert set(got[2].tolist()) == {0, 1, 2}
            assert set(got[3][got[2] == 2].tolist()) == {0, 1}


class _PlantedDraws:
    """A generator stand-in whose ``random`` returns fixed rows."""

    def __init__(self, rows):
        self.rows = rows

    def random(self, shape):
        assert shape == self.rows.shape
        return self.rows.copy()
