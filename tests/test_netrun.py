"""Wire codecs, role state machines, and cross-process reproducibility."""

from __future__ import annotations

import hashlib
import json
import socket
import struct
import threading
import time
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditqkd.channels import resolve_channel
from quditqkd.distill import DistillParams, LabeledKey, simulate_distillation
from quditqkd.field import field_spec
import quditqkd.netrun.roles as roles
import quditqkd.protocol as protocol
import quditqkd.netrun.wire as wire
from quditqkd.netrun import (
    RoleConfig,
    RoleReport,
    handshake_facts,
    run_alice,
    run_bob,
    run_eve,
    run_role,
)
from quditqkd.netrun.roles import WINDOW
from quditqkd.netrun.wire import (
    ABORT_CONDITION,
    ABORT_PROTOCOL,
    AbortReceived,
    FrameType,
    Link,
    PeerDisconnect,
    ProtocolViolation,
    decode_block_parity,
    decode_json,
    decode_outcome_batch,
    decode_pair_batch,
    decode_parity_round,
    decode_qudit_batch,
    decode_sample_reveal,
    encode_block_parity,
    encode_frame,
    encode_json,
    encode_outcome_batch,
    encode_pair_batch,
    encode_parity_round,
    encode_qudit_batch,
    encode_sample_reveal,
    pack_bitmap,
    sift_digest,
    unpack_bitmap,
)
from quditqkd.protocol import (
    STREAM_PAIRING,
    RateEstimate,
    SessionConfig,
    run_session,
    spawn_streams,
)

from reference import (
    SparseKet,
    encode_outcome_announce,
    encode_pair,
    reference_sift_digest,
    serialize_ket,
)

JOIN_TIMEOUT = 60.0


class TestBitmaps:
    @settings(max_examples=100)
    @given(bits=st.lists(st.integers(0, 1), max_size=67))
    def test_roundtrip(self, bits):
        packed = pack_bitmap(bits)
        assert len(packed) == (len(bits) + 7) // 8
        out = unpack_bitmap(packed, len(bits))
        assert out.tolist() == bits

    def test_bad_length_rejected(self):
        with pytest.raises(ProtocolViolation):
            unpack_bitmap(b"\x00\x00", 3)

    def test_nonzero_padding_rejected(self):
        with pytest.raises(ProtocolViolation):
            unpack_bitmap(b"\xff", 3)


class TestCodecs:
    def test_sift_digest_hashes_little_endian_int64(self):
        sift = np.array([0, 2, 2**40 + 5])
        want = hashlib.sha256(struct.pack("<3q", *sift.tolist())).digest()
        assert sift_digest([sift]) == reference_sift_digest(sift) == want
        assert sift_digest([sift[:1], sift[1:].astype(">i8")]) == want
        empty = hashlib.sha256(b"").digest()
        assert sift_digest([]) == sift_digest([np.zeros(0, np.int64)]) == empty
        assert reference_sift_digest(np.zeros(0, np.int64)) == empty

    @pytest.mark.parametrize("cut", [1, WINDOW - 1, WINDOW, WINDOW + 1, 3 * WINDOW + 5])
    def test_sift_digest_by_window_equals_one_shot(self, cut):
        """Fed in windows of rounds cut at ``cut``, the digest is the whole list's."""
        rounds = 4 * WINDOW
        sift = np.flatnonzero(np.random.default_rng(cut).random(rounds) < 1 / 6)
        want = reference_sift_digest(sift)
        # one cut at ``cut``, then windows of ``cut`` rounds each
        for edges in ([0, cut, rounds], list(range(0, rounds + cut, cut))):
            pieces = [sift[(lo <= sift) & (sift < hi)] for lo, hi in zip(edges, edges[1:])]
            assert sum(map(len, pieces)) == len(sift)
            assert sift_digest(iter(pieces)) == want, edges
        assert sift_digest(iter([sift[:0], sift, sift[:0]])) == want

    @settings(max_examples=100)
    @given(data=st.lists(st.tuples(st.booleans(), st.integers(0, 1)), max_size=67))
    def test_sample_reveal_roundtrip(self, data):
        sifted = len(data)
        sample_pos = [p for p, (chosen, _) in enumerate(data) if chosen]
        bits = [b for chosen, b in data if chosen]
        payload = encode_sample_reveal(sample_pos, sifted, bits)
        assert len(payload) == (sifted + 7) // 8 + (len(bits) + 7) // 8
        got_pos, got_bits = decode_sample_reveal(payload, sifted, len(bits))
        assert got_pos.tolist() == sample_pos
        assert got_bits.tolist() == bits

    def test_sample_reveal_validation(self):
        # 10 sifted, 2 sampled: a 2-byte sample bitmap, then a 1-byte bit bitmap
        good = encode_sample_reveal([3, 9], 10, [1, 1])
        assert good == b"\x08\x02\x03"
        bad = [
            (encode_sample_reveal([3, 4, 9], 10, [1, 1]), "sample size"),
            (good[:-1], "bitmap length"),
            (good + b"\x00", "bitmap length"),
            (b"", "bitmap length"),
            (_patched(good, 1, b"\x06"), "padding"),  # position 10 of 10
            (_patched(good, 2, b"\x07"), "padding"),  # a third sample bit
        ]
        for payload, detail in bad:
            with pytest.raises(ProtocolViolation, match=detail):
                decode_sample_reveal(payload, 10, 2)

    def test_parity_round_roundtrip(self):
        seed, bits = decode_parity_round(encode_parity_round(909, [1, 0, 1]), 3)
        assert seed == 909
        assert bits.tolist() == [1, 0, 1]
        with pytest.raises(ProtocolViolation):
            decode_parity_round(b"\x00" * 7, 0)

    def test_block_parity_roundtrip(self):
        r, bits = decode_block_parity(encode_block_parity(19, [0, 1]), 2)
        assert r == 19
        assert bits.tolist() == [0, 1]
        with pytest.raises(ProtocolViolation):
            decode_block_parity(b"\x00\x00", 0)

    def test_json_payloads(self):
        assert decode_json(encode_json({"a": 1})) == {"a": 1}
        with pytest.raises(ProtocolViolation):
            decode_json(b"[1, 2]")
        with pytest.raises(ProtocolViolation):
            decode_json(b"\xff\xfe")
        with pytest.raises(ProtocolViolation):
            decode_json(b"{not json")

    def test_frame_size_cap(self):
        with pytest.raises(ValueError):
            encode_frame(FrameType.QUDIT, b"\x00" * ((1 << 26) + 1))


class TestLink:
    def test_mirrored_transcripts(self):
        sa, sb = socket.socketpair()
        la, lb = Link(sa), Link(sb)
        la.send(FrameType.CONFIG, b'{"x": 1}')
        la.send(FrameType.QUDIT, b"\x00\x01\x00")
        for want in (FrameType.CONFIG, FrameType.QUDIT):
            got, _ = lb.recv()
            assert got == want
        assert la.tx_digest == lb.rx_digest
        assert la.tx_frames == lb.rx_frames == 2
        la.close()
        lb.close()

    def test_expect_translates_abort(self):
        sa, sb = socket.socketpair()
        la, lb = Link(sa), Link(sb)
        la.send_abort("testing")
        with pytest.raises(AbortReceived) as err:
            lb.expect(FrameType.QUDIT)
        assert err.value.reason == "testing"
        la.close()
        lb.close()

    def test_expect_rejects_wrong_type(self):
        sa, sb = socket.socketpair()
        la, lb = Link(sa), Link(sb)
        la.send(FrameType.VERDICT, b"{}")
        with pytest.raises(ProtocolViolation):
            lb.expect(FrameType.QUDIT)
        la.close()
        lb.close()

    def test_disconnect_detected(self):
        sa, sb = socket.socketpair()
        la, lb = Link(sa), Link(sb)
        la.close()
        with pytest.raises(PeerDisconnect):
            lb.recv()
        lb.close()

    def test_unknown_frame_type(self):
        sa, sb = socket.socketpair()
        lb = Link(sb)
        sa.sendall(b"\x00\x00\x00\x00\x7e")
        with pytest.raises(ProtocolViolation):
            lb.recv()
        sa.close()
        lb.close()


def _role_cfg(role: str, session: SessionConfig, k: int = 0, r: int = 1, **kw) -> RoleConfig:
    return RoleConfig(role, session, DistillParams(k, r), **kw)


def _join_or_fail(threads, socks):
    for t in threads:
        t.join(JOIN_TIMEOUT)
    stuck = [t.name for t in threads if t.is_alive()]
    if stuck:
        for s in socks:
            try:
                s.close()
            except OSError:
                pass
        for t in threads:
            t.join(5.0)
        pytest.fail(f"role threads did not finish: {stuck}")


def _run_pair(cfg_a: RoleConfig, cfg_b: RoleConfig) -> tuple[RoleReport, RoleReport]:
    sa, sb = socket.socketpair()
    out: dict[str, RoleReport] = {}
    ta = threading.Thread(
        target=lambda: out.__setitem__("a", run_alice(cfg_a, sa)), name="alice"
    )
    tb = threading.Thread(
        target=lambda: out.__setitem__("b", run_bob(cfg_b, sb)), name="bob"
    )
    ta.start()
    tb.start()
    _join_or_fail([ta, tb], [sa, sb])
    return out["a"], out["b"]


def _run_triple(
    cfg_a: RoleConfig, cfg_b: RoleConfig, cfg_e: RoleConfig
) -> tuple[RoleReport, RoleReport, RoleReport]:
    a_end, ea_end = socket.socketpair()
    b_end, eb_end = socket.socketpair()
    out: dict[str, RoleReport] = {}
    threads = [
        threading.Thread(
            target=lambda: out.__setitem__("a", run_alice(cfg_a, a_end)), name="alice"
        ),
        threading.Thread(
            target=lambda: out.__setitem__("b", run_bob(cfg_b, b_end)), name="bob"
        ),
        threading.Thread(
            target=lambda: out.__setitem__("e", run_eve(cfg_e, ea_end, eb_end)),
            name="eve",
        ),
    ]
    for t in threads:
        t.start()
    _join_or_fail(threads, [a_end, b_end, ea_end, eb_end])
    return out["a"], out["b"], out["e"]


def _expected_shared(stats, params: DistillParams | None = None) -> dict:
    shared = {
        "n": 2,
        "rounds": stats.rounds,
        "sifted": stats.sifted_count,
        "sampled": stats.sample_count,
        "e_b": [stats.e_b.successes, stats.e_b.trials],
        "e_b_all": [stats.e_b_all.successes, stats.e_b_all.trials],
        "e_c": [stats.e_c.successes, stats.e_c.trials],
        "lhs": stats.condition_lhs,
        "condition_pass": stats.condition_pass,
    }
    return shared


def _reference_keys(out, params: DistillParams, seed: int):
    """Final keys the roles must produce, derived from the in-process run."""
    labeled = LabeledKey(
        out.alice_key,
        np.zeros(len(out.alice_key), np.uint8),
        out.alice_key ^ out.bob_key,
    )
    rng = spawn_streams(seed)[STREAM_PAIRING]
    return simulate_distillation(labeled, params, rng)


class TestSessionEquivalence:
    def test_direct_run_matches_engine(self):
        seed, rounds = 101, 1500
        session = SessionConfig(n=2, rounds=rounds, seed=seed)
        params = DistillParams(1, 3)
        rep_a, rep_b = _run_pair(
            RoleConfig("alice", session, params), RoleConfig("bob", session, params)
        )
        assert rep_a.status == rep_b.status == "pass"
        assert rep_a.exit_code == rep_b.exit_code == 0

        engine = run_session(session)
        for rep in (rep_a, rep_b):
            for key, want in _expected_shared(engine.stats).items():
                assert rep.shared[key] == want, key

        ref = _reference_keys(engine, params, seed)
        assert rep_a.final_key == ref.alice_out.tolist()
        assert rep_b.final_key == ref.bob_out.tolist()
        assert rep_a.shared["survivors"] == ref.survivor_count
        assert rep_a.shared["blocks"] == ref.n_blocks
        assert rep_a.shared["disagreements"] == ref.disagreement_count
        assert rep_a.shared == rep_b.shared

    def test_transcripts_mirror(self):
        session = SessionConfig(n=2, rounds=200, seed=7)
        rep_a, rep_b = _run_pair(
            _role_cfg("alice", session), _role_cfg("bob", session)
        )
        ta, tb = rep_a.transcripts["peer"], rep_b.transcripts["peer"]
        assert ta["tx_sha256"] == tb["rx_sha256"]
        assert ta["rx_sha256"] == tb["tx_sha256"]
        assert ta["tx_frames"] == tb["rx_frames"]

    def test_eve_identity_relay_is_transparent(self):
        seed = 31
        session = SessionConfig(n=2, rounds=400, seed=seed)
        params = DistillParams(1, 3)
        direct_a, direct_b = _run_pair(
            RoleConfig("alice", session, params), RoleConfig("bob", session, params)
        )
        eve_session = SessionConfig(n=2, rounds=400, seed=seed, channel="identity")
        rep_a, rep_b, rep_e = _run_triple(
            RoleConfig("alice", session, params),
            RoleConfig("bob", session, params),
            RoleConfig("eve", eve_session, params),
        )
        assert rep_e.status == "pass"
        assert rep_a.shared == direct_a.shared
        assert rep_a.final_key == direct_a.final_key
        assert rep_b.final_key == direct_b.final_key
        # identity relaying leaves even the transcript bytes unchanged
        assert (
            rep_a.transcripts["peer"]["tx_sha256"]
            == direct_a.transcripts["peer"]["tx_sha256"]
        )

    def test_eve_noise_matches_local_channel_run(self):
        seed = 55
        session = SessionConfig(n=2, rounds=2000, seed=seed)
        params = DistillParams(1, 5)
        eve_session = SessionConfig(n=2, rounds=2000, seed=seed, channel="z_flip:0.3")
        rep_a, rep_b, rep_e = _run_triple(
            RoleConfig("alice", session, params),
            RoleConfig("bob", session, params),
            RoleConfig("eve", eve_session, params),
        )
        assert rep_e.status == "pass"
        engine = run_session(
            SessionConfig(n=2, rounds=2000, seed=seed, channel="z_flip:0.3")
        )
        for key, want in _expected_shared(engine.stats).items():
            assert rep_a.shared[key] == want, key
        ref = _reference_keys(engine, params, seed)
        assert rep_a.final_key == ref.alice_out.tolist()
        assert rep_b.final_key == ref.bob_out.tolist()
        assert rep_a.shared["disagreements"] == ref.disagreement_count
        # eve's audit is the term drawn for each relayed qudit, in round order
        assert rep_e.extra["audit_terms"] == _drawn_terms(engine, "z_flip:0.3", seed)

    def test_report_json_form(self):
        # seed 0 keeps the tiny error sample nonempty so the run passes
        session = SessionConfig(n=2, rounds=100, seed=0)
        rep_a, _ = _run_pair(_role_cfg("alice", session), _role_cfg("bob", session))
        blob = json.loads(json.dumps(rep_a.to_json_dict()))
        assert blob["role"] == "alice"
        assert blob["status"] == "pass"


class TestAbortPaths:
    def test_config_mismatch(self):
        session = SessionConfig(n=2, rounds=100, seed=0)
        rep_a, rep_b = _run_pair(
            _role_cfg("alice", session, k=1, r=3), _role_cfg("bob", session, k=2, r=3)
        )
        assert rep_b.status == "config-mismatch"
        assert rep_b.exit_code == 1
        assert rep_a.status == "peer-abort:config-mismatch"
        assert rep_a.exit_code == 1

    @pytest.mark.parametrize(
        "n, eve_n, eve_rounds",
        [(2, 3, 5000), (3, 2, 5000), (2, 2, 3000)],
        ids=["eve-wider-field", "eve-narrower-field", "eve-fewer-rounds"],
    )
    def test_eve_config_mismatch(self, n, eve_n, eve_rounds):
        # eve decodes kets by her own n and sizes windows by her own rounds,
        # so she must not relay a session that differs in either
        session = SessionConfig(n=n, rounds=5000, seed=4)
        eve_session = SessionConfig(n=eve_n, rounds=eve_rounds, seed=4, channel="z_flip:0.1")
        rep_a, rep_b, rep_e = _run_triple(
            _role_cfg("alice", session),
            _role_cfg("bob", session),
            _role_cfg("eve", eve_session),
        )
        assert rep_e.status == rep_e.abort_sent == "config-mismatch"
        assert rep_e.exit_code == 1
        assert rep_e.extra["audit_terms"] == []
        for rep in (rep_a, rep_b):
            assert rep.status == "peer-abort:config-mismatch"
            assert rep.exit_code == 1
            assert rep.shared is None

    def test_insufficient_sift(self):
        session = SessionConfig(n=4, rounds=3, seed=0)
        rep_a, rep_b = _run_pair(_role_cfg("alice", session), _role_cfg("bob", session))
        for rep in (rep_a, rep_b):
            assert rep.status == "insufficient-sift"
            assert rep.exit_code == 1
            assert rep.abort_sent == "insufficient-sift"

    def test_condition_failure_aborts_both_sides(self):
        # relayed full dephasing with a seed whose sample error sits
        # above 1/2, so the strict continuation gate trips
        seed = 2
        session = SessionConfig(n=2, rounds=4000, seed=seed)
        eve_session = SessionConfig(n=2, rounds=4000, seed=seed, channel="full_dephase")
        rep_a, rep_b, rep_e = _run_triple(
            _role_cfg("alice", session),
            _role_cfg("bob", session),
            _role_cfg("eve", eve_session),
        )
        for rep in (rep_a, rep_b):
            assert rep.status == ABORT_CONDITION
            assert rep.exit_code == 2
            assert rep.abort_sent == ABORT_CONDITION
            assert not rep.shared["condition_pass"]
        assert rep_e.status == "pass"

    def test_eve_report_is_reproducible(self):
        # after the mutual condition aborts one receiver may close before
        # eve's last frame reaches it; that ends the pipe like a disconnect
        session = SessionConfig(n=3, rounds=5000, seed=5003)
        eve_session = SessionConfig(n=3, rounds=5000, seed=5003, channel="full_dephase")
        blobs = []
        for _ in range(10):
            _, _, rep_e = _run_triple(
                _role_cfg("alice", session),
                _role_cfg("bob", session),
                _role_cfg("eve", eve_session),
            )
            assert rep_e.extra["io_notes"] == []
            blobs.append(json.dumps(rep_e.to_json_dict(), sort_keys=True))
        assert len(set(blobs)) == 1

    @pytest.mark.parametrize("reason, exit_code", [(ABORT_PROTOCOL, 1), (ABORT_CONDITION, 2)])
    @pytest.mark.parametrize("runner", [run_alice, run_bob], ids=["alice", "bob"])
    def test_abort_before_a_failed_send_is_reported(self, runner, reason, exit_code):
        # the peer aborts and closes, so the role's next send (alice's
        # CONFIG, bob's CONFIG reply) fails with the ABORT still unread
        cfg = _role_cfg("alice", SessionConfig(n=2, rounds=50, seed=0))
        mine, theirs = socket.socketpair()
        peer = Link(theirs)
        if runner is run_bob:
            peer.send(FrameType.CONFIG, encode_json(handshake_facts(cfg)))
        peer.send_abort(reason)
        peer.close()
        rep = runner(cfg, mine)
        assert rep.status == f"peer-abort:{reason}"
        assert rep.exit_code == exit_code

    def test_insufficient_key(self):
        session = SessionConfig(n=2, rounds=200, seed=3)
        rep_a, rep_b = _run_pair(
            _role_cfg("alice", session, k=5, r=999),
            _role_cfg("bob", session, k=5, r=999),
        )
        for rep in (rep_a, rep_b):
            assert rep.status == "insufficient-key"
            assert rep.exit_code == 1
            assert rep.abort_sent == "insufficient-key"


class TestBoundaryVerdict:
    """A sample planted on the continuation boundary gets one exact verdict."""

    @pytest.mark.parametrize("n, e_b_counts", [(2, (1, 4)), (3, (1, 3))])
    def test_engine_and_roles_agree(self, monkeypatch, n, e_b_counts):
        # e_c = 4/5 with these e_b puts the exact left side on 1/2, where
        # the float one reads 0.49999999999999994.  Both ends tally these
        # rounds in one chunk or window and estimate through
        # protocol.estimate_session, so each plant reaches both
        planted = RateEstimate.from_counts(*e_b_counts)
        tally = protocol.Tally.of
        monkeypatch.setattr(
            protocol.Tally, "of", staticmethod(lambda *cols: tally(*cols)._replace(ec=(4, 5)))
        )
        monkeypatch.setattr(protocol, "sample_rates", lambda *cols: (planted, planted))
        session = SessionConfig(n=n, rounds=3000, seed=11)
        engine = run_session(session).stats
        assert engine.condition_lhs == 0.49999999999999994
        assert engine.condition_pass is False
        rep_a, rep_b = _run_pair(_role_cfg("alice", session), _role_cfg("bob", session))
        for rep in (rep_a, rep_b):
            assert rep.shared["lhs"] == engine.condition_lhs
            assert rep.shared["condition_pass"] is False
            assert rep.status == ABORT_CONDITION


class TestRunRoleTopology:
    @staticmethod
    def _free_port() -> int:
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        return port

    def test_direct_tcp(self):
        seed = 77
        session = SessionConfig(n=2, rounds=300, seed=seed)
        params = DistillParams(0, 1)
        port = self._free_port()
        out: dict[str, RoleReport] = {}
        tb = threading.Thread(
            target=lambda: out.__setitem__(
                "b",
                run_role(RoleConfig("bob", session, params, listen=f"127.0.0.1:{port}")),
            ),
            name="bob",
        )
        tb.start()
        out["a"] = run_role(
            RoleConfig("alice", session, params, connect_bob=f"127.0.0.1:{port}")
        )
        _join_or_fail([tb], [])
        sock_a, sock_b = _run_pair(
            RoleConfig("alice", session, params), RoleConfig("bob", session, params)
        )
        assert out["a"].status == "pass"
        assert out["a"].shared == sock_a.shared
        assert out["b"].final_key == sock_b.final_key

    def test_eve_tcp_topology(self):
        seed = 88
        session = SessionConfig(n=2, rounds=300, seed=seed)
        eve_session = SessionConfig(n=2, rounds=300, seed=seed, channel="z_flip:0.3")
        params = DistillParams(0, 1)
        pa, pb = self._free_port(), self._free_port()
        out: dict[str, RoleReport] = {}
        threads = [
            threading.Thread(
                target=lambda: out.__setitem__(
                    "a",
                    run_role(
                        RoleConfig("alice", session, params, listen=f"127.0.0.1:{pa}")
                    ),
                ),
                name="alice",
            ),
            threading.Thread(
                target=lambda: out.__setitem__(
                    "b",
                    run_role(RoleConfig("bob", session, params, listen=f"127.0.0.1:{pb}")),
                ),
                name="bob",
            ),
        ]
        for t in threads:
            t.start()
        out["e"] = run_role(
            RoleConfig(
                "eve",
                eve_session,
                params,
                connect_alice=f"127.0.0.1:{pa}",
                connect_bob=f"127.0.0.1:{pb}",
            )
        )
        _join_or_fail(threads, [])
        assert out["a"].status == "pass"
        assert out["e"].status == "pass"
        engine = run_session(
            SessionConfig(n=2, rounds=300, seed=seed, channel="z_flip:0.3")
        )
        assert out["a"].shared["e_b"] == [
            engine.stats.e_b.successes,
            engine.stats.e_b.trials,
        ]

    def test_missing_endpoints_rejected(self):
        session = SessionConfig(n=2, rounds=10, seed=0)
        params = DistillParams(0, 1)
        with pytest.raises(ValueError):
            run_role(RoleConfig("alice", session, params))
        with pytest.raises(ValueError):
            run_role(RoleConfig("bob", session, params))
        with pytest.raises(ValueError):
            run_role(RoleConfig("eve", session, params, connect_alice="127.0.0.1:1"))

    def test_bad_role_rejected(self):
        with pytest.raises(ValueError):
            RoleConfig("mallory", SessionConfig(), DistillParams(0, 1))


class TestFuzzing:
    """Rogue peers must produce clean aborts, never hangs or crashes."""

    ACCEPTABLE = ("protocol-error", "peer-disconnect", "config-mismatch")

    def _fuzz_role(self, runner, payloads: list[bytes]) -> RoleReport:
        sa, sb = socket.socketpair()
        session = SessionConfig(n=2, rounds=50, seed=0)
        cfg = RoleConfig("alice", session, DistillParams(0, 1))
        out: dict[str, RoleReport] = {}
        name = "alice" if runner is run_alice else "bob"
        t = threading.Thread(
            target=lambda: out.__setitem__("r", runner(cfg, sa)), name=name
        )
        t.start()
        try:
            for chunk in payloads:
                sb.sendall(chunk)
        except OSError:
            pass
        sb.close()
        _join_or_fail([t], [sa])
        return out["r"]

    def test_random_bytes_against_bob(self):
        rng = np.random.default_rng(0)
        for trial in range(8):
            blob = rng.integers(0, 256, size=int(rng.integers(1, 400)), dtype=np.uint8)
            rep = self._fuzz_role(run_bob, [blob.tobytes()])
            assert rep.status in self.ACCEPTABLE or rep.status.startswith("peer-abort")
            assert rep.exit_code == 1

    def test_random_bytes_against_alice(self):
        rng = np.random.default_rng(1)
        for trial in range(8):
            blob = rng.integers(0, 256, size=int(rng.integers(1, 400)), dtype=np.uint8)
            rep = self._fuzz_role(run_alice, [blob.tobytes()])
            assert rep.status in self.ACCEPTABLE or rep.status.startswith("peer-abort")
            assert rep.exit_code == 1

    def test_truncated_stream_mid_handshake(self):
        rep = self._fuzz_role(run_alice, [b"\x00\x00\x00\x10\x09"])
        assert rep.status in self.ACCEPTABLE
        assert rep.exit_code == 1

    def test_valid_handshake_then_garbage(self):
        """Echo alice's own CONFIG to pass the handshake, then corrupt."""
        sa, sb = socket.socketpair()
        session = SessionConfig(n=2, rounds=50, seed=0)
        cfg = RoleConfig("alice", session, DistillParams(0, 1))
        out: dict[str, RoleReport] = {}
        t = threading.Thread(
            target=lambda: out.__setitem__("r", run_alice(cfg, sa)), name="alice"
        )
        t.start()
        probe = Link(sb)
        try:
            payload = probe.expect(FrameType.CONFIG)
            probe.send(FrameType.CONFIG, payload)
            probe.expect(FrameType.QUDIT)
            # wrong frame in the round phase: alice expects OUTCOME_ANNOUNCE
            probe.send(FrameType.BLOCK_PARITY, b"\x00\x00\x00\x01")
        except (ProtocolViolation, PeerDisconnect, AbortReceived, OSError):
            pass
        probe.close()
        _join_or_fail([t], [sa])
        rep = out["r"]
        assert rep.status in ("protocol-error", "peer-disconnect")
        assert rep.exit_code == 1

    def test_oversized_frame_header(self):
        header = (1 << 27).to_bytes(4, "big") + b"\x01"
        rep = self._fuzz_role(run_bob, [header])
        assert rep.status in self.ACCEPTABLE
        assert rep.exit_code == 1

    @staticmethod
    def _probe_role(runner, cfg: RoleConfig, script) -> RoleReport:
        """Run one role against a scripted probe peer on a socketpair."""
        sa, sb = socket.socketpair()
        out: dict[str, RoleReport] = {}
        t = threading.Thread(target=lambda: out.__setitem__("r", runner(cfg, sa)))
        t.start()
        probe = Link(sb)
        try:
            script(probe)
        except (ProtocolViolation, PeerDisconnect, AbortReceived, OSError):
            pass
        _join_or_fail([t], [sa])
        probe.close()
        return out["r"]

    @staticmethod
    def _mangle(payload: bytes, record: int, how: str) -> bytes:
        if how == "short":
            return payload[:-record]
        if how == "long":
            return payload + payload[:record]
        # the first record's first index becomes 0xFFFF
        return b"\xff\xff" + payload[2:]

    BATCH_FAULTS = ("short", "long", "corrupt")

    @pytest.mark.parametrize("how", BATCH_FAULTS)
    def test_bad_qudit_batch_against_bob(self, how):
        cfg = _role_cfg("bob", SessionConfig(n=2, rounds=50, seed=0))

        def script(link):
            link.send(FrameType.CONFIG, encode_json(handshake_facts(cfg)))
            link.expect(FrameType.CONFIG)
            kets = encode_qudit_batch(np.zeros(50), np.ones(50), np.zeros(50))
            link.send(FrameType.QUDIT, self._mangle(kets, 6, how))
            link.expect(FrameType.OUTCOME_ANNOUNCE)

        rep = self._probe_role(run_bob, cfg, script)
        assert rep.status == "protocol-error"
        assert rep.exit_code == 1

    @pytest.mark.parametrize("how", BATCH_FAULTS)
    def test_bad_outcome_batch_against_alice(self, how):
        cfg = _role_cfg("alice", SessionConfig(n=2, rounds=50, seed=0))

        def script(link):
            link.send(FrameType.CONFIG, link.expect(FrameType.CONFIG))
            link.expect(FrameType.QUDIT)
            outcomes = encode_outcome_batch(np.zeros(50), np.ones(50), np.zeros(50))
            link.send(FrameType.OUTCOME_ANNOUNCE, self._mangle(outcomes, 5, how))
            link.expect(FrameType.PAIR_ANNOUNCE)

        rep = self._probe_role(run_alice, cfg, script)
        assert rep.status == "protocol-error"
        assert rep.exit_code == 1

    @pytest.mark.parametrize("how", BATCH_FAULTS)
    def test_bad_pair_batch_against_bob(self, how):
        cfg = _role_cfg("bob", SessionConfig(n=2, rounds=50, seed=0))

        def script(link):
            link.send(FrameType.CONFIG, encode_json(handshake_facts(cfg)))
            link.expect(FrameType.CONFIG)
            kets = encode_qudit_batch(np.zeros(50), np.ones(50), np.zeros(50))
            link.send(FrameType.QUDIT, kets)
            link.expect(FrameType.OUTCOME_ANNOUNCE)
            pairs = encode_pair_batch(np.zeros(50), np.ones(50))
            link.send(FrameType.PAIR_ANNOUNCE, self._mangle(pairs, 4, how))
            link.expect(FrameType.SIFT_ACCEPT)

        rep = self._probe_role(run_bob, cfg, script)
        assert rep.status == "protocol-error"
        assert rep.exit_code == 1


class TestHostileTail:
    """A tail frame mangled in transit between two real roles."""

    # "rotate" moves sample bits of the first nonzero byte and keeps the
    # popcount, so only the receiver's check against its own draw can
    # catch it; "duplicate" forwards the frame unchanged, twice
    FAULTS = ("truncate", "extend", "empty", "flip-first", "flip-last", "rotate", "duplicate")
    # (frame, sent by alice): SIFT_ACCEPT against bob, each SAMPLE_REVEAL
    # against its receiver
    FRAMES = [
        (FrameType.SIFT_ACCEPT, True),
        (FrameType.SAMPLE_REVEAL, True),
        (FrameType.SAMPLE_REVEAL, False),
    ]
    NAMED = {
        "protocol-error",
        "condition-2-failed",
        "peer-abort:protocol-error",
        "peer-abort:condition-2-failed",
    }
    # a dropped frame may stall both sides until their socket deadline
    STALLED = {"peer-timeout", "peer-disconnect"}
    # (frame, sent by alice, fault) after the sample: each parity frame
    # and VERDICT against its receiver, every fault but "rotate", plus
    # bob's VERDICT dropped and swapped; the other frames' drops and swaps
    # each stall for the whole deadline
    TAIL = list(
        product(
            (FrameType.PARITY_ROUND, FrameType.BLOCK_PARITY, FrameType.VERDICT),
            (True, False),
            FAULTS[:5] + ("duplicate",),
        )
    ) + [(FrameType.VERDICT, False, "drop"), (FrameType.VERDICT, False, "swap")]
    # the only cases that may end with one side at "pass", always bob's:
    # his VERDICT is the session's last frame, which alice checks after
    # he has passed, and a duplicate of his BLOCK_PARITY reaches her
    # where his VERDICT belongs
    ONE_SIDED = {
        (FrameType.VERDICT, False, how) for how in FAULTS[:5] + ("drop", "swap")
    } | {(FrameType.BLOCK_PARITY, False, "duplicate")}
    # seconds each role waits for its peer's next frame
    DEADLINE = 1.0

    @staticmethod
    def _mangle(payload: bytes, how: str) -> bytes:
        if how == "truncate":
            return payload[:-1]
        if how == "extend":
            return payload + b"\x00"
        if how == "empty":
            return b""
        if how == "rotate":
            at = next(k for k, byte in enumerate(payload) if byte)
            byte = payload[at]
            return _patched(payload, at, bytes([(byte << 1 | byte >> 7) & 0xFF]))
        at = 0 if how == "flip-first" else len(payload) - 1
        return _patched(payload, at, bytes([payload[at] ^ 0xFF]))

    def _run_mangled(self, ftype, from_alice: bool, how: str):
        """Alice and bob through a relay that mangles the first ``ftype`` one of them sends.

        "drop" forwards nothing of that frame, and "swap" forwards the
        sender's next frame ahead of it.
        """
        # 482 sifted, 48 sampled: flipping the last byte flips eight sample bits
        session = SessionConfig(n=2, rounds=3000, seed=15)
        params = DistillParams(1, 3)
        a_end, relay_a = socket.socketpair()
        b_end, relay_b = socket.socketpair()
        a_end.settimeout(self.DEADLINE)
        b_end.settimeout(self.DEADLINE)
        la, lb = Link(relay_a), Link(relay_b)
        out: dict[str, RoleReport] = {}

        def relay(src: Link, dst: Link, pending: bool) -> None:
            held = []
            try:
                while True:
                    got, payload = src.recv()
                    if pending and got == ftype:
                        pending = False
                        if how == "swap":
                            held.append((got, payload))
                        if how in ("drop", "swap"):
                            continue
                        if how == "duplicate":
                            dst.send(got, payload)
                        else:
                            payload = self._mangle(payload, how)
                    dst.send(got, payload)
                    while held:
                        dst.send(*held.pop())
            except (ProtocolViolation, OSError):
                pass
            finally:
                dst.close_write()

        cfg_a, cfg_b = RoleConfig("alice", session, params), RoleConfig("bob", session, params)
        threads = [
            threading.Thread(target=lambda: out.__setitem__("a", run_alice(cfg_a, a_end))),
            threading.Thread(target=lambda: out.__setitem__("b", run_bob(cfg_b, b_end))),
            threading.Thread(target=relay, args=(la, lb, from_alice)),
            threading.Thread(target=relay, args=(lb, la, not from_alice)),
        ]
        for t in threads:
            t.start()
        _join_or_fail(threads, [a_end, b_end, relay_a, relay_b])
        la.close()
        lb.close()
        return out["a"], out["b"]

    @pytest.mark.parametrize("how", FAULTS)
    @pytest.mark.parametrize(
        "ftype, from_alice", FRAMES, ids=["sift-to-bob", "reveal-to-bob", "reveal-to-alice"]
    )
    def test_ends_in_a_named_status(self, ftype, from_alice, how):
        # a decode check, the frame-order check, the echo check or the
        # VERDICT cross-check trips; neither side may pass, let alone
        # with a key the other lacks
        rep_a, rep_b = self._run_mangled(ftype, from_alice, how)
        assert {rep_a.status, rep_b.status} <= self.NAMED
        assert "protocol-error" in (rep_a.status, rep_b.status)

    def test_swapped_sift_accept(self):
        # bob reads alice's SAMPLE_REVEAL where her SIFT_ACCEPT belongs
        rep_a, rep_b = self._run_mangled(FrameType.SIFT_ACCEPT, True, "swap")
        assert (rep_a.status, rep_b.status) == ("peer-abort:protocol-error", "protocol-error")

    @pytest.mark.parametrize("how", FAULTS[:5])
    def test_mangled_alice_verdict(self, how):
        # bob checks alice's VERDICT before he answers, so he aborts in
        # place of sending his own and neither side passes
        rep_a, rep_b = self._run_mangled(FrameType.VERDICT, True, how)
        assert (rep_a.status, rep_b.status) == ("peer-abort:protocol-error", "protocol-error")
        assert rep_a.final_key is None and rep_b.final_key is None

    @pytest.mark.parametrize(
        "ftype, from_alice, how",
        TAIL,
        ids=[f"{f.name.lower()}-to-{'bob' if a else 'alice'}-{how}" for f, a, how in TAIL],
    )
    def test_tail_frame_ends_one_sided_only_where_listed(self, ftype, from_alice, how):
        rep_a, rep_b = self._run_mangled(ftype, from_alice, how)
        assert {rep_a.status, rep_b.status} <= self.NAMED | self.STALLED | {"pass"}
        passed = (rep_a.status == "pass", rep_b.status == "pass")
        if (ftype, from_alice, how) in self.ONE_SIDED:
            assert passed == (False, True)
        else:
            assert passed[0] == passed[1]
        if all(passed):
            assert rep_a.final_key == rep_b.final_key

    @pytest.mark.parametrize(
        "ftype, how, detail",
        [
            (FrameType.SAMPLE_REVEAL, "rotate", "sample"),
            (FrameType.PARITY_ROUND, "flip-first", "seed"),
        ],
        ids=["reveal-rotate", "parity-flip-first"],
    )
    def test_follower_checks_the_leaders_draw(self, ftype, how, detail):
        # bob draws the sample and the stage seeds himself, so he rejects
        # alice's changed draw before he reveals his own bits or parities
        rep_a, rep_b = self._run_mangled(ftype, True, how)
        assert (rep_a.status, rep_b.status) == ("peer-abort:protocol-error", "protocol-error")
        assert detail in rep_b.extra["detail"]

    def test_one_sided_cases(self):
        assert len(self.ONE_SIDED) == 8
        assert self.ONE_SIDED <= set(self.TAIL)

    @pytest.mark.parametrize(
        "ftype, from_alice", FRAMES, ids=["sift-to-bob", "reveal-to-bob", "reveal-to-alice"]
    )
    def test_dropped_frame_ends_in_a_named_status(self, ftype, from_alice):
        # a lost SIFT_ACCEPT puts the next frame out of order; a lost
        # SAMPLE_REVEAL leaves both sides waiting until their deadline
        rep_a, rep_b = self._run_mangled(ftype, from_alice, "drop")
        assert {rep_a.status, rep_b.status} <= self.NAMED | self.STALLED


def _patched(payload: bytes, offset: int, data: bytes) -> bytes:
    return payload[:offset] + data + payload[offset + len(data) :]


class TestBatchCodecs:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_records_equal_per_round_encodings(self, n):
        spec = field_spec(n)
        order = spec.order
        rng = np.random.default_rng(n)
        kets = [SparseKet.pair(spec, 0, order - 1, 1), SparseKet.single(spec, order - 1)]
        for _ in range(60):
            i, j = sorted(rng.choice(order, 2, replace=False).tolist())
            kets.append(SparseKet.pair(spec, i, j, int(rng.integers(2))))
            kets.append(SparseKet.single(spec, int(rng.integers(order))))
        k1 = [k.terms[0][0] for k in kets]
        k2 = [k.terms[1][0] if len(k.terms) == 2 else -1 for k in kets]
        sigma = [int(k.relative_sign() == -1) for k in kets]
        payload = encode_qudit_batch(np.array(k1), np.array(k2), np.array(sigma))
        for r, ket in enumerate(kets):
            # a single-term ket is its serialized term padded by (0xFFFF, +)
            want = serialize_ket(ket) + b"\xff\xff\x00" * (2 - len(ket.terms))
            assert payload[6 * r : 6 * r + 6] == want
        got = decode_qudit_batch(payload, len(kets), order)
        assert [col.tolist() for col in got] == [k1, k2, sigma]

        u, v = map(list, zip(*(k.indices for k in kets if len(k.terms) == 2)))
        category = rng.integers(0, 2, len(u)).tolist()
        payload = encode_outcome_batch(np.array(u), np.array(v), np.array(category))
        assert payload == b"".join(
            encode_outcome_announce(a, b, c) for a, b, c in zip(u, v, category)
        )
        got = decode_outcome_batch(payload, len(u), order)
        assert [col.tolist() for col in got] == [u, v, category]

        payload = encode_pair_batch(np.array(u), np.array(v))
        assert payload == b"".join(encode_pair(a, b) for a, b in zip(u, v))
        got = decode_pair_batch(payload, len(u), order)
        assert [col.tolist() for col in got] == [u, v]

    def test_qudit_batch_validation(self):
        # records: {0, 3} with sign -, the single-term ket {1}, {2, 3}
        good = encode_qudit_batch(
            np.array([0, 1, 2]), np.array([3, -1, 3]), np.array([1, 0, 0])
        )
        assert decode_qudit_batch(good, 3, 4)[1].tolist() == [3, -1, 3]
        bad = [
            (good[:-6], 3),  # a record short
            (good + good[:6], 3),  # a record long
            (good, 2),  # window length disagrees
            (_patched(good, 2, b"\x01"), 3),  # leading sign not +
            (_patched(good, 11, b"\x01"), 3),  # single-term ket with a sign
            (_patched(good, 5, b"\x02"), 3),  # sign byte not 0 or 1
            (_patched(good, 3, b"\x00\x00"), 3),  # i == j
            (_patched(good, 12, b"\x00\x04"), 3),  # i > j
            (_patched(good, 3, b"\x00\x04"), 3),  # j >= order
            (_patched(good, 6, b"\x00\x04"), 3),  # single index >= order
            (_patched(good, 6, b"\xff\xff"), 3),  # single index 0xFFFF
        ]
        for payload, count in bad:
            with pytest.raises(ProtocolViolation):
                decode_qudit_batch(payload, count, 4)

    def test_outcome_batch_validation(self):
        good = encode_outcome_batch(np.array([0, 1]), np.array([2, 3]), np.array([0, 1]))
        assert decode_outcome_batch(good, 2, 4)[2].tolist() == [0, 1]
        bad = [
            (good[:-5], 2),
            (good + good[:5], 2),
            (_patched(good, 4, b"\x02"), 2),  # category 2
            (_patched(good, 0, b"\x00\x02"), 2),  # u == v
            (_patched(good, 2, b"\x00\x04"), 2),  # v >= order
            (_patched(good, 7, b"\xff\xff"), 2),  # v = 0xFFFF
        ]
        for payload, count in bad:
            with pytest.raises(ProtocolViolation):
                decode_outcome_batch(payload, count, 4)

    def test_pair_batch_validation(self):
        good = encode_pair_batch(np.array([0, 1]), np.array([2, 3]))
        assert decode_pair_batch(good, 2, 4)[0].tolist() == [0, 1]
        bad = [
            (good[:-4], 2),
            (good + good[:4], 2),
            (_patched(good, 0, b"\x00\x03"), 2),  # i > j
            (_patched(good, 6, b"\x00\x04"), 2),  # j >= order
            (_patched(good, 4, b"\xff\xff"), 2),  # i = 0xFFFF
        ]
        for payload, count in bad:
            with pytest.raises(ProtocolViolation):
                decode_pair_batch(payload, count, 4)


def _drawn_terms(engine, channel: str, seed: int) -> list[int]:
    """The channel term ``transmit`` draws for each of the engine's prepared kets."""
    log = engine.log
    model = resolve_channel(channel, field_spec(2))
    rng = spawn_streams(seed)[protocol.STREAM_CHANNEL]
    return protocol.transmit(model, log.alice_i, log.alice_j, log.alice_s, rng)[3].tolist()


def _engine_status(stats, params: DistillParams) -> str:
    """The status both wire endpoints must end with for this engine run."""
    if stats.status == "insufficient-sift":
        return "insufficient-sift"
    if not stats.condition_pass:
        return ABORT_CONDITION
    if stats.key_length < params.min_length:
        return "insufficient-key"
    return "pass"


class TestWindowBoundaries:
    """Criterion 9 at window edges: keys and facts equal the engine's."""

    @pytest.mark.parametrize("rounds", [1, WINDOW - 1, WINDOW, WINDOW + 1, 2 * WINDOW + 17])
    @pytest.mark.parametrize("channel", [None, "z_flip:0.3", "partial_intercept:0.4"])
    def test_matches_engine(self, rounds, channel):
        seed = 13
        params = DistillParams(1, 3)
        session = SessionConfig(n=2, rounds=rounds, seed=seed)
        cfg_a = RoleConfig("alice", session, params)
        cfg_b = RoleConfig("bob", session, params)
        if channel is None:
            rep_a, rep_b = _run_pair(cfg_a, cfg_b)
        else:
            eve_session = SessionConfig(n=2, rounds=rounds, seed=seed, channel=channel)
            rep_a, rep_b, rep_e = _run_triple(
                cfg_a, cfg_b, RoleConfig("eve", eve_session, params)
            )
            assert rep_e.status == "pass"
        engine = run_session(
            SessionConfig(n=2, rounds=rounds, seed=seed, channel=channel or "identity")
        )
        if channel is not None:
            assert rep_e.extra["audit_terms"] == _drawn_terms(engine, channel, seed)
        assert rep_a.status == rep_b.status == _engine_status(engine.stats, params)
        if engine.stats.status == "ok":
            for key, want in _expected_shared(engine.stats).items():
                assert rep_a.shared[key] == want, key
            assert rep_a.shared == rep_b.shared
        if rep_a.status == "pass":
            ref = _reference_keys(engine, params, seed)
            assert rep_a.final_key == ref.alice_out.tolist()
            assert rep_b.final_key == ref.bob_out.tolist()
            assert rep_a.shared["disagreements"] == ref.disagreement_count

    def test_round_phase_frames_per_window(self):
        rounds = 2 * WINDOW + 17
        session = SessionConfig(n=2, rounds=rounds, seed=4)
        rep_a, _ = _run_pair(_role_cfg("alice", session), _role_cfg("bob", session))
        assert rep_a.status == "pass"
        # CONFIG, 3 windows of QUDIT + PAIR_ANNOUNCE, SIFT, SAMPLE, BLOCK, VERDICT
        assert rep_a.transcripts["peer"]["tx_frames"] == 1 + 3 * 2 + 4


class TestRoleTally:
    """Each role tallies its windows and keeps only its own bits of the sifted rounds."""

    @pytest.mark.parametrize("rounds", [WINDOW + 1, 3 * WINDOW + 5])
    def test_roles_hold_the_engines_sifted_rounds(self, monkeypatch, rounds):
        seen = {}
        tail = roles._session_tail

        def capture(report, link, cfg, streams, tally, digest, leader):
            seen[report.role] = tally, digest
            return tail(report, link, cfg, streams, tally, digest, leader)

        monkeypatch.setattr(roles, "_session_tail", capture)
        session = SessionConfig(n=2, rounds=rounds, seed=31)
        channel = SessionConfig(n=2, rounds=rounds, seed=31, channel="shift_noise:0.3")
        rep_a, rep_b, _ = _run_triple(
            _role_cfg("alice", session), _role_cfg("bob", session), _role_cfg("eve", channel)
        )
        engine = run_session(channel)
        log = engine.log
        sifted = np.flatnonzero(protocol.sift_mask(log.alice_i, log.alice_j, log.bob_i, log.bob_j))
        # Outside rounds are among the sifted ones, so the flags are checked
        assert not log.clicked[sifted].all()
        for rep, bits in ((rep_a, log.alice_s), (rep_b, log.bob_bit)):
            tally, digest = seen[rep.role]
            # the sift positions, through the digest fed window by window
            assert digest == reference_sift_digest(sifted)
            assert len(tally.clicked) == rep.shared["sifted"] == len(sifted)
            assert np.array_equal(tally.clicked, log.clicked[sifted])
            (my_bits,) = tally.bits
            assert my_bits.dtype == np.uint8 and np.array_equal(my_bits, bits[sifted])
            assert tally.ec == (engine.stats.e_c.successes, engine.stats.e_c.trials)
            assert rep.shared["e_c"] == list(tally.ec)

    def test_tail_leaves_my_bits_unchanged(self, monkeypatch):
        """The pairing stages shuffle the tail's own copy of the kept bits."""
        checked = []
        tail = roles._session_tail

        def guard(report, link, cfg, streams, tally, digest, leader):
            (my_bits,) = tally.bits
            before = my_bits.copy()
            tail(report, link, cfg, streams, tally, digest, leader)
            assert np.array_equal(my_bits, before)
            checked.append(report.role)

        monkeypatch.setattr(roles, "_session_tail", guard)
        session = SessionConfig(n=2, rounds=WINDOW + 1, seed=41)
        rep_a, rep_b = _run_pair(_role_cfg("alice", session, 2, 3), _role_cfg("bob", session, 2, 3))
        assert rep_a.status == rep_b.status == "pass"
        assert len(rep_a.shared["kept_per_stage"]) == 2
        assert sorted(checked) == ["alice", "bob"]


class TestDeadlines:
    """A stalled peer ends the session with peer-timeout, never a hang."""

    @pytest.mark.parametrize("runner", [run_alice, run_bob], ids=["alice", "bob"])
    def test_silent_after_handshake(self, runner):
        session = SessionConfig(n=2, rounds=50, seed=0)
        cfg = _role_cfg("alice" if runner is run_alice else "bob", session)
        sa, sb = socket.socketpair()
        sa.settimeout(0.5)
        out: dict[str, RoleReport] = {}
        t = threading.Thread(target=lambda: out.__setitem__("r", runner(cfg, sa)))
        started = time.monotonic()
        t.start()
        probe = Link(sb)
        if runner is run_alice:
            probe.send(FrameType.CONFIG, probe.expect(FrameType.CONFIG))
        else:
            probe.send(FrameType.CONFIG, encode_json(handshake_facts(cfg)))
            probe.expect(FrameType.CONFIG)
        _join_or_fail([t], [sa])
        elapsed = time.monotonic() - started
        probe.close()
        assert out["r"].status == "peer-timeout"
        assert out["r"].exit_code == 1
        assert elapsed < JOIN_TIMEOUT / 10

    def test_listener_nobody_dials_times_out(self, monkeypatch):
        monkeypatch.setattr(roles, "PEER_TIMEOUT", 0.3)
        port = TestRunRoleTopology._free_port()
        cfg = _role_cfg("bob", SessionConfig(n=2, rounds=50, seed=0), listen=f"127.0.0.1:{port}")
        started = time.monotonic()
        with pytest.raises(TimeoutError):
            run_role(cfg)
        assert time.monotonic() - started < 5

    @pytest.mark.parametrize("role", ["alice", "bob"])
    def test_run_role_sockets_have_a_deadline(self, monkeypatch, role):
        monkeypatch.setattr(roles, "PEER_TIMEOUT", 0.5)
        session = SessionConfig(n=2, rounds=50, seed=0)
        port = TestRunRoleTopology._free_port()
        addr = ("127.0.0.1", port)
        out: dict[str, RoleReport] = {}
        if role == "bob":
            # bob listens; the silent peer connects and never sends CONFIG
            cfg = _role_cfg("bob", session, listen=f"127.0.0.1:{port}")
            t = threading.Thread(target=lambda: out.__setitem__("r", run_role(cfg)))
            t.start()
            silent = roles._connect(addr)
        else:
            # alice dials a listener that accepts and never answers
            server = socket.create_server(addr)
            cfg = _role_cfg("alice", session, connect_bob=f"127.0.0.1:{port}")
            t = threading.Thread(target=lambda: out.__setitem__("r", run_role(cfg)))
            t.start()
            silent, _ = server.accept()
            server.close()
        _join_or_fail([t], [silent])
        silent.close()
        assert out["r"].status == "peer-timeout"
        assert out["r"].exit_code == 1

    def test_eve_between_silent_peers(self):
        session = SessionConfig(n=2, rounds=50, seed=0)
        a_end, eve_a = socket.socketpair()
        b_end, eve_b = socket.socketpair()
        eve_a.settimeout(0.3)
        eve_b.settimeout(0.3)
        out: dict[str, RoleReport] = {}
        t = threading.Thread(
            target=lambda: out.__setitem__("e", run_eve(_role_cfg("eve", session), eve_a, eve_b))
        )
        started = time.monotonic()
        t.start()
        _join_or_fail([t], [eve_a, eve_b])
        elapsed = time.monotonic() - started
        a_end.close()
        b_end.close()
        report = out["e"]
        assert (report.status, report.exit_code) == ("peer-timeout", 1)
        assert len(report.extra["timeouts"]) == 2
        assert report.extra["audit_terms"] == []
        assert elapsed < 3.0


class TestOversizedFrames:
    def test_qudit_window_past_the_cap_aborts(self, monkeypatch):
        # one full QUDIT window is 6 * WINDOW bytes, one byte over the cap
        monkeypatch.setattr(wire, "MAX_PAYLOAD", 6 * WINDOW - 1)
        session = SessionConfig(n=2, rounds=WINDOW, seed=0)
        rep_a, rep_b = _run_pair(_role_cfg("alice", session), _role_cfg("bob", session))
        assert (rep_a.status, rep_a.exit_code) == ("frame-too-large", 1)
        assert rep_a.abort_sent == "frame-too-large"
        assert "QUDIT" in rep_a.extra["detail"]
        assert (rep_b.status, rep_b.exit_code) == ("peer-abort:frame-too-large", 1)

    def test_sift_list_past_the_cap_completes(self, monkeypatch):
        # one QUDIT window fills the cap, and the ~10W/6 sifted rounds would
        # not fit it as 4-byte indices; the tail sends a 32-byte digest and
        # bitmaps of about W/5 bytes
        monkeypatch.setattr(wire, "MAX_PAYLOAD", 6 * WINDOW)
        seed = 0
        session = SessionConfig(n=2, rounds=10 * WINDOW, seed=seed)
        params = DistillParams(1, 3)
        rep_a, rep_b = _run_pair(
            RoleConfig("alice", session, params), RoleConfig("bob", session, params)
        )
        engine = run_session(session)
        assert 4 * engine.stats.sifted_count > wire.MAX_PAYLOAD
        assert rep_a.status == rep_b.status == "pass"
        want = _expected_shared(engine.stats)
        assert {key: rep_a.shared[key] for key in want} == want
        assert rep_a.shared == rep_b.shared
        ref = _reference_keys(engine, params, seed)
        assert rep_a.final_key == ref.alice_out.tolist()
        assert rep_b.final_key == ref.bob_out.tolist()


class TestEngineEquivalenceGrid:
    """Wire roles against the engine beyond n = 2 and k <= 1."""

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("n", [3, 4])
    def test_roles_match_engine(self, n, k):
        seed = 23
        session = SessionConfig(n=n, rounds=10_000, seed=seed, sample_fraction=0.37)
        params = DistillParams(k, 3 if k else 1)
        rep_a, rep_b = _run_pair(
            RoleConfig("alice", session, params), RoleConfig("bob", session, params)
        )
        engine = run_session(session)
        want = dict(_expected_shared(engine.stats), n=n)
        for rep in (rep_a, rep_b):
            assert {key: rep.shared[key] for key in want} == want
        assert engine.stats.condition_pass
        assert rep_a.status == rep_b.status == "pass"
        ref = _reference_keys(engine, params, seed)
        assert rep_a.final_key == ref.alice_out.tolist()
        assert rep_b.final_key == ref.bob_out.tolist()
        assert rep_a.shared["kept_per_stage"] == [s.kept for s in ref.stages]
        assert rep_a.shared["survivors"] == ref.survivor_count
        assert rep_a.shared["blocks"] == ref.n_blocks
        assert rep_a.shared["disagreements"] == ref.disagreement_count
        assert rep_a.shared == rep_b.shared


class TestSampleRevealChecks:
    """Bob rejects a tail that does not fit his own sift list."""

    # alice's pair equals bob's on the even rounds: 25 sifted, floor(0.1 * 25) = 2 sampled
    SIFTED = np.arange(0, 50, 2)
    DIGEST = reference_sift_digest(SIFTED)
    GOOD = encode_sample_reveal([3, 9], 25, [0, 0])

    @pytest.mark.parametrize(
        "sift_accept, reveal, detail",
        [
            (DIGEST, encode_sample_reveal([3, 4, 9], 25, [0, 0]), "sample size"),
            (DIGEST, GOOD[:-1], "bitmap length"),
            (DIGEST, GOOD + b"\x00", "bitmap length"),
            (DIGEST, _patched(GOOD, 3, b"\x80"), "padding"),
            (DIGEST, _patched(GOOD, 4, b"\x04"), "padding"),
            (SIFTED.astype(">u4").tobytes(), GOOD, "sift list"),
        ],
        ids=["popcount", "short", "long", "sample-padding", "bits-padding", "index-list"],
    )
    def test_bad_tail_against_bob(self, sift_accept, reveal, detail):
        cfg = _role_cfg("bob", SessionConfig(n=2, rounds=50, seed=0))

        def script(link):
            link.send(FrameType.CONFIG, encode_json(handshake_facts(cfg)))
            link.expect(FrameType.CONFIG)
            link.send(
                FrameType.QUDIT,
                encode_qudit_batch(np.zeros(50), np.ones(50), np.zeros(50)),
            )
            u, v, _ = decode_outcome_batch(link.expect(FrameType.OUTCOME_ANNOUNCE), 50, 4)
            other = np.where(u == 0, 2, 0), np.where(u == 0, 3, 1)
            even = np.arange(50) % 2 == 0
            i, j = np.where(even, u, other[0]), np.where(even, v, other[1])
            link.send(FrameType.PAIR_ANNOUNCE, encode_pair_batch(i, j))
            link.send(FrameType.SIFT_ACCEPT, sift_accept)
            link.send(FrameType.SAMPLE_REVEAL, reveal)
            link.expect(FrameType.SAMPLE_REVEAL)

        rep = TestFuzzing._probe_role(run_bob, cfg, script)
        assert rep.status == "protocol-error"
        assert rep.exit_code == 1
        assert detail in rep.extra["detail"]
