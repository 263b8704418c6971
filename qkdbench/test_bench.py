"""Self-tests of the benchmark's own parts.

Run from the root of a checkout:  python3 -m pytest qkdbench -q
"""

from __future__ import annotations

import json
import os
import socket
import statistics
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from quditqkd.distill import DistillParams  # noqa: E402
from quditqkd.netrun import RoleConfig, run_alice, run_bob  # noqa: E402
from quditqkd.netrun.wire import FrameType, encode_frame  # noqa: E402
from quditqkd.protocol import SessionConfig  # noqa: E402

import stats  # noqa: E402
import wiretap  # noqa: E402
import workloads  # noqa: E402


# -- frame-type-to-phase mapping ----------------------------------------------


@pytest.mark.parametrize(
    "ftype, phase",
    [
        (FrameType.CONFIG, "handshake"),
        (FrameType.QUDIT, "rounds"),
        (FrameType.OUTCOME_ANNOUNCE, "rounds"),
        (FrameType.PAIR_ANNOUNCE, "rounds"),
        (FrameType.SIFT_ACCEPT, "sift"),
        (FrameType.SAMPLE_REVEAL, "sample"),
        (FrameType.PARITY_ROUND, "parity"),
        (FrameType.BLOCK_PARITY, "block"),
        (FrameType.VERDICT, "verdict"),
        (FrameType.ABORT, "verdict"),
    ],
)
def test_phase_of_every_frame_type(ftype, phase):
    assert wiretap.phase_of(int(ftype)) == phase


def test_every_frame_type_has_a_phase():
    assert {wiretap.phase_of(int(t)) for t in FrameType} == set(wiretap.PHASES)


def test_unknown_type_byte():
    assert wiretap.phase_of(0x42) == "unknown"


def _stream():
    frames = [
        encode_frame(FrameType.CONFIG, b'{"n": 2}'),
        encode_frame(FrameType.QUDIT, b"\x00\x01\x00"),
        encode_frame(FrameType.VERDICT, b""),
        encode_frame(FrameType.SIFT_ACCEPT, bytes(70_000)),
    ]
    expected = [(int(FrameType(f[4])), len(f)) for f in frames]
    return b"".join(frames), expected


@pytest.mark.parametrize("chunk", [1, 2, 5, 7, 4096, 1 << 20])
def test_frame_tap_splits_frames_at_any_chunking(chunk):
    data, expected = _stream()
    tap = wiretap.FrameTap()
    got = []
    for pos in range(0, len(data), chunk):
        got += tap.feed(data[pos : pos + chunk])
    assert got == expected


def test_tap_socket_phases_of_a_real_session():
    rounds = 60
    session = SessionConfig(n=2, rounds=rounds, seed=5)
    params = DistillParams(1, 3)
    a, b = socket.socketpair()
    tap_a, tap_b = wiretap.TapSocket(a), wiretap.TapSocket(b)
    out = {}
    bob = threading.Thread(target=lambda: out.setdefault("bob", run_bob(
        RoleConfig("bob", session, params), tap_b)))
    bob.start()
    alice = run_alice(RoleConfig("alice", session, params), tap_a)
    bob.join(timeout=60)
    assert not bob.is_alive()
    assert alice.status == out["bob"].status == "pass"
    wa = wiretap.wire_summary(tap_a, 0.0, rounds)
    wb = wiretap.wire_summary(tap_b, 0.0, rounds)
    assert wa["frames"] == wb["frames"] and wa["bytes"] == wb["bytes"]
    assert wa["frames"]["rounds"] == 3 * rounds
    assert wa["frames_per_round"] == 3
    assert wa["frames"]["handshake"] == wa["frames"]["verdict"] == 2
    assert wa["frames"]["parity"] == 2 * params.k
    assert sum(wa["frames"].values()) == alice.transcripts["peer"]["tx_frames"] + \
        alice.transcripts["peer"]["rx_frames"]
    assert len(wa["rtt_s"]) == rounds and not wb["rtt_s"]
    assert all(s >= 0 for s in wa["seconds"].values())


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_bob_server_runs_both_roles_on_one_cpu():
    before = os.sched_getaffinity(0)
    rec = stats.Recorder()
    server = wiretap.BobServer(tracing=False)
    try:
        rec.begin("op")
        alice, bob, _ = server.session(rec, SessionConfig(n=2, rounds=60, seed=5), DistillParams(1, 3))
        assert alice.status == bob["status"] == "pass"
        assert server.cpu == min(before)
        assert os.sched_getaffinity(server._pid) == {server.cpu}
        assert os.sched_getaffinity(0) == before
    finally:
        server.stop()


# -- order statistics ---------------------------------------------------------


def test_median_known_inputs():
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([4, 1, 3, 2]) == 2.5
    assert stats.median([7.5]) == 7.5
    with pytest.raises(ValueError):
        stats.median([])


def test_percentile_known_inputs():
    assert stats.percentile([1, 2, 3, 4, 5], 50) == 3
    assert stats.percentile(range(101), 99) == 99
    assert stats.percentile([10, 20], 25) == 12.5
    assert stats.percentile([5, 1, 3], 0) == 1
    assert stats.percentile([5, 1, 3], 100) == 5
    with pytest.raises(ValueError):
        stats.percentile([1], 101)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 14.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert stats.quartile_spread([2.0] * 10) == 0.0


def test_covered_merges_overlaps_and_clips():
    assert stats.covered((0, 10), [(1, 3), (2, 4), (6, 7), (9, 12), (-5, -1)]) == 5


def test_uncovered_share_and_per_op():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    rec = stats.Recorder(clock=lambda: next(ticks))
    rec.begin("op")
    rec.call("a.f", "x", lambda: None)
    rec.call("a.f", "x", lambda: None)
    op = rec.end()
    assert op.seconds == 10.0
    assert rec.per_op("a.f", "x") == [4.0]
    assert rec.uncovered_share(op) == pytest.approx(0.6)


# -- BENCHMARK.json agrees with the code --------------------------------------


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for m in spec["end_to_end"]:
        lower = m["name"] in workloads.LOWER_IS_BETTER
        assert m["better"] == ("lower" if lower else "higher")
