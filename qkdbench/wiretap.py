"""The wire side of the benchmark: a socket stand-in and a forked bob.

``TapSocket`` is handed to ``run_alice``/``run_bob`` in place of their
socket.  It forwards every call to the real socket, timestamps
``sendall``/``recv`` and splits each direction into frames (4-byte
big-endian length, one type byte, payload) so that each frame's type
byte names the protocol phase it belongs to.  Nothing in the package
changes; the roles only ever see a socket-like object.

``BobServer`` forks one child at set-up that runs bob for every session
of the run, so alice (in the benchmark process) and bob each have an
interpreter lock of their own.  Each session gets a fresh
``socket.socketpair()``: bob's end is passed to the child with
SCM_RIGHTS over a control socket, and the child answers with bob's
report, its peak RSS and, when tracing, its own wire summary.

Both roles run on one CPU, the lowest the benchmark process may use:
the child pins itself to it for good, alice for each session.  The
roles take turns (a round is three frames of ping-pong), so one CPU
costs them nothing, while left free the scheduler sometimes places them
on two CPUs of a VM and every frame then waits for the host to wake the
other one: on a shared 2-vCPU VM that ran sessions at about 6000
rounds/s against about 10500 on one CPU, and a run's rate depended on
where the scheduler happened to put the roles.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import socket
import struct
import sys
import time
import traceback
from contextlib import contextmanager

from quditqkd.distill import DistillParams
from quditqkd.netrun import RoleConfig, run_alice, run_bob
from quditqkd.netrun.wire import FrameType
from quditqkd.protocol import SessionConfig

from stats import median, percentile

PHASES = ("handshake", "rounds", "sift", "sample", "parity", "block", "verdict")

_PHASE_OF = {
    FrameType.CONFIG: "handshake",
    FrameType.QUDIT: "rounds",
    FrameType.OUTCOME_ANNOUNCE: "rounds",
    FrameType.PAIR_ANNOUNCE: "rounds",
    FrameType.SIFT_ACCEPT: "sift",
    FrameType.SAMPLE_REVEAL: "sample",
    FrameType.PARITY_ROUND: "parity",
    FrameType.BLOCK_PARITY: "block",
    FrameType.VERDICT: "verdict",
    # An abort ends the session where a verdict would.
    FrameType.ABORT: "verdict",
}

_HEADER = struct.Struct(">IB")
# Socket calls of a role can block for a whole session at most.
SOCKET_TIMEOUT_S = 120.0


def phase_of(type_byte: int) -> str:
    """Protocol phase of a frame type byte; "unknown" for a byte no frame uses."""
    try:
        return _PHASE_OF[FrameType(type_byte)]
    except ValueError:
        return "unknown"


class FrameTap:
    """Splits one direction of a framed byte stream into whole frames."""

    def __init__(self):
        self._header = bytearray()
        self._type = 0
        self._size = 0
        self._left = 0

    def feed(self, data: bytes) -> list[tuple[int, int]]:
        """Consume bytes; return (type byte, frame bytes) of each frame completed."""
        done = []
        pos = 0
        while pos < len(data):
            if self._left == 0 and len(self._header) < _HEADER.size:
                take = min(_HEADER.size - len(self._header), len(data) - pos)
                self._header += data[pos : pos + take]
                pos += take
                if len(self._header) < _HEADER.size:
                    break
                length, self._type = _HEADER.unpack(self._header)
                self._size = _HEADER.size + length
                self._left = length
                if length == 0:
                    done.append(self._finish())
                continue
            take = min(self._left, len(data) - pos)
            self._left -= take
            pos += take
            if self._left == 0:
                done.append(self._finish())
        return done

    def _finish(self) -> tuple[int, int]:
        self._header.clear()
        return self._type, self._size


class TapSocket:
    """Socket stand-in that timestamps I/O and records every frame.

    ``frames`` holds (call start, call end, "tx"/"rx", type byte, bytes)
    for each frame whose last byte passed through a ``sendall``/``recv``.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._tx = FrameTap()
        self._rx = FrameTap()
        self.frames: list[tuple[float, float, str, int, int]] = []
        self.recv_wait = 0.0

    def sendall(self, data) -> None:
        start = time.perf_counter()
        self._sock.sendall(data)
        end = time.perf_counter()
        for ftype, size in self._tx.feed(bytes(data)):
            self.frames.append((start, end, "tx", ftype, size))

    def recv(self, bufsize: int) -> bytes:
        start = time.perf_counter()
        data = self._sock.recv(bufsize)
        end = time.perf_counter()
        self.recv_wait += end - start
        for ftype, size in self._rx.feed(data):
            self.frames.append((start, end, "rx", ftype, size))
        return data

    def shutdown(self, how) -> None:
        self._sock.shutdown(how)

    def close(self) -> None:
        self._sock.close()


def wire_summary(tap: TapSocket, began: float, rounds: int) -> dict:
    """Per-phase frames, bytes and seconds of one role's session.

    A phase's seconds run from the last frame of the phase before it
    (from ``began`` for the first) to the last frame of its own, so the
    phases partition the role's time from entry to its final frame.
    """
    frames = {p: 0 for p in PHASES}
    sizes = {p: 0 for p in PHASES}
    last_end: dict[str, float] = {}
    for _, end, _, ftype, size in tap.frames:
        phase = phase_of(ftype)
        frames[phase] = frames.get(phase, 0) + 1
        sizes[phase] = sizes.get(phase, 0) + size
        last_end[phase] = end
    seconds = {}
    prev = began
    for phase in PHASES:
        if phase in last_end:
            seconds[phase] = last_end[phase] - prev
            prev = last_end[phase]
        else:
            seconds[phase] = 0.0
    return {
        "frames": frames,
        "bytes": sizes,
        "seconds": seconds,
        "recv_wait_s": tap.recv_wait,
        "frames_per_round": frames["rounds"] / rounds,
        "rtt_s": round_trip_times(tap),
    }


def round_trip_times(tap: TapSocket) -> list[float]:
    """Seconds from each QUDIT sendall start to the next OUTCOME_ANNOUNCE received."""
    rtts = []
    sent = None
    for start, end, direction, ftype, _ in tap.frames:
        if direction == "tx" and ftype == FrameType.QUDIT:
            sent = start
        elif direction == "rx" and ftype == FrameType.OUTCOME_ANNOUNCE and sent is not None:
            rtts.append(end - sent)
            sent = None
    return rtts


def summarize_sessions(alice: list[dict], bob: list[dict]) -> dict:
    """Per-layer netrun metrics over the traced sessions of a pass."""
    out = {}
    for phase in PHASES:
        out[f"netrun.{phase}.frames"] = median(s["frames"][phase] for s in alice)
        out[f"netrun.{phase}.bytes"] = median(s["bytes"][phase] for s in alice)
    for role, sessions in (("alice", alice), ("bob", bob)):
        for phase in PHASES:
            out[f"netrun.{role}.{phase}.s"] = median(s["seconds"][phase] for s in sessions)
        out[f"netrun.{role}.recv_wait_s"] = median(s["recv_wait_s"] for s in sessions)
    out["netrun.frames_per_round"] = median(s["frames_per_round"] for s in alice)
    rtts = [r for s in alice for r in s["rtt_s"]]
    out["netrun.round_rtt_p50_us"] = percentile(rtts, 50) * 1e6
    out["netrun.round_rtt_p99_us"] = percentile(rtts, 99) * 1e6
    return out


def _session_message(session: SessionConfig, params: DistillParams) -> dict:
    return {"n": session.n, "rounds": session.rounds, "seed": session.seed,
            "k": params.k, "r": params.r}


def _role_config(role: str, msg: dict) -> RoleConfig:
    session = SessionConfig(n=msg["n"], rounds=msg["rounds"], seed=msg["seed"])
    return RoleConfig(role, session, DistillParams(msg["k"], msg["r"]))


def wire_cpu() -> int | None:
    """The CPU both roles run on; None where affinity cannot be set."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    return min(os.sched_getaffinity(0))


@contextmanager
def pinned(cpu: int | None):
    """Run the block on ``cpu`` alone, then restore the affinity it had."""
    if cpu is None:
        yield
        return
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def _serve_bob(ctrl: socket.socket, tracing: bool, cpu: int | None) -> None:
    """Child loop: one bob session per request until the parent says stop."""
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    while True:
        data, fds, _, _ = socket.recv_fds(ctrl, 1 << 16, 1)
        if not data:
            return
        msg = json.loads(data)
        if msg.get("stop"):
            return
        sock = socket.socket(fileno=fds[0])
        sock.settimeout(SOCKET_TIMEOUT_S)
        tap = TapSocket(sock) if tracing else None
        began = time.perf_counter()
        report = run_bob(_role_config("bob", msg), tap or sock)
        reply = {
            "status": report.status,
            "final_key": report.final_key,
            "shared": report.shared,
            "transcripts": report.transcripts,
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        if tap is not None:
            reply["wire"] = wire_summary(tap, began, msg["rounds"])
        ctrl.sendall(json.dumps(reply).encode())


class BobServer:
    """A forked child that plays bob against the benchmark process's alice."""

    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.first_rss_kb = None
        self.cpu = wire_cpu()
        parent, child = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            code = 0
            try:
                parent.close()
                _serve_bob(child, tracing, self.cpu)
            except BaseException:
                traceback.print_exc()
                code = 1
            finally:
                os._exit(code)
        child.close()
        parent.settimeout(SOCKET_TIMEOUT_S)
        self._ctrl = parent
        self._pid = pid

    def session(self, rec, session: SessionConfig, params: DistillParams):
        """Run one alice<->bob session; returns (alice report, bob reply, alice wire)."""
        with pinned(self.cpu):
            return self._session(rec, session, params)

    def _session(self, rec, session: SessionConfig, params: DistillParams):
        a, b = socket.socketpair()
        try:
            msg = json.dumps(_session_message(session, params)).encode()
            socket.send_fds(self._ctrl, [msg], [b.fileno()])
        finally:
            b.close()
        a.settimeout(SOCKET_TIMEOUT_S)
        tap = TapSocket(a) if self.tracing else None
        began = rec.clock()
        alice = rec.call("netrun.run_alice", f"n{session.n}-identity", run_alice,
                         _role_config("alice", _session_message(session, params)),
                         tap or a)
        rec.note(rounds=session.rounds)
        reply = self._ctrl.recv(1 << 22)
        if not reply:
            raise RuntimeError("the bob child ended without a report")
        bob = json.loads(reply)
        if self.first_rss_kb is None:
            self.first_rss_kb = bob["rss_kb"]
        wire = wire_summary(tap, began, session.rounds) if tap is not None else None
        return alice, bob, wire

    def stop(self) -> None:
        """Ask the child to exit and reap it, killing it if it does not end."""
        try:
            self._ctrl.send(json.dumps({"stop": True}).encode())
        except OSError:
            pass
        self._ctrl.close()
        deadline = time.monotonic() + 30.0
        while True:
            pid, _ = os.waitpid(self._pid, os.WNOHANG)
            if pid:
                return
            if time.monotonic() > deadline:
                os.kill(self._pid, signal.SIGKILL)
                os.waitpid(self._pid, 0)
                return
            time.sleep(0.01)
