"""State machines for the networked protocol roles.

Alice and Bob run the session lock-step over one framed link: a CONFIG
handshake, then the round phase in windows of :data:`WINDOW` rounds (the
last window holds the remainder), each one QUDIT frame (alice), one
OUTCOME_ANNOUNCE frame (bob) and one PAIR_ANNOUNCE frame (alice) of one
record per round; then alice's digest of the sift list (bob checks it
against his own), the sample reveal as bitmaps over the sift list, the
continuation gate, k pairing-parity exchanges, block parities, and a
VERDICT cross-check.
Eve is an optional middlebox that checks alice's CONFIG against the
facts her decoding relies on, relays every classical frame untouched and
pushes each QUDIT window through her channel model.

Both endpoints consume randomness through the same five-stream layout
as :func:`quditqkd.protocol.run_session` and call its vectorised stages
(``prepare``, ``transmit``, ``measure``) on each window.  As each window
closes they tally it from the announcements with their own bits of its
sifted rounds (``Tally.of``, the engine's per-chunk tally) and feed its
sifted round indices to the running sift digest, so a role holds two
bytes per sifted round (its in-pair flag and its bit) and no round
index.  The tail then runs the engine's post-round stages
(``draw_sample``, ``estimate_session``, ``kept_rounds``) and
:func:`quditqkd.distill.pair_stage`, which shuffles the tail's own copy
of the kept bits in place each stage, so a session with a shared master
seed reproduces the in-process engine's keys exactly (the shared seed is
this artifact's reproducibility contract, not a security model).  Both
sides draw the sample and the stage seeds themselves; alice only sends
first, and bob checks each of her frames against his own draw or facts
before he answers (:func:`_exchange`), sending ABORT on a mismatch.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..channels import resolve_channel
from ..distill import DistillParams, block_parities, draw_stage_seeds, pair_stage
from ..field import field_spec
from ..protocol import (
    STREAM_ALICE,
    STREAM_BOB,
    STREAM_CHANNEL,
    STREAM_PAIRING,
    STREAM_SAMPLE,
    SessionConfig,
    Tally,
    draw_sample,
    estimate_session,
    kept_rounds,
    measure,
    pair_table,
    prepare,
    sift_mask,
    spawn_streams,
    transmit,
)
from ..qstates import Outcome
from .wire import (
    ABORT_CONDITION,
    ABORT_CONFIG,
    ABORT_FRAME_TOO_LARGE,
    ABORT_PROTOCOL,
    AbortReceived,
    FrameTooLarge,
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
    encode_json,
    encode_outcome_batch,
    encode_pair_batch,
    encode_parity_round,
    encode_qudit_batch,
    encode_sample_reveal,
    sift_digest,
)

ROLES = ("alice", "bob", "eve")
ABORT_INSUFFICIENT_SIFT = "insufficient-sift"
ABORT_INSUFFICIENT_KEY = "insufficient-key"

# Rounds per round-phase window: one QUDIT frame of 4096 kets is 24 KiB.
WINDOW = 4096
# Seconds a role waits for its peer's next bytes, or for a listener's
# peer to dial in, before ending the session.
PEER_TIMEOUT = 60.0
# Dialling: attempts, seconds between them, and seconds per attempt.
CONNECT_ATTEMPTS = 40
CONNECT_DELAY = 0.25
CONNECT_TIMEOUT = 30.0
# The handshake facts eve's decoding relies on: the degree that sizes each
# ket, the round count that sizes the last window, and the window size.
EVE_FACTS = ("n", "rounds", "window")


@dataclass(frozen=True)
class RoleConfig:
    """One role's launch parameters.

    ``session.channel`` is meaningful only for eve (the model she
    applies); alice and bob ignore it.  The handshake pins everything
    alice and bob must agree on, including the shared master seed.
    """

    role: str
    session: SessionConfig
    params: DistillParams
    listen: str | None = None
    connect_alice: str | None = None
    connect_bob: str | None = None

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"role must be one of {ROLES}")


@dataclass
class RoleReport:
    """Exit report of one role run."""

    role: str
    status: str = "pass"
    exit_code: int = 0
    shared: dict | None = None
    final_key: list[int] | None = None
    abort_sent: str | None = None
    transcripts: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "role": self.role,
            "status": self.status,
            "exit_code": self.exit_code,
            "shared": self.shared,
            "final_key": self.final_key,
            "abort_sent": self.abort_sent,
            "transcripts": self.transcripts,
            "extra": self.extra,
        }


def handshake_facts(cfg: RoleConfig) -> dict:
    """The parameters alice and bob must hold identically."""
    spec = field_spec(cfg.session.n)
    return {
        "n": cfg.session.n,
        "modulus": spec.modulus,
        "rounds": cfg.session.rounds,
        "sample_fraction": cfg.session.sample_fraction,
        "seed": cfg.session.seed,
        "k": cfg.params.k,
        "r": cfg.params.r,
        "window": WINDOW,
    }


class _ConfigMismatch(ProtocolViolation):
    """A peer's CONFIG differs from this side's facts (eve's: those of ``EVE_FACTS``)."""


def _abort(report: RoleReport, link: Link, reason: str, exit_code: int = 1) -> None:
    """Send ABORT and end the report with the reason as its status."""
    link.send_abort(reason)
    report.abort_sent = reason
    report.status = reason
    report.exit_code = exit_code


def _exchange(link: Link, leader: bool, ftype: FrameType, payload: bytes, check):
    """``check`` of the peer's ``ftype`` payload; the leader sends first.

    The follower checks the leader's payload before it answers, so a
    check that raises :class:`ProtocolViolation` has it send ABORT in
    place of its own frame.
    """
    if leader:
        link.send(ftype, payload)
        return check(link.expect(ftype))
    theirs = check(link.expect(ftype))
    link.send(ftype, payload)
    return theirs


def _session_tail(
    report: RoleReport,
    link: Link,
    cfg: RoleConfig,
    streams,
    tally: Tally,
    digest: bytes,
    leader: bool,
) -> None:
    """Everything after the per-round exchange; identical for both ends.

    ``tally`` is the session's tally, with this side's bits of its
    sifted rounds, and ``digest`` the SIFT_ACCEPT digest of their round
    indices, as this side computed it.  Both sides draw the sample and
    the stage seeds themselves; ``leader`` marks the side that sends
    first (alice), and each side checks the peer's sample, seeds, block
    size and facts against its own, the follower before it answers.
    Sample, estimates and pairing are the post-round stages of
    :mod:`quditqkd.protocol` and :func:`quditqkd.distill.pair_stage`.
    """
    session = cfg.session
    params = cfg.params

    (my_bits,) = tally.bits
    n_sift = len(my_bits)
    if leader:
        link.send(FrameType.SIFT_ACCEPT, digest)
    elif link.expect(FrameType.SIFT_ACCEPT) != digest:
        raise ProtocolViolation("sift list does not match own computation")
    if n_sift == 0:
        _abort(report, link, ABORT_INSUFFICIENT_SIFT)
        return

    sample_pos = draw_sample(n_sift, session.sample_fraction, streams[STREAM_SAMPLE])
    my_sample = my_bits[sample_pos]

    def their_sample_of(payload: bytes) -> np.ndarray:
        # a sample changed in transit would give both sides the same e_b
        # over different kept rounds
        their_pos, their_bits = decode_sample_reveal(payload, n_sift, len(sample_pos))
        if not np.array_equal(their_pos, sample_pos):
            raise ProtocolViolation("sample reveal does not match own sample")
        return their_bits

    their_bits = _exchange(
        link, leader, FrameType.SAMPLE_REVEAL,
        encode_sample_reveal(sample_pos, n_sift, my_sample), their_sample_of,
    )

    e_b, e_b_all, e_c, lhs, verdict = estimate_session(
        session, tally.clicked, tally.ec, sample_pos, my_sample, their_bits
    )

    shared: dict = {
        "n": session.n,
        "rounds": session.rounds,
        "sifted": n_sift,
        "sampled": len(sample_pos),
        "e_b": [e_b.successes, e_b.trials],
        "e_b_all": [e_b_all.successes, e_b_all.trials],
        "e_c": [e_c.successes, e_c.trials],
        "lhs": lhs,
        "condition_pass": verdict,
    }
    report.shared = shared
    if not verdict:
        _abort(report, link, ABORT_CONDITION, exit_code=2)
        return

    bits = kept_rounds(my_bits, sample_pos)
    if len(bits) < params.min_length:
        _abort(report, link, ABORT_INSUFFICIENT_KEY)
        return

    kept_per_stage: list[int] = []
    for seed in draw_stage_seeds(params.k, streams[STREAM_PAIRING]).tolist():
        first, second = pair_stage(bits, seed)
        mine = first ^ second

        def their_parities_of(payload: bytes) -> np.ndarray:
            their_seed, theirs = decode_parity_round(payload, len(first))
            if their_seed != seed:
                raise ProtocolViolation("parity round seed does not match own draw")
            return theirs

        theirs = _exchange(
            link, leader, FrameType.PARITY_ROUND, encode_parity_round(seed, mine),
            their_parities_of,
        )
        keep = mine == theirs
        bits = first[keep]
        kept_per_stage.append(int(np.count_nonzero(keep)))

    n_blocks = len(bits) // params.r
    mine_blocks = block_parities(bits, params.r)

    def their_blocks_of(payload: bytes) -> np.ndarray:
        r_echo, blocks = decode_block_parity(payload, n_blocks)
        if r_echo != params.r:
            raise ProtocolViolation(f"block size {r_echo} != agreed {params.r}")
        return blocks

    their_blocks = _exchange(
        link, leader, FrameType.BLOCK_PARITY, encode_block_parity(params.r, mine_blocks),
        their_blocks_of,
    )
    disagreements = int((mine_blocks ^ their_blocks).astype(np.int64).sum())

    shared.update(
        {
            "kept_per_stage": kept_per_stage,
            "survivors": int(len(bits)),
            "blocks": n_blocks,
            "block_r": params.r,
            "disagreements": disagreements,
        }
    )

    def same_facts(payload: bytes) -> None:
        if decode_json(payload) != shared:
            raise ProtocolViolation("verdict facts differ between endpoints")

    _exchange(link, leader, FrameType.VERDICT, encode_json(shared), same_facts)

    report.final_key = mine_blocks.tolist()
    report.status = "pass"
    report.exit_code = 0


def _run_endpoint(cfg: RoleConfig, sock: socket.socket, leader: bool) -> RoleReport:
    role = "alice" if leader else "bob"
    link = Link(sock)
    report = RoleReport(role=role)
    session = cfg.session
    spec = field_spec(session.n)
    table = pair_table(spec)
    streams = spawn_streams(session.seed)
    rounds = session.rounds
    try:
        mine = handshake_facts(cfg)

        def same_config(payload: bytes) -> None:
            if decode_json(payload) != mine:
                raise _ConfigMismatch("CONFIG differs from own handshake facts")

        _exchange(link, leader, FrameType.CONFIG, encode_json(mine), same_config)

        tallies = []

        def windows():
            """The round phase: tally each window and yield its sifted round indices."""
            for lo in range(0, rounds, WINDOW):
                w = min(WINDOW, rounds - lo)
                if leader:
                    i, j, s = prepare(table, streams[STREAM_ALICE], w)
                    link.send(FrameType.QUDIT, encode_qudit_batch(i, j, s))
                    u, v, category = decode_outcome_batch(
                        link.expect(FrameType.OUTCOME_ANNOUNCE), w, spec.order
                    )
                    link.send(FrameType.PAIR_ANNOUNCE, encode_pair_batch(i, j))
                    bits = s
                else:
                    k1, k2, sigma = decode_qudit_batch(
                        link.expect(FrameType.QUDIT), w, spec.order
                    )
                    u, v, out, bits = measure(table, k1, k2, sigma, streams[STREAM_BOB])
                    category = out == Outcome.OUTSIDE
                    link.send(FrameType.OUTCOME_ANNOUNCE, encode_outcome_batch(u, v, category))
                    i, j = decode_pair_batch(
                        link.expect(FrameType.PAIR_ANNOUNCE), w, spec.order
                    )
                sift = np.flatnonzero(sift_mask(i, j, u, v))
                tallies.append(Tally.of(i, j, u, v, category == 0, sift, bits))
                yield sift + lo

        # the round phase runs as the digest takes in its windows
        digest = sift_digest(windows())
        _session_tail(report, link, cfg, streams, Tally.join(tallies), digest, leader)
    except ProtocolViolation as exc:
        _abort(report, link, ABORT_CONFIG if isinstance(exc, _ConfigMismatch) else ABORT_PROTOCOL)
        report.extra["detail"] = str(exc)
    except FrameTooLarge as exc:
        _abort(report, link, ABORT_FRAME_TOO_LARGE)
        report.extra["detail"] = str(exc)
    except TimeoutError as exc:
        report.status = "peer-timeout"
        report.exit_code = 1
        report.extra["detail"] = str(exc)
    except (AbortReceived, PeerDisconnect, ConnectionError, OSError) as exc:
        # a send fails once the peer has aborted and closed: its ABORT
        # may still be waiting in the receive buffer
        reason = exc.reason if isinstance(exc, AbortReceived) else link.pending_abort()
        if reason is None:
            report.status = "peer-disconnect"
            report.extra["detail"] = str(exc)
        else:
            report.status = f"peer-abort:{reason}"
        report.exit_code = 2 if reason == ABORT_CONDITION else 1
    finally:
        report.transcripts["peer"] = link.transcript_dict()
        link.close()
    return report


def run_alice(cfg: RoleConfig, sock: socket.socket) -> RoleReport:
    return _run_endpoint(cfg, sock, leader=True)


def run_bob(cfg: RoleConfig, sock: socket.socket) -> RoleReport:
    return _run_endpoint(cfg, sock, leader=False)


def run_eve(cfg: RoleConfig, sock_alice: socket.socket, sock_bob: socket.socket) -> RoleReport:
    """Relay both directions; push QUDIT windows through the channel model.

    Eve first checks alice's CONFIG: if it differs from her own facts in
    any of ``EVE_FACTS``, she sends ABORT config-mismatch both ways in
    place of relaying it.  Classical frames otherwise pass through
    byte-identical.  Each QUDIT window goes
    through the engine's ``transmit`` stage, which consumes the channel
    stream exactly as the in-process engine does (two uniforms per qudit,
    term index then auxiliary), so a shared master seed keeps the relayed
    session equal to :func:`quditqkd.protocol.run_session`.  The report's
    ``extra["audit_terms"]`` lists the drawn term index of every relayed
    round, entry r for round r; each window's terms are held as one
    int32 array until then.
    """
    session = cfg.session
    spec = field_spec(session.n)
    model = resolve_channel(session.channel, spec)
    rng = spawn_streams(session.seed)[STREAM_CHANNEL]
    mine = handshake_facts(cfg)
    la = Link(sock_alice)
    lb = Link(sock_bob)
    report = RoleReport(role="eve")
    audit: list[np.ndarray] = []
    relayed = 0
    errors: list[str] = []
    timeouts: list[str] = []
    io_notes: list[str] = []

    def relay(src: Link, dst: Link, rewrite) -> None:
        try:
            while True:
                ftype, payload = src.recv()
                dst.send(ftype, rewrite(ftype, payload))
        except (PeerDisconnect, BrokenPipeError, ConnectionResetError):
            # the receiver may close first after the mutual aborts of a
            # failed session: either way the pipe is finished.  A peer that
            # resets mid-session is therefore not noted in io_notes either
            pass
        except ProtocolViolation as exc:
            errors.append(str(exc))
            reason = ABORT_CONFIG if isinstance(exc, _ConfigMismatch) else ABORT_PROTOCOL
            la.send_abort(reason)
            lb.send_abort(reason)
            report.abort_sent = reason
        except TimeoutError as exc:
            timeouts.append(str(exc))
        except OSError as exc:
            # any other socket failure ends this direction and is reported
            io_notes.append(str(exc))
        finally:
            dst.close_write()

    def push_qudits(ftype: FrameType, payload: bytes) -> bytes:
        nonlocal relayed
        if ftype == FrameType.CONFIG:
            theirs = decode_json(payload)
            differ = [key for key in EVE_FACTS if theirs.get(key) != mine[key]]
            if differ:
                raise _ConfigMismatch(f"alice's CONFIG differs from eve's in {differ}")
        if ftype != FrameType.QUDIT:
            return payload
        # after the last window the expected count is 0
        w = min(WINDOW, session.rounds - relayed)
        kets = decode_qudit_batch(payload, w, spec.order)
        m1, m2, sigma, terms = transmit(model, *kets, rng)
        audit.append(terms.astype(np.int32))
        relayed += w
        return encode_qudit_batch(m1, m2, sigma)

    threads = [
        threading.Thread(target=relay, args=(la, lb, push_qudits), name="eve-a2b"),
        threading.Thread(target=relay, args=(lb, la, lambda _, payload: payload), name="eve-b2a"),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.extra = {
        "audit_terms": np.concatenate([np.empty(0, np.int32), *audit]).tolist(),
        "errors": errors,
        "timeouts": timeouts,
        "io_notes": io_notes,
    }
    if report.abort_sent is not None:
        report.status = report.abort_sent
        report.exit_code = 1
    elif timeouts:
        report.status = "peer-timeout"
        report.exit_code = 1
    report.transcripts = {
        "alice": la.transcript_dict(),
        "bob": lb.transcript_dict(),
    }
    la.close()
    lb.close()
    return report


def _parse_addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not port.isdigit():
        raise ValueError(f"endpoint must be host:port, got {text!r}")
    return host or "127.0.0.1", int(port)


def _role_socket(sock: socket.socket) -> socket.socket:
    # every exchange is request/response, so Nagle would hold back each
    # frame's last segment for ~40ms; the deadline ends a stalled session
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.settimeout(PEER_TIMEOUT)
    return sock


def _accept_one(addr: tuple[str, int]) -> socket.socket:
    server = socket.create_server(addr)
    try:
        server.settimeout(PEER_TIMEOUT)
        try:
            conn, _ = server.accept()
        except TimeoutError:
            host, port = addr
            raise TimeoutError(f"no peer dialled {host}:{port} within {PEER_TIMEOUT} s") from None
        return _role_socket(conn)
    finally:
        server.close()


def _connect(addr: tuple[str, int]) -> socket.socket:
    last: OSError | None = None
    for _ in range(CONNECT_ATTEMPTS):
        try:
            return _role_socket(socket.create_connection(addr, timeout=CONNECT_TIMEOUT))
        except OSError as exc:
            last = exc
            time.sleep(CONNECT_DELAY)
    raise ConnectionError(f"could not connect to {addr}: {last}")


def run_role(cfg: RoleConfig) -> RoleReport:
    """Open sockets per the topology flags and run the state machine.

    Bob always listens.  Alice connects straight to Bob when no
    middlebox is used, or listens for Eve; Eve dials both listeners.
    """
    if cfg.role == "alice":
        if cfg.connect_bob:
            sock = _connect(_parse_addr(cfg.connect_bob))
        elif cfg.listen:
            sock = _accept_one(_parse_addr(cfg.listen))
        else:
            raise ValueError("alice needs either --connect-bob or --listen")
        return run_alice(cfg, sock)
    if cfg.role == "bob":
        if not cfg.listen:
            raise ValueError("bob needs --listen")
        return run_bob(cfg, _accept_one(_parse_addr(cfg.listen)))
    if not (cfg.connect_alice and cfg.connect_bob):
        raise ValueError("eve needs --connect-alice and --connect-bob")
    sock_a = _connect(_parse_addr(cfg.connect_alice))
    sock_b = _connect(_parse_addr(cfg.connect_bob))
    return run_eve(cfg, sock_a, sock_b)
