"""Framed wire format for the networked protocol roles.

Every message is one frame: a 4-byte big-endian payload length, one
type byte, then the payload.  The round phase runs in windows of rounds;
its three frames each carry one fixed-width record per round of the
window, in round order.  Payload layouts:

    QUDIT            (u16 i | u8 sign | u16 j | u8 sign) kets in canonical
                     form: leading sign 0, i < j; a single-term ket has
                     j = 0xFFFF and sign 0 (tests/reference.py keeps the
                     per-ket and per-record encoders these records equal)
    OUTCOME_ANNOUNCE (u16 u | u16 v | u8 category) entries, u < v,
                     category 0 in-pair, 1 outside
    PAIR_ANNOUNCE    (u16 i | u16 j) entries, i < j
    SIFT_ACCEPT      SHA-256 of the sift list (round indices as
                     little-endian int64)
    SAMPLE_REVEAL    sample bitmap over the sift list | bitmap of the
                     sender's bits of the sampled rounds
    PARITY_ROUND     u64 pairing seed | pair-parity bitmap
    BLOCK_PARITY     u32 block size r | block-parity bitmap
    VERDICT          UTF-8 JSON of the shared session facts
    CONFIG           UTF-8 JSON parameter handshake
    ABORT            UTF-8 reason string

The outcome announcement carries only the in-pair/outside category --
announcing the sign outcome itself would reveal raw key bits.  Both
ends compute the sift list from the announcements, so SIFT_ACCEPT only
confirms it, and SAMPLE_REVEAL's two bitmap lengths are known to both:
the sifted count and floor(f * sifted).  Bitmaps are LSB-first with
zero padding in the final byte (validated on decode).  Decoders raise
:class:`ProtocolViolation` on any malformed payload, including a
round-phase frame whose record count is not the window length both
ends expect; roles translate that into a clean ABORT, never a crash.
"""

from __future__ import annotations

import enum
import hashlib
import json
import socket
import struct

import numpy as np

_HEADER = struct.Struct(">IB")
MAX_PAYLOAD = 1 << 26
# Seconds a role whose send failed waits for the peer's ABORT frame.
_ABORT_WAIT = 0.2

ABORT_CONDITION = "condition-2-failed"
ABORT_PROTOCOL = "protocol-error"
ABORT_CONFIG = "config-mismatch"
ABORT_FRAME_TOO_LARGE = "frame-too-large"


class ProtocolViolation(Exception):
    """Malformed, out-of-order, or inconsistent frame."""


class FrameTooLarge(ValueError):
    """An outgoing payload exceeds :data:`MAX_PAYLOAD`."""


class PeerDisconnect(ConnectionError):
    """The byte stream ended mid-session."""


class AbortReceived(Exception):
    """The peer sent an ABORT frame."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class FrameType(enum.IntEnum):
    QUDIT = 0x01
    PAIR_ANNOUNCE = 0x02
    OUTCOME_ANNOUNCE = 0x03
    SIFT_ACCEPT = 0x04
    SAMPLE_REVEAL = 0x05
    PARITY_ROUND = 0x06
    BLOCK_PARITY = 0x07
    VERDICT = 0x08
    CONFIG = 0x09
    ABORT = 0x0F


def encode_frame(ftype: FrameType, payload: bytes) -> bytes:
    if len(payload) > MAX_PAYLOAD:
        raise FrameTooLarge(f"{ftype.name} payload of {len(payload)} bytes exceeds cap")
    return _HEADER.pack(len(payload), int(ftype)) + payload


def pack_bitmap(bits) -> bytes:
    bits = np.asarray(bits, np.uint8)
    if bits.size == 0:
        return b""
    return np.packbits(bits, bitorder="little").tobytes()


def unpack_bitmap(data: bytes, count: int) -> np.ndarray:
    expected = (count + 7) // 8
    if len(data) != expected:
        raise ProtocolViolation(f"bitmap length {len(data)} != {expected} for {count} bits")
    if count == 0:
        return np.zeros(0, np.uint8)
    bits = np.unpackbits(np.frombuffer(data, np.uint8), bitorder="little")
    if bits[count:].any():
        raise ProtocolViolation("nonzero padding bits in bitmap")
    return bits[:count]


_NO_INDEX = 0xFFFF
_KET_DTYPE = np.dtype([("i", ">u2"), ("si", "u1"), ("j", ">u2"), ("sj", "u1")])
_OUTCOME_DTYPE = np.dtype([("u", ">u2"), ("v", ">u2"), ("category", "u1")])
_PAIR_DTYPE = np.dtype([("i", ">u2"), ("j", ">u2")])


def _records(payload: bytes, dtype: np.dtype, count: int, what: str) -> np.ndarray:
    if len(payload) != count * dtype.itemsize:
        raise ProtocolViolation(
            f"{what} batch of {len(payload)} bytes, expected {count} records"
        )
    return np.frombuffer(payload, dtype)


def _check_pairs(lo: np.ndarray, hi: np.ndarray, order: int, what: str) -> None:
    if np.any(lo >= hi) or np.any(hi >= order):
        raise ProtocolViolation(f"{what} batch holds a pair that is not i < j < {order}")


def encode_qudit_batch(k1, k2, sigma) -> bytes:
    """Ket columns (k2 = -1 for a single-term ket) as QUDIT records."""
    rec = np.zeros(len(k1), _KET_DTYPE)
    rec["i"] = k1
    rec["j"] = np.where(np.asarray(k2) < 0, _NO_INDEX, k2)
    rec["sj"] = sigma
    return rec.tobytes()


def decode_qudit_batch(payload: bytes, count: int, order: int):
    """QUDIT records -> (k1, k2, sigma) columns, k2 = -1 for single-term kets."""
    rec = _records(payload, _KET_DTYPE, count, "qudit")
    i = rec["i"].astype(np.int32)
    j = rec["j"].astype(np.int32)
    sj = rec["sj"]
    two = j != _NO_INDEX
    if np.any(rec["si"] != 0):
        raise ProtocolViolation("qudit batch holds a ket without a leading + sign")
    if np.any(i >= order):
        raise ProtocolViolation(f"qudit batch holds an index >= {order}")
    _check_pairs(i[two], j[two], order, "qudit")
    if np.any(sj > 1) or np.any(sj[~two] != 0):
        raise ProtocolViolation("qudit batch holds a bad sign byte")
    return i.astype(np.int16), np.where(two, j, -1).astype(np.int16), sj.astype(np.int8)


def encode_outcome_batch(u, v, category) -> bytes:
    rec = np.empty(len(u), _OUTCOME_DTYPE)
    rec["u"] = u
    rec["v"] = v
    rec["category"] = category
    return rec.tobytes()


def decode_outcome_batch(payload: bytes, count: int, order: int):
    """OUTCOME_ANNOUNCE records -> (u, v, category) columns."""
    rec = _records(payload, _OUTCOME_DTYPE, count, "outcome")
    u = rec["u"].astype(np.int32)
    v = rec["v"].astype(np.int32)
    _check_pairs(u, v, order, "outcome")
    category = rec["category"]
    if np.any(category > 1):
        raise ProtocolViolation("outcome batch holds a category other than 0 or 1")
    return u.astype(np.int16), v.astype(np.int16), category.astype(np.int8)


def encode_pair_batch(i, j) -> bytes:
    rec = np.empty(len(i), _PAIR_DTYPE)
    rec["i"] = i
    rec["j"] = j
    return rec.tobytes()


def decode_pair_batch(payload: bytes, count: int, order: int):
    """PAIR_ANNOUNCE records -> (i, j) columns."""
    rec = _records(payload, _PAIR_DTYPE, count, "pair")
    i = rec["i"].astype(np.int32)
    j = rec["j"].astype(np.int32)
    _check_pairs(i, j, order, "pair")
    return i.astype(np.int16), j.astype(np.int16)


def sift_digest(windows) -> bytes:
    """SIFT_ACCEPT payload: SHA-256 of the sift list as little-endian int64.

    ``windows`` yields the list in consecutive pieces, each hashed as it
    comes, so no caller holds the whole list.
    """
    h = hashlib.sha256()
    for sift_idx in windows:
        h.update(np.ascontiguousarray(sift_idx, "<i8"))
    return h.digest()


def encode_sample_reveal(sample_pos, sifted: int, bits) -> bytes:
    mask = np.zeros(sifted, np.uint8)
    mask[sample_pos] = 1
    return pack_bitmap(mask) + pack_bitmap(bits)


def decode_sample_reveal(payload: bytes, sifted: int, sampled: int):
    """SAMPLE_REVEAL -> (sorted sample positions in the sift list, their bits)."""
    split = (sifted + 7) // 8
    sample_pos = np.flatnonzero(unpack_bitmap(payload[:split], sifted))
    bits = unpack_bitmap(payload[split:], sampled)
    if len(sample_pos) != sampled:
        raise ProtocolViolation(f"sample size {len(sample_pos)} != expected {sampled}")
    return sample_pos, bits


def encode_parity_round(seed: int, bits) -> bytes:
    return struct.pack(">Q", seed) + pack_bitmap(bits)


def decode_parity_round(payload: bytes, count: int) -> tuple[int, np.ndarray]:
    if len(payload) < 8:
        raise ProtocolViolation("parity round shorter than its seed")
    (seed,) = struct.unpack(">Q", payload[:8])
    return seed, unpack_bitmap(payload[8:], count)


def encode_block_parity(r: int, bits) -> bytes:
    return struct.pack(">I", r) + pack_bitmap(bits)


def decode_block_parity(payload: bytes, count: int) -> tuple[int, np.ndarray]:
    if len(payload) < 4:
        raise ProtocolViolation("block parity shorter than its size field")
    (r,) = struct.unpack(">I", payload[:4])
    return r, unpack_bitmap(payload[4:], count)


def encode_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode("utf-8")


def decode_json(payload: bytes) -> dict:
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolViolation(f"invalid JSON payload: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolViolation("JSON payload must be an object")
    return obj


def encode_abort(reason: str) -> bytes:
    return reason.encode("utf-8")


def decode_abort(payload: bytes) -> str:
    return payload.decode("utf-8", errors="replace")


class Link:
    """A framed, transcript-hashed connection to one peer."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._tx = hashlib.sha256()
        self._rx = hashlib.sha256()
        self.tx_frames = 0
        self.rx_frames = 0

    def send(self, ftype: FrameType, payload: bytes = b"") -> None:
        frame = encode_frame(ftype, payload)
        self._tx.update(frame)
        self.tx_frames += 1
        self._sock.sendall(frame)

    def send_abort(self, reason: str) -> None:
        try:
            self.send(FrameType.ABORT, encode_abort(reason))
        except OSError:
            pass

    def pending_abort(self) -> str | None:
        """The reason of an ABORT that is the peer's next frame, if it comes soon."""
        try:
            self._sock.settimeout(_ABORT_WAIT)
            ftype, payload = self.recv()
        except (OSError, ProtocolViolation):
            return None
        return decode_abort(payload) if ftype == FrameType.ABORT else None

    def _read_exact(self, n: int) -> bytes:
        chunks = []
        got = 0
        while got < n:
            chunk = self._sock.recv(min(n - got, 1 << 16))
            if not chunk:
                raise PeerDisconnect("stream ended mid-frame")
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def recv(self) -> tuple[FrameType, bytes]:
        header = self._read_exact(_HEADER.size)
        length, raw_type = _HEADER.unpack(header)
        if length > MAX_PAYLOAD:
            raise ProtocolViolation(f"frame length {length} exceeds cap")
        payload = self._read_exact(length)
        self._rx.update(header)
        self._rx.update(payload)
        self.rx_frames += 1
        try:
            ftype = FrameType(raw_type)
        except ValueError:
            raise ProtocolViolation(f"unknown frame type 0x{raw_type:02x}") from None
        return ftype, payload

    def expect(self, ftype: FrameType) -> bytes:
        got, payload = self.recv()
        if got == FrameType.ABORT:
            raise AbortReceived(decode_abort(payload))
        if got != ftype:
            raise ProtocolViolation(f"expected {ftype.name}, got {got.name}")
        return payload

    @property
    def tx_digest(self) -> str:
        return self._tx.hexdigest()

    @property
    def rx_digest(self) -> str:
        return self._rx.hexdigest()

    def transcript_dict(self) -> dict:
        return {
            "tx_sha256": self.tx_digest,
            "rx_sha256": self.rx_digest,
            "tx_frames": self.tx_frames,
            "rx_frames": self.rx_frames,
        }

    def close_write(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass
