"""Networked two-party protocol execution over framed byte streams."""

from .roles import (
    RoleConfig,
    RoleReport,
    handshake_facts,
    run_alice,
    run_bob,
    run_eve,
    run_role,
)
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
    encode_frame,
)

__all__ = [
    "ABORT_CONDITION",
    "ABORT_CONFIG",
    "ABORT_FRAME_TOO_LARGE",
    "ABORT_PROTOCOL",
    "AbortReceived",
    "FrameTooLarge",
    "FrameType",
    "Link",
    "PeerDisconnect",
    "ProtocolViolation",
    "RoleConfig",
    "RoleReport",
    "encode_frame",
    "handshake_facts",
    "run_alice",
    "run_bob",
    "run_eve",
    "run_role",
]
