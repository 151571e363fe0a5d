"""Invitation wire format for the dialing protocol (§5.2).

An invitation is a sealed box holding the sender's long-term public key,
encrypted to the recipient's (:mod:`repro.crypto.invitation` builds and
opens it).

A *dialing request* is what travels through the mix chain: the target
invitation dead-drop index followed by the opaque invitation.  Requests whose
sender is not dialing anyone this round target the special no-op bucket and
carry a random blob of the same size, so all dialing requests look alike.
:mod:`repro.dialing.client` builds both kinds.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

from ..crypto.invitation import (  # the sealed box, re-exported with its wire format
    INVITATION_OVERHEAD,
    INVITATION_SIZE,
    open_invitation,
    open_invitations,
    seal_invitation,
)
from ..deaddrop.invitations import NOOP_BUCKET
from ..errors import ProtocolError

#: Size of a dialing request as seen by the last server: bucket index + invitation.
DIALING_REQUEST_SIZE = 4 + INVITATION_SIZE

#: Wire encoding of the no-op bucket index.
_NOOP_WIRE = 0xFFFFFFFF


@dataclass(frozen=True)
class DialingRequest:
    """A dialing request as seen by the last server: bucket + opaque invitation."""

    bucket: int
    invitation: bytes

    def __post_init__(self) -> None:
        if self.bucket != NOOP_BUCKET and self.bucket < 0:
            raise ProtocolError("invitation dead-drop indices are non-negative")
        if self.bucket > _NOOP_WIRE - 1 and self.bucket != NOOP_BUCKET:
            raise ProtocolError("invitation dead-drop index out of range")
        if len(self.invitation) != INVITATION_SIZE:
            raise ProtocolError(
                f"invitations must be {INVITATION_SIZE} bytes, got {len(self.invitation)}"
            )

    def encode(self) -> bytes:
        return encode_bucket(self.bucket) + self.invitation

    @classmethod
    def decode(cls, payload: bytes) -> "DialingRequest":
        if len(payload) != DIALING_REQUEST_SIZE:
            raise ProtocolError(
                f"dialing requests must be {DIALING_REQUEST_SIZE} bytes, got {len(payload)}"
            )
        (wire_bucket,) = struct.unpack(">I", payload[:4])
        bucket = NOOP_BUCKET if wire_bucket == _NOOP_WIRE else wire_bucket
        return cls(bucket=bucket, invitation=payload[4:])


def encode_bucket(bucket: int) -> bytes:
    """A dialing request's first four bytes: its invitation dead drop."""
    return struct.pack(">I", _NOOP_WIRE if bucket == NOOP_BUCKET else bucket)


def split_dialing_requests(
    payloads: Sequence[bytes],
    num_buckets: int,
    strict: bool = False,
) -> tuple[dict[int, list[bytes]], int]:
    """Bulk-decode a round's dialing payloads, grouped by bucket.

    This is the last server's hot path: a round is every client's request
    plus every earlier server's noise, so it is split with one length check
    and one ``unpack_from`` per payload — no per-payload dataclass, no
    try/except control flow — into ``{bucket: [invitation, ...]}`` with
    per-bucket arrival order preserved.  Returns the grouping and the number
    of payloads dropped as malformed (wrong size or nonexistent bucket);
    with ``strict`` set those raise instead, with the same errors the
    per-payload :meth:`DialingRequest.decode` / store-deposit path raised.
    """
    grouped: dict[int, list[bytes]] = {}
    malformed = 0
    for payload in payloads:
        if len(payload) != DIALING_REQUEST_SIZE:
            if strict:
                raise ProtocolError(
                    f"dialing requests must be {DIALING_REQUEST_SIZE} bytes,"
                    f" got {len(payload)}"
                )
            malformed += 1
            continue
        (wire_bucket,) = struct.unpack_from(">I", payload, 0)
        bucket = NOOP_BUCKET if wire_bucket == _NOOP_WIRE else wire_bucket
        if bucket != NOOP_BUCKET and bucket >= num_buckets:
            if strict:
                raise ProtocolError(f"invitation dead drop {bucket} does not exist")
            malformed += 1
            continue
        grouped.setdefault(bucket, []).append(bytes(payload[4:]))
    return grouped, malformed
