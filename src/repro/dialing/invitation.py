"""Invitation wire format for the dialing protocol (§5.2).

An invitation tells a recipient "this public key wants to talk to you".  It
consists of the sender's long-term public key plus a nonce and MAC, all
encrypted to the *recipient's* long-term public key so only the recipient can
read it.  We realise this with the standard "sealed box" construction: a fresh
ephemeral X25519 key, a DH with the recipient's key, and an AEAD box::

    ephemeral_public (32) || AEAD( sender_public (32) ) (48)

for a total of 80 bytes — matching the paper's "invitations are 80 bytes long
(including 48 bytes of overhead)" (§8.1).

A *dialing request* is what travels through the mix chain: the target
invitation dead-drop index followed by the opaque invitation.  Requests whose
sender is not dialing anyone this round target the special no-op bucket and
carry a random blob of the same size, so all dialing requests look alike.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

from ..crypto import (
    KEY_SIZE,
    KeyPair,
    PublicKey,
    active_backend,
    derive_key,
    invitation_dead_drop,
    nonce_for_round,
    open_box_batch,
    seal,
)
from ..crypto.rng import RandomSource, default_random
from ..crypto.secretbox import TAG_SIZE
from ..deaddrop.invitations import NOOP_BUCKET
from ..errors import CryptoError, ProtocolError

#: Size of one invitation on the wire (32-byte ephemeral key + sealed 32-byte sender key).
INVITATION_SIZE = KEY_SIZE + KEY_SIZE + TAG_SIZE
#: Encryption overhead within an invitation (everything except the sender key).
INVITATION_OVERHEAD = INVITATION_SIZE - KEY_SIZE
#: Size of a dialing request as seen by the last server: bucket index + invitation.
DIALING_REQUEST_SIZE = 4 + INVITATION_SIZE

_SEAL_LABEL = "dialing-invitation"
#: Wire encoding of the no-op bucket index.
_NOOP_WIRE = 0xFFFFFFFF


def seal_invitation(
    sender: KeyPair,
    recipient_public: PublicKey,
    round_number: int,
    rng: RandomSource | None = None,
) -> bytes:
    """Encrypt an invitation (the sender's public key) to the recipient."""
    rng = rng or default_random()
    (ephemeral_public,), (shared,) = active_backend().x25519_fixed_point_batch(
        [rng.random_bytes(KEY_SIZE)], recipient_public.data
    )
    if not any(shared):
        raise CryptoError("X25519 exchange produced an all-zero shared secret")
    key = derive_key(shared, _SEAL_LABEL)
    box = seal(key, nonce_for_round(round_number, _SEAL_LABEL), bytes(sender.public))
    return ephemeral_public + box


def open_invitations(
    recipient: KeyPair, invitations: Sequence[bytes], round_number: int
) -> list[PublicKey]:
    """Trial-decrypt a whole dead drop; return the callers, in bucket order.

    Clients run this over *every* invitation in their dead drop — real ones
    addressed to other users sharing the bucket, and noise — and keep only
    the ones that decrypt (§5.1).  The recipient's private key is the fixed
    scalar of every trial, so the bucket is one fixed-scalar X25519 batch and
    one shared-nonce open; malformed invitations, small-order ephemeral keys
    and failed authentications are skipped.
    """
    well_formed = [inv for inv in invitations if len(inv) == INVITATION_SIZE]
    shareds = active_backend().x25519_fixed_scalar_batch(
        recipient.private.data, [inv[:KEY_SIZE] for inv in well_formed]
    )
    live = [(shared, inv) for shared, inv in zip(shareds, well_formed) if any(shared)]
    opened = open_box_batch(
        [derive_key(shared, _SEAL_LABEL) for shared, _ in live],
        nonce_for_round(round_number, _SEAL_LABEL),
        [inv[KEY_SIZE:] for _, inv in live],
    )
    return [PublicKey(sender) for sender in opened if sender is not None]


def open_invitation(
    recipient: KeyPair, invitation: bytes, round_number: int
) -> PublicKey | None:
    """Try to decrypt one invitation; return the caller's public key or ``None``."""
    callers = open_invitations(recipient, [invitation], round_number)
    return callers[0] if callers else None


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
        wire_bucket = _NOOP_WIRE if self.bucket == NOOP_BUCKET else self.bucket
        return struct.pack(">I", wire_bucket) + self.invitation

    @classmethod
    def decode(cls, payload: bytes) -> "DialingRequest":
        if len(payload) != DIALING_REQUEST_SIZE:
            raise ProtocolError(
                f"dialing requests must be {DIALING_REQUEST_SIZE} bytes, got {len(payload)}"
            )
        (wire_bucket,) = struct.unpack(">I", payload[:4])
        bucket = NOOP_BUCKET if wire_bucket == _NOOP_WIRE else wire_bucket
        return cls(bucket=bucket, invitation=payload[4:])


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


def build_dialing_request(
    sender: KeyPair,
    recipient_public: PublicKey | None,
    round_number: int,
    num_buckets: int,
    rng: RandomSource | None = None,
) -> DialingRequest:
    """Build this round's dialing request (real or no-op).

    When ``recipient_public`` is ``None`` the client is not dialing anyone:
    the request targets the no-op bucket and carries random bytes shaped like
    an invitation, so the first server cannot tell dialers from non-dialers.
    """
    rng = rng or default_random()
    if recipient_public is None:
        return DialingRequest(bucket=NOOP_BUCKET, invitation=rng.random_bytes(INVITATION_SIZE))
    bucket = invitation_dead_drop(recipient_public, num_buckets)
    invitation = seal_invitation(sender, recipient_public, round_number, rng)
    return DialingRequest(bucket=bucket, invitation=invitation)
