"""The dialing invitation's sealed box (§5.2) and its trial decryption.

An invitation tells a recipient "this public key wants to talk to you".  It
consists of the sender's long-term public key, encrypted to the
*recipient's* long-term public key so only the recipient can read it.  We
realise this with the standard "sealed box" construction: a fresh ephemeral
X25519 key, a DH with the recipient's key, and an AEAD box::

    ephemeral_public (32) || AEAD( sender_public (32) ) (48)

for a total of 80 bytes — matching the paper's "invitations are 80 bytes long
(including 48 bytes of overhead)" (§8.1).

The construction lives in the crypto layer, below :mod:`repro.runtime`, so
the round engine's workers can trial-decrypt a dead drop without importing
the dialing protocol.
"""

from __future__ import annotations

from typing import Sequence

from .backend import active_backend
from .hkdf import derive_key, derive_key_schedule
from .keys import KEY_SIZE, KeyPair, PrivateKey, PublicKey
from .rng import RandomSource, default_random
from .secretbox import TAG_SIZE, nonce_for_round, open_box_batch, seal
from ..errors import CryptoError

#: Size of one invitation on the wire (32-byte ephemeral key + sealed 32-byte sender key).
INVITATION_SIZE = KEY_SIZE + KEY_SIZE + TAG_SIZE
#: Encryption overhead within an invitation (everything except the sender key).
INVITATION_OVERHEAD = INVITATION_SIZE - KEY_SIZE

_SEAL_LABEL = "dialing-invitation"


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
    private_key: PrivateKey, invitations: Sequence[bytes], round_number: int
) -> list[PublicKey]:
    """Trial-decrypt a whole dead drop; return the callers, in bucket order.

    Clients run this over *every* invitation in their dead drop — real ones
    addressed to other users sharing the bucket, and noise — and keep only
    the ones that decrypt (§5.1).  The recipient's private key is the fixed
    scalar of every trial, so the bucket is one fixed-scalar X25519 batch,
    one key schedule and one shared-nonce open; malformed invitations,
    small-order ephemeral keys and failed authentications are skipped.
    """
    well_formed = [inv for inv in invitations if len(inv) == INVITATION_SIZE]
    shareds = active_backend().x25519_fixed_scalar_batch(
        private_key.data, [inv[:KEY_SIZE] for inv in well_formed]
    )
    live = [(shared, inv) for shared, inv in zip(shareds, well_formed) if any(shared)]
    opened = open_box_batch(
        derive_key_schedule([shared for shared, _ in live], _SEAL_LABEL),
        nonce_for_round(round_number, _SEAL_LABEL),
        [inv[KEY_SIZE:] for _, inv in live],
    )
    return [PublicKey(sender) for sender in opened if sender is not None]


def open_invitation(
    recipient: KeyPair, invitation: bytes, round_number: int
) -> PublicKey | None:
    """Try to decrypt one invitation; return the caller's public key or ``None``."""
    callers = open_invitations(recipient.private, [invitation], round_number)
    return callers[0] if callers else None
