"""Derivation of dead-drop identifiers.

Conversation dead drops (§4.1 "Randomizing dead drop IDs"): two users in a
conversation derive, from their Diffie-Hellman shared secret and the round
number, a fresh pseudo-random 128-bit dead-drop ID every round.  Both derive
the same ID; nobody else can predict or correlate the IDs across rounds.

Invitation dead drops (§5.1): a user's invitation dead drop is
``H(public_key) mod m`` where ``m`` is the number of invitation dead drops in
the current dialing round.
"""

from __future__ import annotations

import hashlib

from .hkdf import derive_key
from .keys import PublicKey

#: Conversation dead drops are named by 128-bit IDs (§3.1).
DEAD_DROP_ID_SIZE = 16


def dead_drop_prf_key(shared_secret: bytes) -> bytes:
    """The pair's dead-drop PRF key.

    It depends on the shared secret alone, so a conversation derives it once
    and names every round's dead drop with :func:`dead_drop_for_round`.
    """
    return derive_key(shared_secret, "deaddrop-id")


def dead_drop_for_round(prf_key: bytes, round_number: int) -> bytes:
    """The 16-byte dead-drop ID for ``round_number`` under a pair's PRF key."""
    if round_number < 0:
        raise ValueError("round numbers are non-negative")
    digest = hashlib.sha256(prf_key + round_number.to_bytes(8, "big")).digest()
    return digest[:DEAD_DROP_ID_SIZE]


def conversation_dead_drop(shared_secret: bytes, round_number: int) -> bytes:
    """Return the 16-byte dead-drop ID for ``round_number``.

    This is the ``b = H(s, r)`` step of Algorithm 1: a keyed PRF of the round
    number under the pair's shared secret.
    """
    return dead_drop_for_round(dead_drop_prf_key(shared_secret), round_number)


def random_dead_drop(rng_bytes: bytes) -> bytes:
    """Turn 16 random bytes into a dead-drop ID (for idle clients and noise)."""
    if len(rng_bytes) < DEAD_DROP_ID_SIZE:
        raise ValueError("need at least 16 random bytes")
    return rng_bytes[:DEAD_DROP_ID_SIZE]


def invitation_dead_drop(public_key: PublicKey, num_dead_drops: int) -> int:
    """Return the invitation dead-drop index for a user (``H(pk) mod m``)."""
    if num_dead_drops <= 0:
        raise ValueError("the number of invitation dead drops must be positive")
    digest = hashlib.sha256(b"vuvuzela-invitation:" + bytes(public_key)).digest()
    return int.from_bytes(digest, "big") % num_dead_drops
