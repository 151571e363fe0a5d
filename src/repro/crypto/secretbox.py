"""Authenticated symmetric encryption (ChaCha20-Poly1305 "secretbox").

This is the ``Enc``/``Dec`` primitive used by Algorithms 1 and 2 of the paper:
each onion layer and each conversation message payload is protected by an
AEAD box keyed from a Diffie-Hellman shared secret via HKDF.

Nonces are derived deterministically from the round number (the paper uses
the round number as the nonce for the conversation payload); each key is used
for at most a handful of messages per round, and keys rotate every round, so
nonce reuse cannot occur for honest participants.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .backend import active_backend
from .hkdf import derive_key, derive_key_schedule
from ..errors import DecryptionError

KEY_SIZE = 32
NONCE_SIZE = 12
TAG_SIZE = 16
OVERHEAD = TAG_SIZE


def seal(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
    """Encrypt and authenticate ``plaintext``; returns ciphertext || tag."""
    _check_key_nonce(key, nonce)
    if not isinstance(plaintext, bytes):
        plaintext = bytes(plaintext)
    return active_backend().aead_encrypt(key, nonce, plaintext, aad)


def open_box(key: bytes, nonce: bytes, ciphertext: bytes, aad: bytes = b"") -> bytes:
    """Verify and decrypt a box produced by :func:`seal`.

    Raises :class:`~repro.errors.DecryptionError` when authentication fails.
    """
    _check_key_nonce(key, nonce)
    if not isinstance(ciphertext, bytes):
        ciphertext = bytes(ciphertext)
    if len(ciphertext) < TAG_SIZE:
        raise DecryptionError("ciphertext shorter than the authentication tag")
    return active_backend().aead_decrypt(key, nonce, ciphertext, aad)


def seal_batch(
    keys: Sequence[bytes], nonce: bytes, plaintexts: Sequence[bytes], aad: bytes = b""
) -> list[bytes]:
    """Seal a round's worth of boxes under one shared nonce (one key each)."""
    if not keys:
        return []
    _check_batch_keys(keys, nonce, len(plaintexts))
    return active_backend().aead_seal_batch(keys, nonce, plaintexts, aad)


def open_box_batch(
    keys: Sequence[bytes], nonce: bytes, ciphertexts: Sequence[bytes], aad: bytes = b""
) -> list[bytes | None]:
    """Open a round's worth of boxes; failed positions come back as ``None``.

    Unlike :func:`open_box` this never raises on a bad box — a mix server
    must keep processing the round when some wires are malformed.  A bad
    *key* is a caller bug, not a bad wire, and raises like :func:`seal`.
    """
    if not keys:
        return []
    _check_batch_keys(keys, nonce, len(ciphertexts))
    return active_backend().aead_open_batch(keys, nonce, ciphertexts, aad)


def _check_batch_keys(keys: Sequence[bytes], nonce: bytes, message_count: int) -> None:
    if len(keys) != message_count:
        raise ValueError(
            f"batch needs one key per message: {len(keys)} keys, {message_count} messages"
        )
    _check_key_nonce(keys[0], nonce)
    if any(len(key) != KEY_SIZE for key in keys):
        raise ValueError("secretbox keys must be 32 bytes")


def nonce_for_round(round_number: int, label: str = "") -> bytes:
    """Derive a 12-byte nonce from a round number and optional label.

    The conversation protocol uses the round number ``r`` as the nonce
    (Algorithm 1 step 1a); labels separate the request and response
    directions so the same per-round key never sees the same nonce twice.
    """
    if round_number < 0:
        raise ValueError("round numbers are non-negative")
    label_byte = sum(label.encode("utf-8")) % 256 if label else 0
    return round_number.to_bytes(11, "big") + bytes([label_byte])


#: The label of an onion layer's two keys.
_LAYER_LABEL = "layer"


@lru_cache(maxsize=1 << 16)
def _derived_key_cached(shared: bytes, label: str, length: int) -> bytes:
    return derive_key(shared, f"secretbox:{label}", length)


def key_from_shared_secret(shared: bytes, label: str) -> bytes:
    """Derive a secretbox key from a DH shared secret for a specific use.

    Derivations are memoized *per round*: within a round the wrap and peel
    sides of the simulator hit the same ``(shared, label)`` pairs, and a
    server that computed a shared secret at peel time never pays HKDF again
    for the response direction.  The cache is keyed by ephemeral per-round
    secrets, so the round drivers (``MixChain.run_round``,
    ``ChainServerEndpoint.handle``) drop it with
    :func:`clear_derived_key_cache` when their round ends — retaining DH
    secrets across rounds would undo the forward secrecy the per-round
    ephemeral keys exist to provide.
    """
    return _derived_key_cached(bytes(shared), label, KEY_SIZE)


def derive_layer_keys(shared: bytes) -> tuple[bytes, bytes]:
    """Both onion keys of one layer from one HKDF expansion, memoized.

    Returns ``(request_key, response_key)``.  The request key equals the
    first 32 bytes of the expansion — byte-identical to what
    ``key_from_shared_secret(shared, "layer")`` derives, by the HKDF-Expand
    prefix property — so request wires are unchanged; the response key is the
    next 32 bytes, giving the two directions fully separated keys.  Both are
    produced at peel time, so sealing the response later costs zero
    derivations.  The round drivers clear the cache when the round ends.
    """
    block = _derived_key_cached(bytes(shared), _LAYER_LABEL, 2 * KEY_SIZE)
    return block[:KEY_SIZE], block[KEY_SIZE:]


def derive_layer_key_schedule(shareds: Sequence[bytes]) -> list[tuple[bytes, bytes]]:
    """:func:`derive_layer_keys` for a whole layer of client wraps, uncached.

    Every wrap uses a fresh ephemeral secret (zero repeat derivations to
    save), and a client process has no round-end hook, so populating the
    cache would only retain ephemeral DH secrets it never needs again.  The
    layer goes through the one-pass :func:`~repro.crypto.hkdf.derive_key_schedule`.
    """
    blocks = derive_key_schedule(
        [bytes(shared) for shared in shareds], f"secretbox:{_LAYER_LABEL}", 2 * KEY_SIZE
    )
    return [(block[:KEY_SIZE], block[KEY_SIZE:]) for block in blocks]


def clear_derived_key_cache() -> None:
    """Forget all memoized key derivations (tests, long-lived processes)."""
    _derived_key_cached.cache_clear()


def _check_key_nonce(key: bytes, nonce: bytes) -> None:
    if len(key) != KEY_SIZE:
        raise ValueError("secretbox keys must be 32 bytes")
    if len(nonce) != NONCE_SIZE:
        raise ValueError("secretbox nonces must be 12 bytes")
