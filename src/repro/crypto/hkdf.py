"""HKDF-SHA256 (RFC 5869) key derivation.

Vuvuzela derives several independent symmetric keys and identifiers from one
Diffie-Hellman shared secret:

* the per-round secretbox key protecting a conversation message,
* the per-round conversation dead-drop ID (``H(s, round)``, §4.1), and
* per-hop onion keys from the ephemeral DH with each server.

Deriving everything through HKDF with distinct ``info`` labels keeps those
uses cryptographically separated.
"""

from __future__ import annotations

import hashlib
import hmac

HASH_LEN = 32


def hkdf_extract(salt: bytes, input_key_material: bytes) -> bytes:
    """HKDF-Extract: compute a pseudorandom key from input keying material."""
    if not salt:
        salt = b"\x00" * HASH_LEN
    # hmac.digest is the one-shot C implementation: no HMAC object, no
    # per-call inner/outer hash copies.  A round derives hundreds of
    # thousands of keys, so the object overhead is measurable.
    return hmac.digest(salt, input_key_material, "sha256")


def hkdf_expand(pseudo_random_key: bytes, info: bytes, length: int) -> bytes:
    """HKDF-Expand: derive ``length`` bytes of output keying material."""
    if length <= 0:
        raise ValueError("length must be positive")
    if length > 255 * HASH_LEN:
        raise ValueError("HKDF-Expand cannot produce more than 255 * 32 bytes")

    blocks = []
    previous = b""
    counter = 1
    produced = 0
    while produced < length:
        previous = hmac.digest(
            pseudo_random_key, previous + info + bytes([counter]), "sha256"
        )
        blocks.append(previous)
        produced += HASH_LEN
        counter += 1
    return b"".join(blocks)[:length]


def hkdf(input_key_material: bytes, *, salt: bytes = b"", info: bytes = b"", length: int = 32) -> bytes:
    """One-shot HKDF (extract then expand)."""
    return hkdf_expand(hkdf_extract(salt, input_key_material), info, length)


def derive_key(shared_secret: bytes, label: str, length: int = 32) -> bytes:
    """Derive a use-specific key from a DH shared secret.

    ``label`` identifies the use ("conversation-box", "onion-layer",
    "deaddrop-id", ...) so different uses of the same shared secret never
    produce related keys.
    """
    return hkdf(shared_secret, salt=b"vuvuzela-v1", info=label.encode("utf-8"), length=length)


def derive_key_schedule(
    shared_secrets: list[bytes], label: str, length: int = 32
) -> list[bytes]:
    """Derive one key per shared secret under a single label, in one pass.

    Each output is byte-identical to :func:`derive_key` on the same secret;
    the bulk shape just encodes the label once and keeps the loop free of
    per-call string work (the invitation scan derives a whole bucket's seal
    keys this way).
    """
    info = label.encode("utf-8")
    salt = b"vuvuzela-v1"
    return [
        hkdf_expand(hkdf_extract(salt, secret), info, length)
        for secret in shared_secrets
    ]
