"""HKDF-SHA256 (RFC 5869) key derivation.

Vuvuzela derives several independent symmetric keys and identifiers from one
Diffie-Hellman shared secret:

* the per-round secretbox key protecting a conversation message,
* the per-round conversation dead-drop ID (``H(s, round)``, §4.1), and
* per-hop onion keys from the ephemeral DH with each server.

Deriving everything through HKDF with distinct ``info`` labels keeps those
uses cryptographically separated.

HMAC-SHA256 is computed here from ``hashlib.sha256`` states already keyed
with the HMAC pads (RFC 2104): a key's pair is built once — the salt's once
per salt, the pseudorandom key's once per expansion — and each MAC then
copies the pair and hashes only its message.  A round derives hundreds of
thousands of keys, and the one-shot ``hmac.digest`` re-keys both pads on
every call; this halves a 64-byte layer derivation, byte for byte.
"""

from __future__ import annotations

import hashlib

HASH_LEN = 32
_BLOCK_SIZE = 64
_INNER_PAD = bytes(byte ^ 0x36 for byte in range(256))
_OUTER_PAD = bytes(byte ^ 0x5C for byte in range(256))


def _keyed(key: bytes) -> tuple[hashlib._Hash, hashlib._Hash]:
    """The inner and outer SHA-256 states of HMAC under ``key``."""
    if len(key) > _BLOCK_SIZE:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_BLOCK_SIZE, b"\x00")
    return hashlib.sha256(key.translate(_INNER_PAD)), hashlib.sha256(key.translate(_OUTER_PAD))


def _mac(keyed: tuple[hashlib._Hash, hashlib._Hash], message: bytes) -> bytes:
    """HMAC-SHA256 of ``message`` under the key ``keyed`` was built from."""
    inner, outer = keyed[0].copy(), keyed[1].copy()
    inner.update(message)
    outer.update(inner.digest())
    return outer.digest()


def _expand(pseudo_random_key: bytes, info: bytes, length: int) -> bytes:
    keyed = _keyed(pseudo_random_key)
    output = previous = b""
    counter = 0
    while len(output) < length:
        counter += 1
        previous = _mac(keyed, previous + info + bytes((counter,)))
        output += previous
    return output[:length]


def hkdf_extract(salt: bytes, input_key_material: bytes) -> bytes:
    """HKDF-Extract: compute a pseudorandom key from input keying material."""
    return _mac(_keyed(salt or b"\x00" * HASH_LEN), input_key_material)


def hkdf_expand(pseudo_random_key: bytes, info: bytes, length: int) -> bytes:
    """HKDF-Expand: derive ``length`` bytes of output keying material."""
    if length <= 0:
        raise ValueError("length must be positive")
    if length > 255 * HASH_LEN:
        raise ValueError("HKDF-Expand cannot produce more than 255 * 32 bytes")
    return _expand(pseudo_random_key, info, length)


def hkdf(input_key_material: bytes, *, salt: bytes = b"", info: bytes = b"", length: int = 32) -> bytes:
    """One-shot HKDF (extract then expand)."""
    return hkdf_expand(hkdf_extract(salt, input_key_material), info, length)


#: The salt every :func:`derive_key` extracts under, keyed once.
_VUVUZELA_SALT = _keyed(b"vuvuzela-v1")


def derive_key(shared_secret: bytes, label: str, length: int = 32) -> bytes:
    """Derive a use-specific key from a DH shared secret.

    ``label`` identifies the use ("conversation-box", "onion-layer",
    "deaddrop-id", ...) so different uses of the same shared secret never
    produce related keys.
    """
    return hkdf_expand(_mac(_VUVUZELA_SALT, shared_secret), label.encode("utf-8"), length)


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
    return [
        hkdf_expand(_mac(_VUVUZELA_SALT, secret), info, length) for secret in shared_secrets
    ]
