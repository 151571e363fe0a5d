"""Crypto backend selection.

The library ships a fully self-contained pure-Python implementation of every
primitive it needs (X25519, ChaCha20, Poly1305).  When the optional
``cryptography`` package is installed, this module transparently substitutes
its much faster OpenSSL-backed implementations.  Both backends are
interchangeable at the byte level, and the test suite cross-validates them.

Besides the per-message primitives, every backend exposes *batch* entry
points shaped for round processing: one AEAD nonce and many keys, one X25519
scalar and many points (peel), many fresh scalars and one point (wrap: each
scalar's public key *and* its shared secret, fused).  The ``cryptography``
backend loops natively in C with per-round object reuse; the pure-Python
backend loops over the per-message reference code, so there is one
implementation of each primitive to trust.

The active backend can be forced with :func:`set_backend`, which is used by
the tests and by the crypto micro-benchmarks to measure both paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from . import chacha20 as _chacha20
from . import poly1305 as _poly1305
from . import x25519 as _x25519
from ..errors import ConfigurationError, DecryptionError

PURE_PYTHON = "pure-python"
CRYPTOGRAPHY = "cryptography"


@dataclass(frozen=True)
class Backend:
    """A set of callables implementing the primitives the library needs."""

    name: str
    x25519_scalar_mult: Callable[[bytes, bytes], bytes]
    x25519_scalar_base_mult: Callable[[bytes], bytes]
    aead_encrypt: Callable[[bytes, bytes, bytes, bytes], bytes]
    aead_decrypt: Callable[[bytes, bytes, bytes, bytes], bytes]
    #: Seal many plaintexts under one shared nonce (one key each).
    aead_seal_batch: Callable[[Sequence[bytes], bytes, Sequence[bytes], bytes], "list[bytes]"]
    #: Open many boxes under one shared nonce; ``None`` marks a failed box.
    aead_open_batch: Callable[
        [Sequence[bytes], bytes, Sequence[bytes], bytes], "list[bytes | None]"
    ]
    #: ``[X25519(k, u) for u in us]`` — the server-side peel shape.
    x25519_fixed_scalar_batch: Callable[[bytes, Sequence[bytes]], "list[bytes]"]
    #: ``([X25519(k, 9) for k in ks], [X25519(k, u) for k in ks])`` — the
    #: ephemeral keygen + exchange of the client/noise wrap shape, fused.
    x25519_fixed_point_batch: Callable[[Sequence[bytes], bytes], "tuple[list[bytes], list[bytes]]"]


def _pure_aead_encrypt(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes) -> bytes:
    """RFC 8439 ChaCha20-Poly1305 AEAD encryption (pure Python)."""
    otk = _chacha20.chacha20_block(key, 0, nonce)[:32]
    ciphertext = _chacha20.chacha20_xor(key, nonce, plaintext, initial_counter=1)
    mac_data = _aead_mac_data(aad, ciphertext)
    tag = _poly1305.poly1305_mac(otk, mac_data)
    return ciphertext + tag


def _pure_aead_decrypt(key: bytes, nonce: bytes, ciphertext: bytes, aad: bytes) -> bytes:
    if len(ciphertext) < _poly1305.TAG_SIZE:
        raise DecryptionError("ciphertext shorter than the authentication tag")
    body, tag = ciphertext[: -_poly1305.TAG_SIZE], ciphertext[-_poly1305.TAG_SIZE :]
    otk = _chacha20.chacha20_block(key, 0, nonce)[:32]
    expected = _poly1305.poly1305_mac(otk, _aead_mac_data(aad, body))
    if not _poly1305.verify_tag(expected, tag):
        raise DecryptionError("Poly1305 tag verification failed")
    return _chacha20.chacha20_xor(key, nonce, body, initial_counter=1)


def _aead_mac_data(aad: bytes, ciphertext: bytes) -> bytes:
    def pad16(data: bytes) -> bytes:
        remainder = len(data) % 16
        return b"" if remainder == 0 else b"\x00" * (16 - remainder)

    return (
        aad
        + pad16(aad)
        + ciphertext
        + pad16(ciphertext)
        + len(aad).to_bytes(8, "little")
        + len(ciphertext).to_bytes(8, "little")
    )


def _pure_aead_seal_batch(
    keys: Sequence[bytes], nonce: bytes, plaintexts: Sequence[bytes], aad: bytes = b""
) -> list[bytes]:
    """Batch AEAD seal: one shared nonce, per-message keys."""
    return [
        _pure_aead_encrypt(key, nonce, plaintext, aad)
        for key, plaintext in zip(keys, plaintexts)
    ]


def _pure_aead_open_batch(
    keys: Sequence[bytes], nonce: bytes, ciphertexts: Sequence[bytes], aad: bytes = b""
) -> list[bytes | None]:
    """Batch AEAD open; returns ``None`` at positions that fail to verify."""
    out: list[bytes | None] = []
    for key, ciphertext in zip(keys, ciphertexts):
        try:
            out.append(_pure_aead_decrypt(key, nonce, ciphertext, aad))
        except DecryptionError:
            out.append(None)
    return out


def _pure_x25519_fixed_scalar_batch(k: bytes, us: Sequence[bytes]) -> list[bytes]:
    return [_x25519.scalar_mult(k, u) for u in us]


def _pure_x25519_fixed_point_batch(
    ks: Sequence[bytes], u: bytes
) -> tuple[list[bytes], list[bytes]]:
    return [_x25519.scalar_base_mult(k) for k in ks], [_x25519.scalar_mult(k, u) for k in ks]


_PURE_BACKEND = Backend(
    name=PURE_PYTHON,
    x25519_scalar_mult=_x25519.scalar_mult,
    x25519_scalar_base_mult=_x25519.scalar_base_mult,
    aead_encrypt=_pure_aead_encrypt,
    aead_decrypt=_pure_aead_decrypt,
    aead_seal_batch=_pure_aead_seal_batch,
    aead_open_batch=_pure_aead_open_batch,
    x25519_fixed_scalar_batch=_pure_x25519_fixed_scalar_batch,
    x25519_fixed_point_batch=_pure_x25519_fixed_point_batch,
)


def _build_cryptography_backend() -> Backend | None:
    """Build the accelerated backend, or return None when unavailable."""
    try:
        from cryptography.exceptions import InvalidTag
        from cryptography.hazmat.primitives.asymmetric.x25519 import (
            X25519PrivateKey,
            X25519PublicKey,
        )
        from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
    except ImportError:  # pragma: no cover - exercised only without the package
        return None

    def scalar_mult(k: bytes, u: bytes) -> bytes:
        private = X25519PrivateKey.from_private_bytes(k)
        public = X25519PublicKey.from_public_bytes(u)
        return private.exchange(public)

    def scalar_base_mult(k: bytes) -> bytes:
        return X25519PrivateKey.from_private_bytes(k).public_key().public_bytes_raw()

    def aead_encrypt(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes) -> bytes:
        return ChaCha20Poly1305(key).encrypt(nonce, plaintext, aad or None)

    def aead_decrypt(key: bytes, nonce: bytes, ciphertext: bytes, aad: bytes) -> bytes:
        try:
            return ChaCha20Poly1305(key).decrypt(nonce, ciphertext, aad or None)
        except InvalidTag as exc:
            raise DecryptionError("AEAD tag verification failed") from exc

    def aead_seal_batch(
        keys: Sequence[bytes], nonce: bytes, plaintexts: Sequence[bytes], aad: bytes = b""
    ) -> list[bytes]:
        aad = aad or None
        return [
            ChaCha20Poly1305(key).encrypt(nonce, bytes(plaintext), aad)
            for key, plaintext in zip(keys, plaintexts)
        ]

    def aead_open_batch(
        keys: Sequence[bytes], nonce: bytes, ciphertexts: Sequence[bytes], aad: bytes = b""
    ) -> list[bytes | None]:
        aad = aad or None
        out: list[bytes | None] = []
        for key, ciphertext in zip(keys, ciphertexts):
            try:
                out.append(ChaCha20Poly1305(key).decrypt(nonce, bytes(ciphertext), aad))
            except InvalidTag:
                # Only authentication failures mask the position; anything
                # else (bad key/nonce size) is a caller bug and must raise,
                # exactly as aead_decrypt does.
                out.append(None)
        return out

    def fixed_scalar_batch(k: bytes, us: Sequence[bytes]) -> list[bytes]:
        # The private-key object is built once per round, not once per wire.
        private = X25519PrivateKey.from_private_bytes(bytes(k))
        out: list[bytes] = []
        for u in us:
            try:
                out.append(private.exchange(X25519PublicKey.from_public_bytes(bytes(u))))
            except ValueError:
                # Small-order peer point: report the all-zero secret, exactly
                # as the pure-Python ladder computes it.
                out.append(b"\x00" * 32)
        return out

    def fixed_point_batch(ks: Sequence[bytes], u: bytes) -> tuple[list[bytes], list[bytes]]:
        # Every wrap site needs both halves, and importing a private key
        # already costs OpenSSL the fixed-base multiply that derives the
        # public one: one import per scalar serves both outputs.
        peer = X25519PublicKey.from_public_bytes(bytes(u))
        publics: list[bytes] = []
        shareds: list[bytes] = []
        for k in ks:
            private = X25519PrivateKey.from_private_bytes(bytes(k))
            publics.append(private.public_key().public_bytes_raw())
            try:
                shareds.append(private.exchange(peer))
            except ValueError:
                shareds.append(b"\x00" * 32)
        return publics, shareds

    return Backend(
        name=CRYPTOGRAPHY,
        x25519_scalar_mult=scalar_mult,
        x25519_scalar_base_mult=scalar_base_mult,
        aead_encrypt=aead_encrypt,
        aead_decrypt=aead_decrypt,
        aead_seal_batch=aead_seal_batch,
        aead_open_batch=aead_open_batch,
        x25519_fixed_scalar_batch=fixed_scalar_batch,
        x25519_fixed_point_batch=fixed_point_batch,
    )


_CRYPTOGRAPHY_BACKEND = _build_cryptography_backend()
_active: Backend = _CRYPTOGRAPHY_BACKEND or _PURE_BACKEND


def available_backends() -> list[str]:
    """Names of the backends usable in this environment."""
    names = [PURE_PYTHON]
    if _CRYPTOGRAPHY_BACKEND is not None:
        names.append(CRYPTOGRAPHY)
    return names


def active_backend() -> Backend:
    """Return the backend currently used by the crypto layer."""
    return _active


def set_backend(name: str) -> Backend:
    """Force a specific backend (``"pure-python"`` or ``"cryptography"``)."""
    global _active
    if name == PURE_PYTHON:
        _active = _PURE_BACKEND
    elif name == CRYPTOGRAPHY:
        if _CRYPTOGRAPHY_BACKEND is None:
            raise ConfigurationError("the 'cryptography' package is not installed")
        _active = _CRYPTOGRAPHY_BACKEND
    else:
        raise ConfigurationError(f"unknown crypto backend: {name!r}")
    return _active
