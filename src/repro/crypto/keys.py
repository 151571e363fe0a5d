"""Key pairs and Diffie-Hellman exchange.

Every actor in Vuvuzela is identified by an X25519 key pair:

* users have long-term identity keys (used for dialing and for deriving the
  per-conversation shared secret),
* servers have long-term keys known to all clients, and
* clients generate a fresh *ephemeral* key pair per server per round for the
  onion layers (Algorithm 1 step 2), which also gives the conversation
  protocol forward secrecy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import x25519
from .backend import active_backend
from .rng import RandomSource, default_random
from ..errors import CryptoError

KEY_SIZE = 32


@dataclass(frozen=True, order=True)
class PublicKey:
    """A 32-byte X25519 public key."""

    data: bytes

    def __post_init__(self) -> None:
        if len(self.data) != KEY_SIZE:
            raise CryptoError("public keys must be exactly 32 bytes")

    def hex(self) -> str:
        return self.data.hex()

    def __bytes__(self) -> bytes:
        return self.data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PublicKey({self.data.hex()[:16]}...)"


@dataclass(frozen=True)
class PrivateKey:
    """A 32-byte X25519 private key (scalar)."""

    data: bytes = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.data) != KEY_SIZE:
            raise CryptoError("private keys must be exactly 32 bytes")

    def public_key(self) -> PublicKey:
        return PublicKey(active_backend().x25519_scalar_base_mult(self.data))

    def exchange(self, peer: PublicKey) -> bytes:
        """Compute the X25519 shared secret with ``peer``.

        Raises :class:`CryptoError` when the peer key is a small-order point
        (the shared secret would be all zeros and provide no secrecy).
        """
        try:
            shared = active_backend().x25519_scalar_mult(self.data, peer.data)
        except ValueError as exc:
            raise CryptoError(f"X25519 exchange failed: {exc}") from exc
        if x25519.is_all_zero(shared):
            raise CryptoError("X25519 exchange produced an all-zero shared secret")
        return shared


@dataclass(frozen=True)
class KeyPair:
    """A private key together with its public key."""

    private: PrivateKey
    public: PublicKey

    @classmethod
    def generate(cls, rng: RandomSource | None = None) -> "KeyPair":
        rng = rng or default_random()
        private = PrivateKey(rng.random_bytes(KEY_SIZE))
        return cls(private=private, public=private.public_key())

    @classmethod
    def from_private_bytes(cls, data: bytes) -> "KeyPair":
        private = PrivateKey(bytes(data))
        return cls(private=private, public=private.public_key())

    def exchange(self, peer: PublicKey) -> bytes:
        return self.private.exchange(peer)


def shared_secret(own: KeyPair | PrivateKey, peer: PublicKey) -> bytes:
    """Convenience wrapper: DH between ``own`` and ``peer``."""
    return own.exchange(peer)
