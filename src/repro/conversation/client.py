"""Client side of the conversation protocol (Algorithm 1).

Each round, a client performs exactly one exchange:

* If it is in an active conversation, it derives the round's dead drop from
  the Diffie-Hellman shared secret with its partner, encrypts the queued
  message (or the empty message) and onion-wraps the exchange request for the
  server chain (steps 1a and 2).
* If it is idle, it performs the same computation against a freshly generated
  random public key, producing a *fake request* that is indistinguishable
  from a real one (step 1b).

The returned :class:`PendingExchange` carries everything needed to interpret
the eventual response (step 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from . import messages
from ..crypto import (
    KEY_SIZE,
    KeyPair,
    OnionContext,
    PrivateKey,
    PublicKey,
    unwrap_response,
    wrap_request,
)
from ..crypto.rng import RandomSource, default_random
from ..errors import OnionError


@dataclass(frozen=True)
class PendingExchange:
    """Client-side state for one in-flight exchange request."""

    round_number: int
    onion_context: OnionContext
    receive_key: bytes | None = field(repr=False, default=None)
    is_real: bool = False

    @property
    def expects_reply(self) -> bool:
        return self.is_real


@dataclass
class ConversationSession:
    """The client's view of one conversation with a fixed partner.

    Both endpoints of a conversation construct this from their own key pair
    and the partner's public key; the derived state (shared secret, per-round
    dead drops, directional message keys) is identical on both sides.  The
    secret and the keys are fixed with the partner: computed once, on first use.
    """

    own_keys: KeyPair
    peer_public_key: PublicKey

    @cached_property
    def _secret(self) -> bytes:
        return self.own_keys.exchange(self.peer_public_key)

    @cached_property
    def _keys(self) -> tuple[bytes, bytes]:
        return messages.directional_keys(
            self._secret, bytes(self.own_keys.public), bytes(self.peer_public_key)
        )

    def shared_secret(self) -> bytes:
        """The long-lived pairwise secret both endpoints derive (step 1a)."""
        return self._secret

    def dead_drop_for_round(self, round_number: int) -> bytes:
        return messages.round_dead_drop(self._secret, round_number)

    def directional_keys(self) -> tuple[bytes, bytes]:
        """The (send, receive) message keys for this endpoint."""
        return self._keys


def build_exchange_request(
    round_number: int,
    server_public_keys: Sequence[PublicKey],
    session: ConversationSession | None,
    message: bytes = b"",
    rng: RandomSource | None = None,
) -> tuple[bytes, PendingExchange]:
    """Build the onion-wrapped exchange request for one round.

    ``session`` is ``None`` for an idle client, in which case a fake request
    against a random public key is produced (Algorithm 1, step 1b) and the
    eventual response is ignored.
    """
    rng = rng or default_random()

    if session is not None:
        send_key, receive_key = session.directional_keys()
        dead_drop = session.dead_drop_for_round(round_number)
        is_real = True
    else:
        # Step 1b: fake request against a random public key.  The resulting
        # dead drop and message key are never used again.
        random_peer = KeyPair.generate(rng)
        shared = PrivateKey(rng.random_bytes(KEY_SIZE)).exchange(random_peer.public)
        send_key = messages.message_key(shared)
        receive_key = None
        dead_drop = messages.round_dead_drop(shared, round_number)
        message = b""
        is_real = False

    box = messages.encrypt_message(send_key, round_number, message)
    inner = messages.ExchangeRequest(dead_drop_id=dead_drop, message_box=box).encode()
    wire, onion_context = wrap_request(inner, server_public_keys, round_number, rng)
    return wire, PendingExchange(
        round_number=round_number,
        onion_context=onion_context,
        receive_key=receive_key,
        is_real=is_real,
    )


def process_exchange_response(response_wire: bytes, pending: PendingExchange) -> bytes | None:
    """Unwrap and decrypt the response to an exchange request (step 3).

    Returns the partner's message (possibly ``b""`` for an intentionally
    empty message), or ``None`` when there was no message this round — the
    client was idle, the partner did not participate, or the response was
    corrupted in transit.
    """
    try:
        inner = unwrap_response(response_wire, pending.onion_context)
    except OnionError:
        return None
    if not pending.is_real or pending.receive_key is None:
        return None
    return messages.decrypt_message(pending.receive_key, pending.round_number, inner)
