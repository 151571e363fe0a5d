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
    pad,
    seal_batch,
    unwrap_response,
    wrap_request_batch,
)
from ..crypto.deaddrop_id import dead_drop_for_round, dead_drop_prf_key
from ..crypto.onion import draw_request_scalars
from ..crypto.rng import RandomSource, default_random
from ..errors import OnionError, ProtocolError


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
    secret, the message keys and the dead-drop PRF key are fixed with the
    partner: computed once, on first use.
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

    @cached_property
    def _drop_key(self) -> bytes:
        return dead_drop_prf_key(self._secret)

    def shared_secret(self) -> bytes:
        """The long-lived pairwise secret both endpoints derive (step 1a)."""
        return self._secret

    def dead_drop_for_round(self, round_number: int) -> bytes:
        return dead_drop_for_round(self._drop_key, round_number)

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
    eventual response is ignored.  Every rng draw happens here; the crypto is
    :func:`build_exchange_batch` over one client.
    """
    rng = rng or default_random()

    if session is not None:
        if len(message) > messages.MAX_MESSAGE_SIZE - 1:
            raise ProtocolError(
                f"conversation messages are limited to {messages.MAX_MESSAGE_SIZE - 1} bytes"
            )
        fake = None
        send_key, receive_key = session.directional_keys()
        dead_drop = session.dead_drop_for_round(round_number)
    else:
        # Step 1b: the fake peer's scalar, then the client's own.
        fake = rng.random_bytes(KEY_SIZE) + rng.random_bytes(KEY_SIZE)
        send_key = receive_key = dead_drop = None
        message = b""

    scalars = draw_request_scalars(1, len(server_public_keys), rng)
    wires, contexts = build_exchange_batch(
        round_number, server_public_keys, [fake], [send_key], [dead_drop], [message], scalars
    )
    return wires[0], PendingExchange(
        round_number=round_number,
        onion_context=contexts[0],
        receive_key=receive_key,
        is_real=session is not None,
    )


def build_exchange_batch(
    round_number: int,
    server_public_keys: Sequence[PublicKey],
    fakes: Sequence[bytes | None],
    send_keys: Sequence[bytes | None],
    dead_drops: Sequence[bytes | None],
    plaintexts: Sequence[bytes],
    scalars: Sequence[Sequence[bytes]],
) -> tuple[list[bytes], list[OnionContext]]:
    """Many clients' exchange requests for one round, from pre-drawn bytes.

    The pure part of Algorithm 1, columnar: position ``i`` is an idle client
    when ``fakes[i]`` holds its fake exchange's two scalars (the fake peer's,
    then its own; step 1b), whose shared secret names a throwaway message key
    and dead drop and whose plaintext is empty.  Otherwise ``send_keys[i]``
    and ``dead_drops[i]`` are its conversation's send key and this round's
    dead drop (step 1a).  ``scalars`` are the onion wrap's ephemeral scalars,
    laid out as :func:`~repro.crypto.onion.draw_request_scalars` draws them.

    Nothing here draws randomness, so the round engine may run any slice of
    a batch anywhere and the wires stay byte-identical.
    """
    keys = list(send_keys)
    drops = list(dead_drops)
    for position, fake in enumerate(fakes):
        if fake is not None:
            peer = PrivateKey(fake[:KEY_SIZE]).public_key()
            shared = PrivateKey(fake[KEY_SIZE:]).exchange(peer)
            keys[position] = messages.message_key(shared)
            drops[position] = messages.round_dead_drop(shared, round_number)
    padded = [pad(plaintext, messages.MAX_MESSAGE_SIZE) for plaintext in plaintexts]
    boxes = seal_batch(keys, messages.message_nonce(round_number), padded)
    inners = [drop + box for drop, box in zip(drops, boxes)]
    return wrap_request_batch(inners, server_public_keys, round_number, scalars=scalars)


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
