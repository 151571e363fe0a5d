"""Client-side conversation and messaging state.

The Vuvuzela client keeps a small amount of local state: who it is talking to,
which messages are queued for sending, which message is currently in flight
(and must be retransmitted if the round is lost — §3.1), and what has been
received.  None of this state ever leaves the client; the observable behaviour
(one fixed-size request per round) is identical whatever it contains.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..crypto import PublicKey


@dataclass(frozen=True)
class ReceivedMessage:
    """A message received from the active conversation partner."""

    round_number: int
    sender: PublicKey
    body: bytes


@dataclass(frozen=True)
class IncomingCall:
    """An invitation received through the dialing protocol."""

    dialing_round: int
    caller: PublicKey


@dataclass
class Outbox:
    """Queue of messages waiting to be sent, with retransmission support.

    Vuvuzela clients send at most one message per round; anything the user
    types faster than that is queued (§3.2).  A message stays "in flight"
    until the round's response confirms the exchange happened; if the round
    is lost (network outage, a dropping link rule) the message is retransmitted.
    """

    queue: deque[bytes] = field(default_factory=deque)
    in_flight: bytes | None = None

    def enqueue(self, message: bytes) -> None:
        self.queue.append(bytes(message))

    def next_message(self) -> bytes:
        """The message to send this round (empty if there is nothing to say)."""
        if self.in_flight is not None:
            return self.in_flight
        if self.queue:
            self.in_flight = self.queue.popleft()
            return self.in_flight
        return b""

    def mark_delivered(self) -> None:
        """The round completed: whatever was in flight has been exchanged."""
        self.in_flight = None

    def mark_lost(self) -> None:
        """The round was lost: keep the in-flight message for retransmission."""
        # Nothing to do — the message stays in ``in_flight`` and will be
        # returned again by :meth:`next_message`.

    @property
    def pending(self) -> int:
        return len(self.queue) + (1 if self.in_flight is not None else 0)
