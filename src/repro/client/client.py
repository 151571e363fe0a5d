"""The high-level Vuvuzela client.

A :class:`VuvuzelaClient` owns a long-term identity key pair and implements
the behaviour §3 describes: it always participates in every conversation round
(sending a fake request when idle), queues outgoing messages, retransmits
messages lost to network failures, listens for incoming calls each dialing
round, and can dial other users by their public key.

§9 "Multiple conversations": a client has a fixed number of conversation
slots (``max_conversations``, default 1 as in the paper's prototype) and
sends exactly that many exchange requests every round — one per active
conversation, fake requests for empty slots — so the number of active
conversations is never observable.  The slots are the rows of one
:class:`~repro.conversation.ConversationRows`, the routine the client swarm
builds and decodes whole populations with; the client keeps what is its
own: the outbox, message framing, duplicate suppression and counters.

The client is transport-agnostic: :class:`~repro.core.system.VuvuzelaSystem`
drives it through the ``build_*``/``handle_*`` methods each round and moves
the resulting byte strings over the in-process network.

Two details exist for the continuous scheduler
(:mod:`repro.runtime.scheduler`), where conversation and dialing rounds
overlap in time:

* the client's randomness is forked into **one stream per protocol** (when
  the source supports forking), so the order in which a conversation build
  and a dialing build interleave cannot change either protocol's draws —
  overlapped execution stays byte-identical to serial execution; and
* in-flight state (pending exchanges, pending dials) is kept **per round
  number**, so a dialing round's build/handle pair may straddle a
  conversation round's without clobbering it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .framing import SequenceTracker, decode_frame, encode_frame
from .state import IncomingCall, Outbox, ReceivedMessage
from ..conversation import ConversationRows, ConversationSession
from ..crypto import KeyPair, PublicKey
from ..crypto.rng import RandomSource, default_random
from ..deaddrop import InvitationDropStore
from ..dialing import PendingDial, build_dial_request, fetch_invitations
from ..errors import ProtocolError


@dataclass
class ConversationSlot:
    """Client-side state of one active conversation."""

    #: The partner, with the pairwise secret and message keys derived once
    #: per conversation.
    session: ConversationSession
    outbox: Outbox = field(default_factory=Outbox)
    receive_tracker: SequenceTracker = field(default_factory=SequenceTracker)

    @property
    def peer(self) -> PublicKey:
        return self.session.peer_public_key


@dataclass
class VuvuzelaClient:
    """One user's Vuvuzela client."""

    name: str
    keys: KeyPair
    server_public_keys: list[PublicKey]
    rng: RandomSource = field(default_factory=default_random)
    #: Fixed number of conversation exchanges sent every round (§3.2, §9).
    max_conversations: int = 1

    received: list[ReceivedMessage] = field(default_factory=list)
    incoming_calls: list[IncomingCall] = field(default_factory=list)
    dial_target: PublicKey | None = None

    _slots: dict[bytes, ConversationSlot] = field(default_factory=dict, repr=False)
    _pending_dials: dict[int, PendingDial] = field(default_factory=dict, repr=False)
    _send_sequencer: SequenceTracker = field(default_factory=SequenceTracker, repr=False)
    rounds_participated: int = 0
    rounds_lost: int = 0
    duplicates_suppressed: int = 0

    def __post_init__(self) -> None:
        if self.max_conversations < 1:
            raise ProtocolError("a client needs at least one conversation slot")
        # One independent stream per protocol: the interleaving order of
        # conversation and dialing builds (the continuous scheduler overlaps
        # them) must not change either protocol's draws.  Sources without
        # fork (e.g. SecureRandom) are shared — they are not replayable
        # anyway, so stream confinement buys nothing there.
        if hasattr(self.rng, "fork"):
            self._conversation_rng: RandomSource = self.rng.fork("conversation")
            self._dialing_rng: RandomSource = self.rng.fork("dialing")
        else:
            self._conversation_rng = self.rng
            self._dialing_rng = self.rng
        #: One row per slot, all drawing from the conversation stream.
        self._rows = ConversationRows(
            self.server_public_keys, [self._conversation_rng] * self.max_conversations
        )

    # ------------------------------------------------------------------ user API

    @property
    def public_key(self) -> PublicKey:
        return self.keys.public

    @property
    def active_conversations(self) -> list[PublicKey]:
        return [slot.peer for slot in self._slots.values()]

    @property
    def outbox(self) -> Outbox:
        """The outbox of the primary (oldest) conversation, for convenience."""
        if not self._slots:
            return Outbox()
        return next(iter(self._slots.values())).outbox

    def _slot_for(self, peer: PublicKey) -> ConversationSlot | None:
        return self._slots.get(bytes(peer))

    def start_conversation(self, peer: PublicKey) -> None:
        """Enter a conversation with ``peer`` (after dialing or being dialed).

        When all ``max_conversations`` slots are occupied, the oldest
        conversation is ended to make room — the behaviour §5 describes
        ("a user may end one conversation to make room for another").
        """
        if self._slot_for(peer) is not None:
            return
        if len(self._slots) >= self.max_conversations:
            oldest = next(iter(self._slots))
            del self._slots[oldest]
        self._slots[bytes(peer)] = ConversationSlot(
            session=ConversationSession(own_keys=self.keys, peer_public_key=peer)
        )

    def end_conversation(self, peer: PublicKey | None = None) -> None:
        """End a conversation (the primary one when ``peer`` is not given)."""
        if peer is not None:
            self._slots.pop(bytes(peer), None)
        elif self._slots:
            del self._slots[next(iter(self._slots))]

    def send_message(self, message: bytes | str, peer: PublicKey | None = None) -> None:
        """Queue a message for a conversation partner.

        ``peer`` defaults to the primary conversation.  Messages are framed
        with a sequence number so that a retransmission (after a lost round)
        is never delivered twice to the partner.
        """
        if not self._slots:
            raise ProtocolError(f"{self.name} has no active conversation to send to")
        slot = self._slot_for(peer) if peer is not None else next(iter(self._slots.values()))
        if slot is None:
            raise ProtocolError(f"{self.name} has no conversation with that peer")
        body = message.encode("utf-8") if isinstance(message, str) else bytes(message)
        slot.outbox.enqueue(encode_frame(self._send_sequencer.assign(), body))

    def dial(self, peer: PublicKey) -> None:
        """Request a conversation with ``peer`` at the next dialing round."""
        self.dial_target = peer

    def accept_call(self, call: IncomingCall) -> None:
        """Accept an incoming call: enter a conversation with the caller."""
        self.start_conversation(call.caller)

    def messages_from(self, peer: PublicKey) -> list[bytes]:
        return [m.body for m in self.received if m.sender == peer]

    # ------------------------------------------------------ conversation rounds

    def build_conversation_requests(self, round_number: int) -> list[bytes]:
        """Build this round's fixed-size batch of exchange requests.

        Exactly ``max_conversations`` requests are produced every round: one
        real exchange per active conversation, fake requests for the empty
        slots (Algorithm 1 steps 1a/1b), so the batch size never reveals how
        many conversations are active.
        """
        rows = self._rows
        slots = list(self._slots.values())
        rows.owners = slots + [None] * (self.max_conversations - len(slots))
        rows.keys = [None if slot is None else slot.session.keys for slot in rows.owners]
        plaintexts = [b"" if slot is None else slot.outbox.next_message() for slot in rows.owners]
        wires = rows.build(round_number, plaintexts)
        self.rounds_participated += 1
        return wires

    def handle_conversation_responses(
        self, round_number: int, responses: list[bytes | None]
    ) -> list[bytes | None]:
        """Process the responses of a conversation round, aligned with the requests.

        ``None`` entries mean that request's round was lost (the network
        dropped our traffic); the corresponding in-flight message stays queued
        for retransmission, as it does when the partner took no part.
        Returns the per-slot partner messages.
        """
        decoded = self._rows.decode(round_number, responses)
        if all(response is None for response in responses):
            self.rounds_lost += 1
        results: list[bytes | None] = []
        for slot, message in decoded:
            if slot is not None and message is not None:
                slot.outbox.mark_delivered()
                results.append(self._deliver(round_number, slot, message))
                continue
            if slot is not None:
                slot.outbox.mark_lost()
            results.append(None)
        return results

    def _deliver(self, round_number: int, slot: ConversationSlot, message: bytes) -> bytes | None:
        """Unframe, deduplicate and record one received message."""
        if message == b"":
            return b""
        try:
            sequence, body = decode_frame(message)
        except ProtocolError:
            # Unframed payload (e.g. a peer speaking the bare protocol):
            # deliver it as-is without duplicate suppression.
            sequence, body = None, message
        if sequence is not None and not slot.receive_tracker.accept(sequence):
            self.duplicates_suppressed += 1
            return b""
        self.received.append(ReceivedMessage(round_number=round_number, sender=slot.peer, body=body))
        return body

    # ------------------------------------------------------------ dialing rounds

    def build_dialing_request(self, dialing_round: int, num_buckets: int) -> bytes:
        """Build this dialing round's request (a real invitation or a no-op)."""
        if dialing_round in self._pending_dials:
            raise ProtocolError(
                f"{self.name} already built a dialing request for round {dialing_round}"
            )
        # As for conversations: a pending dial for an earlier round is dead
        # once a newer dialing round builds — drop it instead of leaking it.
        for stale in [r for r in self._pending_dials if r < dialing_round]:
            del self._pending_dials[stale]
        wire, pending = build_dial_request(
            dialing_round,
            self.server_public_keys,
            self.keys,
            self.dial_target,
            num_buckets,
            self._dialing_rng,
        )
        self._pending_dials[dialing_round] = pending
        # Dialing is one-shot: the invitation is sent this round, after which
        # the user must dial again to re-invite.
        self.dial_target = None
        return wire

    def handle_dialing_response(self, dialing_round: int, response: bytes | None) -> None:
        pending = self._pending_dials.pop(dialing_round, None)
        if pending is None:
            raise ProtocolError(f"{self.name} has no pending dial for round {dialing_round}")
        if response is None:
            self.rounds_lost += 1

    def poll_invitations(self, dialing_round: int, store: InvitationDropStore) -> list[IncomingCall]:
        """Download this client's invitation dead drop and record incoming calls."""
        return self.record_calls(dialing_round, fetch_invitations(self.keys, store, dialing_round))

    def record_calls(self, dialing_round: int, callers: list[PublicKey]) -> list[IncomingCall]:
        """Record the callers a scan of this client's dead drop found.

        The one place calls are made: both the per-client poll and the
        driver's batched scan end here.  Our own key (a self-dial) is not a
        call.
        """
        calls = [
            IncomingCall(dialing_round=dialing_round, caller=caller)
            for caller in callers
            if caller != self.public_key
        ]
        self.incoming_calls.extend(calls)
        return calls
