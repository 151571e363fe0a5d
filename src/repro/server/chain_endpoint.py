"""Chain servers as network endpoints.

Each Vuvuzela server runs both protocols; on the wire it is two endpoints
(``server-i/conversation`` and ``server-i/dialing``), each wrapping a
:class:`~repro.mixnet.chain.MixServer` configured with that protocol's noise
builder.  A server receives a round batch from its predecessor (or from the
entry server), does its mixing work, forwards the batch to its successor over
the network, and sends the re-encrypted responses back the way they came.
"""

from __future__ import annotations

from dataclasses import dataclass

from .wire import decode_batch, encode_batch
from ..errors import NetworkError, ProtocolError
from ..mixnet.chain import MixServer, RoundProcessor, handover
from ..net import Envelope, MessageKind, Transport


@dataclass
class ChainServerEndpoint:
    """One protocol instance of one chain server, attached to a transport."""

    name: str
    mix_server: MixServer
    network: Transport
    next_endpoint: str | None
    processor: RoundProcessor | None
    request_kind: MessageKind = MessageKind.CONVERSATION_REQUEST
    #: Highest round number this endpoint has started processing.  A batch
    #: for an *earlier* round is rejected: the server's rng stream (noise,
    #: wrap scalars, mix permutation) advances with each round, so replaying
    #: an old round here would silently desynchronise this server from the
    #: rest of the chain.  Re-running the *same* round (the coordinator's
    #: §6 abort/retry) and skipping forward (a permanently failed round) are
    #: both allowed.
    highest_round: int | None = None

    def __post_init__(self) -> None:
        if self.next_endpoint is None and self.processor is None:
            raise ProtocolError("the last server in the chain needs a round processor")
        self.network.register(self.name, self.handle)

    def handle(self, envelope: Envelope) -> bytes:
        """Process one round batch arriving from the previous hop.

        The decoded requests are handed over to the mix server, which drops
        them once peeled: they are not held while the round descends.
        """
        round_number, attempt, requests = decode_batch(envelope.payload)
        if self.highest_round is not None and round_number < self.highest_round:
            raise ProtocolError(
                f"{self.name}: round {round_number} arrived after round "
                f"{self.highest_round} already ran — chain drives must stay in order"
            )
        self.highest_round = round_number
        # Chain drives of one kind are serialized by the coordinator's
        # in-order gate, so stashing the attempt for the downstream hop of
        # the drive currently in flight is race-free.
        self._attempt = attempt
        responses = self.mix_server.process_round(
            round_number, handover(requests), self._downstream, attempt=attempt
        )
        return encode_batch(round_number, responses, attempt)

    def _downstream(self, round_number: int, batch: list[bytes]) -> list[bytes]:
        """Forward the mixed batch to the next server, or process it here.

        The batch is this hop's to consume: once it is encoded into the next
        hop's frame it is emptied, so only the frame carries it on.
        """
        attempt = getattr(self, "_attempt", 1)
        if self.next_endpoint is None:
            assert self.processor is not None  # enforced in __post_init__
            begin_attempt = getattr(self.processor, "begin_attempt", None)
            if begin_attempt is not None:
                begin_attempt(round_number, attempt)
            return self.processor(round_number, batch)
        frame = encode_batch(round_number, batch, attempt)
        batch.clear()
        reply = self.network.send(
            self.name,
            self.next_endpoint,
            frame,
            kind=self.request_kind,
            round_number=round_number,
        )
        if reply is None:
            raise NetworkError(
                f"round {round_number}: the link from {self.name} to {self.next_endpoint} is down"
            )
        reply_round, _, responses = decode_batch(reply)
        if reply_round != round_number:
            raise ProtocolError(
                f"{self.next_endpoint} answered round {reply_round} instead of {round_number}"
            )
        return responses
