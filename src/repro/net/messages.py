"""Wire-level message records used by the in-process transport.

The transport does not interpret payloads (they are opaque, usually encrypted,
byte strings); it only records the metadata an on-path network adversary could
observe — source, destination, size, round number and direction.  That record
is exactly what :mod:`repro.adversary` gets to see.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..errors import ProtocolError


class MessageKind(Enum):
    """Coarse classification of traffic, as an adversary could infer from ports/timing."""

    CONVERSATION_REQUEST = "conversation-request"
    CONVERSATION_RESPONSE = "conversation-response"
    DIALING_REQUEST = "dialing-request"
    DIALING_RESPONSE = "dialing-response"
    DIAL_DOWNLOAD = "dial-download"
    CONTROL = "control"
    # New kinds are appended at the end: the TCP framing ships a kind as its
    # definition-order index, so appending keeps old frames decodable.
    #: A whole chunk of one round's submissions in a single frame — the
    #: vectorized swarm's ingest path.  Answered with a per-entry verdict
    #: frame immediately (never a long-poll), so the sender's synchronous
    #: wait on each chunk is the ingest backpressure.
    SUBMISSION_BATCH = "submission-batch"
    #: Bulk retrieval of a resolved round's responses for many clients at
    #: once (the swarm's counterpart to the per-client long-poll).
    RESPONSE_COLLECT = "response-collect"


#: Frames ship a kind as its definition-order index: the TCP request head
#: and the list frames of :mod:`repro.server.wire` alike.
KINDS = tuple(MessageKind)
KIND_INDEX = {kind: index for index, kind in enumerate(KINDS)}


def kind_at(index: int) -> MessageKind:
    """The kind a received frame's index names."""
    if index >= len(KINDS):
        raise ProtocolError(f"unknown message kind index {index} in a frame")
    return KINDS[index]


@dataclass(frozen=True)
class Envelope:
    """One message in flight between two endpoints."""

    source: str
    destination: str
    payload: bytes = field(repr=False)
    kind: MessageKind = MessageKind.CONTROL
    round_number: int = 0

    @property
    def size(self) -> int:
        return len(self.payload)


@dataclass(frozen=True)
class Observation:
    """What a network adversary records about one envelope.

    Deliberately excludes the payload: payloads are encrypted and fixed-size,
    so the only observable facts are the endpoints, size, kind and timing.
    """

    source: str
    destination: str
    size: int
    kind: MessageKind
    round_number: int

    @classmethod
    def of(cls, envelope: Envelope) -> "Observation":
        return cls(
            source=envelope.source,
            destination=envelope.destination,
            size=envelope.size,
            kind=envelope.kind,
            round_number=envelope.round_number,
        )
