"""High-level Vuvuzela client: conversation state, outbox, framing, dialing listener."""

from .client import ConversationSlot, VuvuzelaClient
from .connection import ClientConnection
from .directory import Contact, KeyDirectory
from .framing import FRAME_OVERHEAD, MAX_BODY_SIZE, SequenceTracker, decode_frame, encode_frame
from .state import IncomingCall, Outbox, ReceivedMessage

__all__ = [
    "ClientConnection",
    "Contact",
    "ConversationSlot",
    "FRAME_OVERHEAD",
    "IncomingCall",
    "KeyDirectory",
    "MAX_BODY_SIZE",
    "Outbox",
    "ReceivedMessage",
    "SequenceTracker",
    "VuvuzelaClient",
    "decode_frame",
    "encode_frame",
]
