"""The conversation protocol: Algorithm 1 (client) and Algorithm 2 (servers)."""

from .client import (
    ConversationRows,
    ConversationSession,
    build_exchange_batch,
    build_rows,
    pair_keys,
)
from .messages import (
    EMPTY_MESSAGE_BOX,
    EXCHANGE_REQUEST_SIZE,
    MAX_MESSAGE_SIZE,
    MESSAGE_BOX_SIZE,
    ExchangeRequest,
    decrypt_message,
    directional_keys,
    encrypt_message,
    round_dead_drop,
)
from .server import (
    ConversationProcessor,
    build_noise_request,
    conversation_noise_builder,
)

__all__ = [
    "ConversationProcessor",
    "ConversationRows",
    "ConversationSession",
    "EMPTY_MESSAGE_BOX",
    "EXCHANGE_REQUEST_SIZE",
    "ExchangeRequest",
    "MAX_MESSAGE_SIZE",
    "MESSAGE_BOX_SIZE",
    "build_exchange_batch",
    "build_noise_request",
    "build_rows",
    "conversation_noise_builder",
    "decrypt_message",
    "directional_keys",
    "encrypt_message",
    "pair_keys",
    "round_dead_drop",
]
