"""Cryptographic substrate for the Vuvuzela reproduction.

Everything Vuvuzela needs is here: X25519 Diffie-Hellman, the
ChaCha20-Poly1305 secretbox, HKDF key derivation, fixed-size padding,
dead-drop ID derivation, and the onion encryption used to route requests
through the server chain.  A pure-Python implementation of every primitive is
always available; when the optional ``cryptography`` package is installed it
is used automatically for speed (see :mod:`repro.crypto.backend`).
"""

from .backend import active_backend, available_backends, set_backend
from .deaddrop_id import (
    DEAD_DROP_ID_SIZE,
    conversation_dead_drop,
    invitation_dead_drop,
    random_dead_drop,
)
from .hkdf import derive_key, derive_key_schedule, hkdf
from .keys import KEY_SIZE, KeyPair, PrivateKey, PublicKey, shared_secret
from .onion import (
    LAYER_OVERHEAD,
    RESPONSE_LAYER_OVERHEAD,
    OnionContext,
    peel_request,
    peel_request_batch,
    peel_response_layer,
    request_size,
    response_size,
    unwrap_response,
    unwrap_response_batch,
    wrap_request,
    wrap_request_batch,
    wrap_response,
    wrap_response_batch,
)
from .padding import DEFAULT_PLAINTEXT_SIZE, is_empty_message, pad, unpad
from .rng import DeterministicRandom, RandomSource, SecureRandom, default_random
from .secretbox import (
    NONCE_SIZE,
    OVERHEAD,
    TAG_SIZE,
    derive_layer_keys,
    key_from_shared_secret,
    nonce_for_round,
    open_box,
    open_box_batch,
    seal,
    seal_batch,
)

__all__ = [
    "DEAD_DROP_ID_SIZE",
    "DEFAULT_PLAINTEXT_SIZE",
    "DeterministicRandom",
    "KEY_SIZE",
    "KeyPair",
    "LAYER_OVERHEAD",
    "NONCE_SIZE",
    "OVERHEAD",
    "OnionContext",
    "PrivateKey",
    "PublicKey",
    "RESPONSE_LAYER_OVERHEAD",
    "RandomSource",
    "SecureRandom",
    "TAG_SIZE",
    "active_backend",
    "available_backends",
    "conversation_dead_drop",
    "default_random",
    "derive_key",
    "derive_key_schedule",
    "derive_layer_keys",
    "hkdf",
    "invitation_dead_drop",
    "is_empty_message",
    "key_from_shared_secret",
    "nonce_for_round",
    "open_box",
    "open_box_batch",
    "pad",
    "peel_request",
    "peel_request_batch",
    "peel_response_layer",
    "random_dead_drop",
    "request_size",
    "response_size",
    "seal",
    "seal_batch",
    "set_backend",
    "shared_secret",
    "unpad",
    "unwrap_response",
    "unwrap_response_batch",
    "wrap_request",
    "wrap_request_batch",
    "wrap_response",
    "wrap_response_batch",
]
