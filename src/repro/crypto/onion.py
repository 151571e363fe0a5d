"""Onion encryption for requests routed through the Vuvuzela server chain.

Algorithm 1 (client) step 2: the client encrypts its request once per server,
innermost layer for the last server, outermost for the first server.  Each
layer uses a *fresh ephemeral* X25519 key pair whose public half is prepended
to the layer so the server can derive the shared secret; one HKDF expansion
of that shared secret yields both the request-direction key and the
response-direction key of the layer (:func:`~repro.crypto.secretbox.derive_layer_keys`),
so the server seals its response (Algorithm 2 step 4) without deriving
anything again.

Wire format of one layer::

    ephemeral_public_key (32 bytes) || AEAD( inner_layer )      # request
    AEAD( inner_response )                                       # response

Every request layer therefore adds exactly ``LAYER_OVERHEAD`` bytes, and every
response layer adds exactly ``RESPONSE_LAYER_OVERHEAD`` bytes, keeping all
requests in a round the same size regardless of who sent them.

Servers never peel one wire at a time: :func:`peel_request_batch` and
:func:`wrap_response_batch` process a whole round through the active
backend's batch primitives (fixed-scalar X25519, shared-nonce AEAD), and
:func:`wrap_request_batch` onion-wraps a round's worth of cover traffic in
one batched pass per layer (:func:`wrap_request` is its one-payload
case).  The per-message peel/unwrap functions remain as the reference path;
the batch path is byte-identical to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import x25519
from .backend import active_backend
from .keys import KEY_SIZE, PrivateKey, PublicKey
from .rng import RandomSource, default_random
from .secretbox import (
    TAG_SIZE,
    derive_layer_key_schedule,
    derive_layer_keys,
    nonce_for_round,
    open_box,
    open_box_batch,
    seal,
    seal_batch,
)
from ..errors import OnionError

#: Bytes added by one request layer: ephemeral public key + AEAD tag.
LAYER_OVERHEAD = KEY_SIZE + TAG_SIZE
#: Bytes added by one response layer: AEAD tag only.
RESPONSE_LAYER_OVERHEAD = TAG_SIZE

_REQUEST_LABEL = "onion-request"
_RESPONSE_LABEL = "onion-response"


@dataclass(frozen=True)
class OnionContext:
    """Client-side state needed to unwrap the response of one request.

    ``layer_keys[i]`` is the response-direction key shared with server ``i``
    (0-based, in chain order).  The response comes back wrapped outermost by
    server 0.
    """

    round_number: int
    layer_keys: tuple[bytes, ...]

    @property
    def depth(self) -> int:
        return len(self.layer_keys)


def request_size(inner_size: int, chain_length: int) -> int:
    """Wire size of an onion request with ``chain_length`` layers."""
    return inner_size + chain_length * LAYER_OVERHEAD


def response_size(inner_size: int, chain_length: int) -> int:
    """Wire size of an onion response with ``chain_length`` layers."""
    return inner_size + chain_length * RESPONSE_LAYER_OVERHEAD


def wrap_request(
    inner: bytes,
    server_public_keys: Sequence[PublicKey],
    round_number: int,
    rng: RandomSource | None = None,
) -> tuple[bytes, OnionContext]:
    """Onion-encrypt ``inner`` for a chain of servers.

    Returns the wire bytes to send to the *first* server and the
    :class:`OnionContext` needed to decrypt the eventual response.
    """
    wires, contexts = wrap_request_batch([inner], server_public_keys, round_number, rng)
    return wires[0], contexts[0]


def draw_request_scalars(
    count: int,
    depth: int,
    rng: RandomSource | None = None,
) -> list[list[bytes]]:
    """Pre-draw the ephemeral scalars :func:`wrap_request_batch` consumes.

    Returns ``scalars`` with ``scalars[index][message]`` holding layer
    ``index``'s scalar for ``message``, drawn in the batch wrap's exact order
    (innermost layer first, then message-major within a layer).  Separating
    the draws from the crypto lets the round engine chunk a wrap — or ship
    chunks to worker processes — while keeping every rng draw in the calling
    thread, so chunked and unchunked wraps stay byte-identical.

    Each layer is one ``random_bytes`` call, sliced per message: both rng
    flavours are byte streams, so that is byte-identical to one call per
    scalar.
    """
    rng = rng or default_random()
    scalars: list[list[bytes]] = [[] for _ in range(depth)]
    for index in range(depth - 1, -1, -1):
        layer = rng.random_bytes(KEY_SIZE * count)
        scalars[index] = [layer[at : at + KEY_SIZE] for at in range(0, len(layer), KEY_SIZE)]
    return scalars


def wrap_request_batch(
    inners: Sequence[bytes],
    server_public_keys: Sequence[PublicKey],
    round_number: int,
    rng: RandomSource | None = None,
    *,
    scalars: Sequence[Sequence[bytes]] | None = None,
) -> tuple[list[bytes], list[OnionContext]]:
    """Onion-encrypt many payloads for the same chain in one pass per layer.

    This is the shape of a server's per-round cover traffic: the chain-suffix
    key list is fixed, so each layer does one fused batch of fresh ephemeral
    key pairs exchanged against the one server key, and one batched seal
    under the shared round nonce.  Layers are encrypted from the last server
    towards the first, so the first server holds the outermost layer; the rng
    draws are layer-major (innermost layer first, then message-major).

    ``scalars`` — a pre-drawn matrix from :func:`draw_request_scalars` (or a
    per-message slice of one) — replaces the internal rng draws entirely,
    which is how the round engine wraps one batch in deterministic chunks.
    """
    if not server_public_keys:
        raise OnionError("cannot wrap a request for an empty server chain")
    if not inners:
        return [], []
    backend = active_backend()

    count = len(inners)
    depth = len(server_public_keys)
    if scalars is None:
        scalars = draw_request_scalars(count, depth, rng)
    elif len(scalars) != depth or any(len(layer) != count for layer in scalars):
        raise OnionError("pre-drawn scalars must cover every layer of every payload")
    payloads = [bytes(inner) for inner in inners]
    layer_keys: list[list[bytes]] = [[b""] * depth for _ in range(count)]
    for index in range(depth - 1, -1, -1):
        publics, shareds = backend.x25519_fixed_point_batch(
            scalars[index], server_public_keys[index].data
        )
        if any(x25519.is_all_zero(shared) for shared in shareds):
            raise OnionError("X25519 exchange produced an all-zero shared secret")
        request_keys = []
        for message, (request_key, response_key) in enumerate(derive_layer_key_schedule(shareds)):
            request_keys.append(request_key)
            layer_keys[message][index] = response_key
        boxes = seal_batch(
            request_keys, nonce_for_round(round_number, _REQUEST_LABEL), payloads
        )
        payloads = [public + box for public, box in zip(publics, boxes)]

    contexts = [
        OnionContext(round_number=round_number, layer_keys=tuple(keys))
        for keys in layer_keys
    ]
    return payloads, contexts


def peel_request(
    wire: bytes,
    server_private_key: PrivateKey,
    server_index: int,
    round_number: int,
) -> tuple[bytes, bytes]:
    """Remove one onion layer on a server.

    Returns ``(inner_payload, response_key)``.  The response key must be kept
    by the server to encrypt the response for this request on the way back —
    it is derived here, together with the request key, from one cached HKDF
    expansion, so the response path performs zero further derivations.
    """
    if len(wire) < LAYER_OVERHEAD:
        raise OnionError("onion layer too short to contain a key and a tag")
    ephemeral_public = PublicKey(bytes(wire[:KEY_SIZE]))
    box = wire[KEY_SIZE:]
    shared = server_private_key.exchange(ephemeral_public)
    request_key, response_key = derive_layer_keys(shared)
    try:
        inner = open_box(request_key, nonce_for_round(round_number, _REQUEST_LABEL), box)
    except Exception as exc:
        raise OnionError(f"failed to peel onion layer {server_index}: {exc}") from exc
    return inner, response_key


def peel_request_batch(
    wires: Sequence[bytes],
    server_private_key: PrivateKey,
    server_index: int,
    round_number: int,
) -> tuple[list[bytes | None], list[bytes | None]]:
    """Remove one onion layer from every wire of a round in a single pass.

    Returns ``(inners, response_keys)`` aligned with ``wires``; malformed
    positions (short wire, small-order ephemeral key, failed authentication)
    hold ``None`` in both lists instead of raising, so one bad wire cannot
    stall a round.  Valid positions are byte-identical to
    :func:`peel_request`.
    """
    count = len(wires)
    inners: list[bytes | None] = [None] * count
    response_keys: list[bytes | None] = [None] * count

    views = [memoryview(wire) if not isinstance(wire, memoryview) else wire for wire in wires]
    candidates = [i for i in range(count) if len(views[i]) >= LAYER_OVERHEAD]
    if not candidates:
        return inners, response_keys

    points = [bytes(views[i][:KEY_SIZE]) for i in candidates]
    shareds = active_backend().x25519_fixed_scalar_batch(server_private_key.data, points)

    positions: list[int] = []
    request_keys: list[bytes] = []
    kept_response_keys: list[bytes] = []
    boxes: list[memoryview] = []
    for i, shared in zip(candidates, shareds):
        if x25519.is_all_zero(shared):
            continue
        request_key, response_key = derive_layer_keys(shared)
        positions.append(i)
        request_keys.append(request_key)
        kept_response_keys.append(response_key)
        boxes.append(views[i][KEY_SIZE:])

    opened = open_box_batch(
        request_keys, nonce_for_round(round_number, _REQUEST_LABEL), boxes
    )
    for i, response_key, inner in zip(positions, kept_response_keys, opened):
        if inner is None:
            continue
        inners[i] = inner
        response_keys[i] = response_key
    return inners, response_keys


def wrap_response(inner: bytes, layer_key: bytes, round_number: int) -> bytes:
    """Add one response layer (server side, Algorithm 2 step 4)."""
    return seal(layer_key, nonce_for_round(round_number, _RESPONSE_LABEL), inner)


def wrap_response_batch(
    inners: Sequence[bytes], layer_keys: Sequence[bytes], round_number: int
) -> list[bytes]:
    """Add one response layer to every response of a round in one pass.

    ``layer_keys`` are the response keys returned by the peel; the whole
    round shares one nonce, so the batch runs through the backend's batched
    seal.  Byte-identical to calling :func:`wrap_response` per message.
    """
    return seal_batch(layer_keys, nonce_for_round(round_number, _RESPONSE_LABEL), inners)


def unwrap_response(wire: bytes, context: OnionContext) -> bytes:
    """Remove all response layers on the client (Algorithm 1 step 3)."""
    payload = wire
    for index, key in enumerate(context.layer_keys):
        try:
            payload = open_box(
                key, nonce_for_round(context.round_number, _RESPONSE_LABEL), payload
            )
        except Exception as exc:
            raise OnionError(f"failed to unwrap response layer {index}: {exc}") from exc
    return payload


def unwrap_response_batch(
    wires: Sequence[bytes | None], contexts: Sequence[OnionContext]
) -> list[bytes | None]:
    """Remove all response layers from many responses in one pass per layer.

    The client-side counterpart of :func:`wrap_response_batch`: every response
    of a round shares the per-layer nonce, so a swarm of clients unwraps the
    whole round through the backend's batched open.  Positions whose wire is
    ``None`` (no response arrived) or that fail authentication at any layer
    come back as ``None`` instead of raising — one corrupt response must not
    stall a round.  Surviving positions are byte-identical to
    :func:`unwrap_response`.

    All contexts must agree on round number and depth (they come from one
    round's :func:`wrap_request_batch`).
    """
    count = len(wires)
    if len(contexts) != count:
        raise OnionError("response batch and contexts must align")
    alive = [i for i in range(count) if wires[i] is not None]
    results: list[bytes | None] = [None] * count
    if not alive:
        return results
    round_number = contexts[alive[0]].round_number
    depth = contexts[alive[0]].depth
    for i in alive:
        if contexts[i].round_number != round_number or contexts[i].depth != depth:
            raise OnionError("a response batch must share one round and chain depth")
    payloads: list[bytes] = [wires[i] for i in alive]  # type: ignore[misc]
    for index in range(depth):
        nonce = nonce_for_round(round_number, _RESPONSE_LABEL)
        keys = [contexts[i].layer_keys[index] for i in alive]
        opened = open_box_batch(keys, nonce, payloads)
        next_alive: list[int] = []
        next_payloads: list[bytes] = []
        for i, inner in zip(alive, opened):
            if inner is not None:
                next_alive.append(i)
                next_payloads.append(inner)
        alive, payloads = next_alive, next_payloads
        if not alive:
            return results
    for i, payload in zip(alive, payloads):
        results[i] = payload
    return results


def peel_response_layer(wire: bytes, layer_key: bytes, round_number: int) -> bytes:
    """Remove a single response layer (used by tests and the simulator)."""
    return open_box(layer_key, nonce_for_round(round_number, _RESPONSE_LABEL), wire)
