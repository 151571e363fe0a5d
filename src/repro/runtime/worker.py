"""Worker-process entry points of the round engine's pool.

Each ``*_chunk`` function here is the body of one *chunk task*.  A wire
task carries its chunk as one packed list (:mod:`repro.net.packed`),
runs one batch crypto op over it and returns the results packed the same
way; the invitation scan's task carries a dead drop and a chunk of recipient
keys as they are.  Everything crosses the executor's task pipe.  The three
wrap ops are ``*_rows`` functions of a chunk's columns, which the engine's
inline path calls directly, so inline and pooled chunks run one function.

Worker-side state is deliberately minimal and round-scoped:

* the active crypto backend is re-asserted per task from the name the parent
  recorded when it built the task (cheap when unchanged), so inline and
  pooled execution always run the same primitives;
* the memoized layer-key derivations a chunk populates are dropped before
  the task returns — a worker must not retain DH shared secrets past the
  chunk, mirroring what ``MixChain.run_round`` does for the whole round.

Everything a task receives is deterministic (wire bytes, pre-drawn scalars,
round numbers); the rng lives exclusively in the parent, which is what makes
inline and pooled execution byte-identical.
"""

from __future__ import annotations

import os

from ..conversation.client import build_exchange_batch
from ..crypto.backend import active_backend, set_backend
from ..crypto.invitation import open_invitations
from ..crypto.keys import PrivateKey, PublicKey
from ..crypto.onion import peel_request_batch, wrap_request_batch
from ..crypto.secretbox import clear_derived_key_cache
from ..dialing.client import build_dial_batch
from ..net.packed import pack, unpack, unpack_owned


def _use_backend(name: str) -> None:
    if active_backend().name != name:
        set_backend(name)


def peel_chunk(task: tuple) -> bytes:
    """Peel one chunk of wires with the server scalar.

    Returns ``2 * count`` packed entries: the peeled inner payloads followed
    by the response keys, ``None``-masked at malformed positions.
    """
    private_key, block, server_index, round_number, backend_name = task
    _use_backend(backend_name)
    try:
        inners, keys = peel_request_batch(
            unpack(block), PrivateKey(private_key), server_index, round_number
        )
    finally:
        clear_derived_key_cache()
    return pack(b"", [*inners, *keys])


def wrap_noise_rows(columns: list, public_keys: list[PublicKey], round_number: int) -> list[bytes]:
    """Onion-wrap one chunk of noise: ``columns`` are its payloads, then its
    pre-drawn scalars layer by layer.  Returns the wires."""
    payloads, *scalars = columns
    wires, _ = wrap_request_batch(payloads, public_keys, round_number, scalars=scalars)
    return wires


def wrap_client_rows(columns: list, public_keys: list[PublicKey], round_number: int) -> list[bytes]:
    """Build one chunk of clients' wires: ``columns`` are
    :func:`~repro.conversation.client.build_exchange_batch`'s fake exchanges,
    send keys, dead drops and plaintexts, then the onion scalars layer by
    layer.  Returns the wires, then each wire's response keys in chain order
    (wire ``m``'s key for server ``L`` at entry ``count + m * depth + L``)."""
    fakes, send_keys, dead_drops, plaintexts, *scalars = columns
    wires, contexts = build_exchange_batch(
        round_number, public_keys, fakes, send_keys, dead_drops, plaintexts, scalars
    )
    return [*wires, *(key for context in contexts for key in context.layer_keys)]


def wrap_dial_rows(columns: list, public_keys: list[PublicKey], round_number: int) -> list[bytes]:
    """Build one chunk of clients' dialing wires: ``columns`` are
    :func:`~repro.dialing.client.build_dial_batch`'s request heads,
    invitation scalars, recipients and senders, then the onion scalars
    layer by layer.  Returns the wires."""
    heads, ephemerals, recipients, senders, *scalars = columns
    return build_dial_batch(
        round_number, public_keys, heads, ephemerals, recipients, senders, scalars
    )


def wrap_noise_chunk(task: tuple) -> bytes:
    """:func:`wrap_noise_rows` over one packed chunk."""
    return _run_rows(wrap_noise_rows, task)


def wrap_client_chunk(task: tuple) -> bytes:
    """:func:`wrap_client_rows` over one packed chunk."""
    return _run_rows(wrap_client_rows, task)


def wrap_dial_chunk(task: tuple) -> bytes:
    """:func:`wrap_dial_rows` over one packed chunk."""
    return _run_rows(wrap_dial_rows, task)


def _run_rows(rows, task: tuple) -> bytes:
    """Unpack a chunk's columns, run ``rows`` on them and pack the results.

    The block holds ``width`` equal-length columns back to back, exactly as
    the parent laid them out (and drew their scalars), so the results are
    byte-identical to running ``rows`` inline.
    """
    block, width, public_keys_bytes, round_number, backend_name = task
    _use_backend(backend_name)
    entries = unpack_owned(block)
    count = len(entries) // width
    columns = [entries[count * column : count * (column + 1)] for column in range(width)]
    public_keys = [PublicKey(raw) for raw in public_keys_bytes]
    try:
        return pack(b"", rows(columns, public_keys, round_number))
    finally:
        clear_derived_key_cache()


def scan_chunk(task: tuple) -> list[list[PublicKey]]:
    """Trial-decrypt one invitation dead drop for a chunk of recipients.

    The task carries the recipients' private scalars, the bucket and the
    round; the result lists each recipient's callers, in recipient order.
    """
    private_keys, invitations, round_number, backend_name = task
    _use_backend(backend_name)
    return [
        open_invitations(PrivateKey(key), invitations, round_number) for key in private_keys
    ]


def crash(_: object = None) -> None:  # pragma: no cover - runs in a worker
    """Kill the worker process outright (test helper for pool-teardown paths)."""
    os._exit(1)
