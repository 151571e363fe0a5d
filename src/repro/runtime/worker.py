"""The round engine's row ops, and the one task its worker pool runs.

A *row op* is a pure function ``op(columns, *static)``: ``columns`` are
row-aligned lists of byte strings (``None`` allowed), ``static`` is what
every row shares (keys, a round number, a dead drop), and the result is a
list of row-aligned output columns.  :class:`~repro.runtime.engine.RoundEngine`
runs an op inline on slices of its columns, or ships each slice to a
worker, where :func:`run` unpacks it, calls the same op and packs its
output; its table (:data:`~repro.runtime.engine.POOL_OPS`) says which.

Worker-side state is deliberately minimal: the active crypto backend is
re-asserted per task from the name the parent recorded when it built the
task (cheap when unchanged), so inline and pooled execution always run the
same primitives.

Everything a task receives is deterministic (wire bytes, pre-drawn scalars,
round numbers); the rng lives exclusively in the parent, which is what makes
inline and pooled execution byte-identical.
"""

from __future__ import annotations

import os

from ..conversation.client import build_exchange_batch
from ..crypto.backend import active_backend, set_backend
from ..crypto.invitation import open_invitations
from ..crypto.keys import PrivateKey
from ..crypto.onion import peel_request_batch, wrap_request_batch, wrap_response_batch
from ..dialing.client import build_dial_batch
from ..net.packed import pack, unpack_owned


def split_columns(entries: list, rows: int) -> list[list]:
    """Columns of ``rows`` entries each, laid back to back in ``entries``."""
    return [entries[start : start + rows] for start in range(0, len(entries), rows)]


def run(task: tuple) -> bytes:
    """The pool's one task: a row op over one chunk.

    The task is ``(op, rows, block, static, backend_name)``; ``block`` packs
    the chunk's input columns back to back, exactly as the parent laid them
    out (and drew their scalars), and the op's output columns come back
    packed the same way.
    """
    op, rows, block, static, backend_name = task
    if active_backend().name != backend_name:
        set_backend(backend_name)
    output = op(split_columns(unpack_owned(block), rows), *static)
    return pack(b"", [entry for column in output for entry in column])


def peel_rows(columns: list, private_key: PrivateKey, server_index: int, round_number: int) -> list:
    """Peel wires with a server's key: their inner payloads and response
    keys, ``None`` at malformed positions."""
    (wires,) = columns
    return list(peel_request_batch(wires, private_key, server_index, round_number))


def wrap_response_rows(columns: list, round_number: int) -> list:
    """Seal inner responses under their layer keys."""
    inners, layer_keys = columns
    return [wrap_response_batch(inners, layer_keys, round_number)]


def wrap_noise_rows(columns: list, public_keys: list, round_number: int) -> list:
    """Onion-wrap noise: ``columns`` are its payloads, then its pre-drawn
    scalars layer by layer."""
    payloads, *scalars = columns
    wires, _ = wrap_request_batch(payloads, public_keys, round_number, scalars=scalars)
    return [wires]


def wrap_client_rows(columns: list, public_keys: list, round_number: int) -> list:
    """Build clients' conversation wires: ``columns`` are
    :func:`~repro.conversation.client.build_exchange_batch`'s fake exchanges,
    send keys, dead drops and plaintexts, then the onion scalars layer by
    layer.  Returns the wires, then one column of response keys per server
    in chain order."""
    fakes, send_keys, dead_drops, plaintexts, *scalars = columns
    wires, contexts = build_exchange_batch(
        round_number, public_keys, fakes, send_keys, dead_drops, plaintexts, scalars
    )
    return [wires, *zip(*(context.layer_keys for context in contexts))]


def wrap_dial_rows(columns: list, public_keys: list, round_number: int) -> list:
    """Build clients' dialing wires: ``columns`` are
    :func:`~repro.dialing.client.build_dial_batch`'s request heads,
    invitation scalars, recipients and senders, then the onion scalars
    layer by layer."""
    heads, ephemerals, recipients, senders, *scalars = columns
    return [
        build_dial_batch(round_number, public_keys, heads, ephemerals, recipients, senders, scalars)
    ]


def scan_rows(columns: list, invitations: list, round_number: int) -> list:
    """Trial-decrypt one invitation dead drop for each recipient's private
    scalar: its callers' public keys in bucket order, packed."""
    (private_keys,) = columns
    found = [open_invitations(PrivateKey(key), invitations, round_number) for key in private_keys]
    return [[pack(b"", [caller.data for caller in callers]) for callers in found]]


def crash(_: object = None) -> None:  # pragma: no cover - runs in a worker
    """Kill the worker process outright (test helper for pool-teardown paths)."""
    os._exit(1)
