"""Worker-process entry points of the round engine's pool.

Each function here is the body of one *chunk task*.  A wire task carries
its chunk as one packed entry block (:mod:`repro.runtime.shm`), runs one
batch crypto kernel over it and returns the results packed the same way;
the invitation scan's task carries a dead drop and a chunk of recipient keys
as they are.  Everything crosses the executor's task pipe.

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

from .shm import pack_entries, unpack_entries
from ..crypto.backend import active_backend, set_backend
from ..crypto.invitation import open_invitations
from ..crypto.keys import PrivateKey, PublicKey
from ..crypto.onion import peel_request_batch, wrap_request_batch
from ..crypto.secretbox import clear_derived_key_cache


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
            unpack_entries(block), PrivateKey(private_key), server_index, round_number
        )
    finally:
        clear_derived_key_cache()
    return pack_entries([*inners, *keys])


def wrap_noise_chunk(task: tuple) -> bytes:
    """Onion-wrap one chunk of noise payloads with pre-drawn scalars.

    The block holds ``count`` payloads followed by ``depth * count`` scalars
    in layer-major order (layer ``L``'s scalar for message ``m`` at entry
    ``count + L * count + m``), exactly as the parent drew them from the
    server rng; the chunk's wires are therefore byte-identical to the
    unchunked ``wrap_request_batch``.
    """
    block, depth, public_keys_bytes, round_number, backend_name = task
    _use_backend(backend_name)
    entries = unpack_entries(block)
    count = len(entries) // (depth + 1)
    scalars = [entries[count * (layer + 1) : count * (layer + 2)] for layer in range(depth)]
    public_keys = [PublicKey(raw) for raw in public_keys_bytes]
    try:
        wires, _ = wrap_request_batch(entries[:count], public_keys, round_number, scalars=scalars)
    finally:
        clear_derived_key_cache()
    return pack_entries(wires)


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
