"""Worker-process entry points of the process-sharded round engine.

Each function here is the body of one *chunk task*.  The round's wire
kernels attach its shared-memory input block, run one batch crypto kernel
over their slice of entries, write the results into a fresh output segment,
and return only that segment's name: no wire bytes cross the task pipe.
The invitation scan is the exception — a dead drop and a chunk of recipient
keys are a few KB, so they travel in the task itself.

Worker-side state is deliberately minimal and round-scoped:

* the active crypto backend is re-asserted per task from the name the parent
  recorded when it built the task (cheap when unchanged), so serial and
  sharded execution always run the same primitives;
* the memoized layer-key derivations a chunk populates are dropped before
  the task returns — a worker must not retain DH shared secrets past the
  chunk, mirroring what ``MixChain.run_round`` does for the whole round.

Everything a task receives is deterministic (wire bytes, pre-drawn scalars,
round numbers); the rng lives exclusively in the parent, which is what makes
serial and process-sharded execution byte-identical.
"""

from __future__ import annotations

import os
from multiprocessing import shared_memory
from typing import Callable

from .shm import BlockView, pack_entries, share_packed
from ..crypto.backend import active_backend, set_backend
from ..crypto.invitation import open_invitations
from ..crypto.keys import PrivateKey, PublicKey
from ..crypto.onion import (
    peel_request_batch,
    wrap_request_batch,
    wrap_response_batch,
)
from ..crypto.secretbox import clear_derived_key_cache


def _use_backend(name: str) -> None:
    if active_backend().name != name:
        set_backend(name)


def _run_on_block(name: str, compute: Callable[[BlockView], bytes]) -> str:
    """Attach input block ``name``, run ``compute``, publish packed output.

    Returns the name of the output segment; the parent reads and unlinks it.
    All views into the input mapping are released before detaching, whatever
    ``compute`` does, so the parent's eventual ``unlink`` reclaims memory.
    """
    segment = shared_memory.SharedMemory(name=name)
    try:
        block = BlockView(segment.buf)
        try:
            packed = compute(block)
        finally:
            block.close()
    finally:
        segment.close()
        clear_derived_key_cache()
    output = share_packed(packed)
    output_name = output.name
    output.close()
    return output_name


def peel_chunk(task: tuple) -> str:
    """Peel wires ``[lo, hi)`` of the input block with the server scalar.

    The input block holds the server's private scalar at entry 0 (so the
    secret crosses via shared memory, never the task pipe) followed by the
    round's wires; ``lo``/``hi`` index the wires.  Output block:
    ``2 * (hi - lo)`` entries — the peeled inner payloads followed by the
    response keys, ``None``-masked at malformed positions.
    """
    name, lo, hi, server_index, round_number, backend_name = task
    _use_backend(backend_name)

    def compute(block: BlockView) -> bytes:
        private_key = PrivateKey(bytes(block.slices(0, 1)[0]))
        wires = block.slices(lo + 1, hi + 1)
        inners, keys = peel_request_batch(
            wires, private_key, server_index, round_number
        )
        return pack_entries([*inners, *keys])

    return _run_on_block(name, compute)


def wrap_response_chunk(task: tuple) -> str:
    """Seal response entries ``[lo, hi)`` under their per-message layer keys.

    The input block holds ``count`` responses followed by ``count`` keys;
    the chunk reads both halves at the same offsets.
    """
    name, lo, hi, count, round_number, backend_name = task
    _use_backend(backend_name)

    def compute(block: BlockView) -> bytes:
        inners = block.slices(lo, hi)
        keys = [bytes(key) for key in block.slices(count + lo, count + hi)]
        return pack_entries(wrap_response_batch(inners, keys, round_number))

    return _run_on_block(name, compute)


def wrap_noise_chunk(task: tuple) -> str:
    """Onion-wrap noise payloads ``[lo, hi)`` with pre-drawn scalars.

    The input block holds ``count`` payloads followed by ``depth * count``
    scalars in layer-major order (layer ``L``'s scalar for message ``m`` at
    entry ``count + L * count + m``), exactly as the parent drew them from
    the server rng; the chunk's wires are therefore byte-identical to the
    unchunked ``wrap_request_batch``.
    """
    name, lo, hi, count, depth, public_keys_bytes, round_number, backend_name = task
    _use_backend(backend_name)
    public_keys = [PublicKey(bytes(raw)) for raw in public_keys_bytes]

    def compute(block: BlockView) -> bytes:
        payloads = block.slices(lo, hi)
        scalars = [
            [bytes(s) for s in block.slices(count + layer * count + lo, count + layer * count + hi)]
            for layer in range(depth)
        ]
        wires, _ = wrap_request_batch(
            payloads, public_keys, round_number, scalars=scalars
        )
        return pack_entries(wires)

    return _run_on_block(name, compute)


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
