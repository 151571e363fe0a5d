"""The parallel round execution engine.

A Vuvuzela server's round work — peel a batch, wrap the round's noise, seal
the responses — is embarrassingly parallel *within* a round but shaped badly
for Python: one thread, one giant working set.  :class:`RoundEngine` fixes
both axes at once by sharding every batch crypto operation into fixed-size
chunks and scheduling the chunks on one of two executors:

``serial``
    Chunks run inline, one after another.  Even this mode matters: bounding
    the kernel batch width to :data:`~repro.crypto.batch_kernels.PREFERRED_CHUNK`
    keeps the vectorized kernels' temporaries cache-resident, which repairs
    the throughput collapse large rounds otherwise hit (100k-message rounds
    previously ran ~40% slower per message than 10k ones).

``process``
    Chunks run on a ``ProcessPoolExecutor`` over zero-pickle shared-memory
    blocks (:mod:`repro.runtime.shm`): the parent packs a round's wires into
    one flat segment, workers peel/wrap their ``[lo, hi)`` slice straight
    out of the mapping, and only segment names and chunk bounds cross the
    task pipe.  This is the mode that breaks the GIL ceiling: wall-clock
    scales with cores.

Chunks are *pipelined*, not gang-scheduled: submission is bounded by
``max_inflight``, and chunk ``k``'s results are unpacked in the parent while
chunks ``k+1 …`` are still being peeled in workers, so per-round memory
stays proportional to ``chunk_size * max_inflight`` rather than round size.

Determinism is a hard contract, not an aspiration: every rng draw a round
makes (noise payloads, wrap scalars, the mix permutation) happens in the
caller's thread in the serial path's exact order — workers only ever run
pure functions of bytes — so both modes are byte-identical under a fixed
:class:`~repro.crypto.rng.RandomSource`.  The engine test suite
asserts this on every backend, malformed wires included.

Worker failures never hang a round: a crashed worker or torn-down pool
surfaces as :class:`~repro.errors.ProtocolError` and the broken pool is
discarded, so the next round starts from a clean executor.

There is no threaded mode: ``cryptography`` holds the GIL through X25519, so
two threads ran exchanges and key imports at 1.03-1.06x the serial rate on
a 2-core host, and ``hmac.digest`` — which releases the GIL on every call —
at 0.78-1.08x.  Only processes reach the second core.

**Fork safety.**  Workers are forked, and the pool forks them all at its
first submission, before its own management and feeder threads start.  The
client-side scan engine starts inside a dialing round; the scheduler runs a
session's first dialing round in the calling thread, so an in-process
session forks before any round thread exists.  Other threads can be running
at a fork — a TCP launcher's stdout pumps, or an overlapped dialing round
rebuilding a pool after a worker crash — and the fork is still safe because
of what a worker does afterwards: it imports nothing (:mod:`.worker` and the
crypto backend are imported before any pool exists), and it takes no lock a
parent thread may hold.  Its only Python locks are the pool's own queues,
created before the fork and used by no other thread; its C calls are
OpenSSL's X25519, ChaCha20-Poly1305 and HMAC, which take the library's
method-store locks only for reading once the parent has used each method.
"""

from __future__ import annotations

import multiprocessing
from collections import deque
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from . import worker as _worker
from .shm import read_shared_entries, release_shared, share_entries
from ..crypto.backend import active_backend
from ..crypto.batch_kernels import PREFERRED_CHUNK
from ..crypto.invitation import open_invitations
from ..crypto.keys import PrivateKey, PublicKey
from ..crypto.onion import (
    draw_request_scalars,
    peel_request_batch,
    wrap_request_batch,
    wrap_response_batch,
)
from ..crypto.rng import RandomSource
from ..errors import ProtocolError

SERIAL = "serial"
PROCESS = "process"
#: The engine modes a server can be configured with.
ENGINE_MODES = (SERIAL, PROCESS)

_DEFAULT_ENGINE: "RoundEngine | None" = None


def default_engine() -> "RoundEngine":
    """The process-wide serial engine servers fall back to.

    It owns no pools and no shared memory — only the chunking — so it needs
    no lifecycle management and is safe to share between every
    :class:`~repro.mixnet.chain.MixServer` in the process.
    """
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = RoundEngine()
    return _DEFAULT_ENGINE


@dataclass
class RoundEngine:
    """Configuration and executor state of one round engine.

    One engine instance is meant to be shared by every server of a chain
    (and both protocols of a deployment): the worker pool is created lazily
    on first use and reused across rounds, and chunk results are always
    reassembled in submission order, so sharing costs nothing and keeps the
    core count honest.
    """

    mode: str = SERIAL
    #: Worker count for the process mode.
    workers: int = 1
    #: Messages per chunk; 0 selects :data:`PREFERRED_CHUNK`.
    chunk_size: int = 0
    #: Maximum chunks submitted but not yet collected; 0 selects
    #: ``workers + 2`` (enough to keep every worker busy while the parent
    #: unpacks one result and packs the next).
    max_inflight: int = 0
    #: Multiprocessing start method; "" picks ``fork`` where available.
    mp_start_method: str = ""
    _pool: Executor | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.mode not in ENGINE_MODES:
            raise ProtocolError(
                f"unknown round engine mode {self.mode!r}; expected one of {ENGINE_MODES}"
            )
        if self.workers < 1:
            raise ProtocolError("a round engine needs at least one worker")
        if self.chunk_size < 0 or self.max_inflight < 0:
            raise ProtocolError("chunk_size and max_inflight must be non-negative")

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Shut the worker pool down; the engine can be reused afterwards."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "RoundEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------ scheduling

    @property
    def resolved_chunk_size(self) -> int:
        return self.chunk_size or PREFERRED_CHUNK

    def _bounds(self, n: int) -> list[tuple[int, int]]:
        size = self.resolved_chunk_size
        return [(lo, min(lo + size, n)) for lo in range(0, n, size)]

    def _executor(self) -> Executor:
        if self._pool is None:
            method = self.mp_start_method or (
                "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
            )
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context(method),
            )
        return self._pool

    def _abort(self, pending: "deque") -> None:
        for future in pending:
            future.cancel()
        pending.clear()
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def _pipelined(self, fn, tasks: Iterable) -> Iterator:
        """Run chunk tasks with bounded in-flight submission, in order.

        Yields chunk results in submission order while later chunks are
        still executing — the pipeline that bounds round memory.  Any
        executor failure (a worker killed mid-chunk, a pool torn down under
        us, an unpicklable task) tears the pool down and raises
        :class:`ProtocolError` instead of hanging the round.
        """
        limit = self.max_inflight or (self.workers + 2)
        pending: deque = deque()
        try:
            for task in tasks:
                if len(pending) >= limit:
                    yield pending.popleft().result()
                pending.append(self._executor().submit(fn, task))
            while pending:
                yield pending.popleft().result()
        except ProtocolError:
            self._abort(pending)
            raise
        except Exception as exc:
            self._abort(pending)
            raise ProtocolError(
                f"{self.mode} round engine worker failed: {exc!r}"
            ) from exc

    # ------------------------------------------------------------- batch ops

    def peel_request_chunks(
        self,
        wires: Sequence[bytes],
        private_key: PrivateKey,
        server_index: int,
        round_number: int,
    ) -> tuple[list[bytes | None], list[bytes | None]]:
        """Chunk-sharded :func:`~repro.crypto.onion.peel_request_batch`."""
        inners: list[bytes | None] = []
        keys: list[bytes | None] = []
        n = len(wires)
        if n == 0:
            return inners, keys
        bounds = self._bounds(n)
        if self.mode == SERIAL:
            for lo, hi in bounds:
                chunk_inners, chunk_keys = peel_request_batch(
                    wires[lo:hi], private_key, server_index, round_number
                )
                inners.extend(chunk_inners)
                keys.extend(chunk_keys)
        else:
            backend_name = active_backend().name
            # The private scalar travels inside the shared block (entry 0),
            # not through the task pipe: tasks carry only the segment name,
            # chunk bounds and round metadata.
            block = share_entries([private_key.data, *wires])
            try:
                tasks = [
                    (block.name, lo, hi, server_index, round_number, backend_name)
                    for lo, hi in bounds
                ]
                for output_name in self._pipelined(_worker.peel_chunk, tasks):
                    entries = read_shared_entries(output_name, unlink=True)
                    half = len(entries) // 2
                    inners.extend(entries[:half])
                    keys.extend(entries[half:])
            finally:
                release_shared(block)
        return inners, keys

    def wrap_response_chunks(
        self,
        inners: Sequence[bytes],
        layer_keys: Sequence[bytes],
        round_number: int,
    ) -> list[bytes]:
        """Chunk-sharded :func:`~repro.crypto.onion.wrap_response_batch`."""
        n = len(inners)
        if n == 0:
            return []
        bounds = self._bounds(n)
        wrapped: list[bytes] = []
        if self.mode == SERIAL:
            for lo, hi in bounds:
                wrapped.extend(
                    wrap_response_batch(inners[lo:hi], layer_keys[lo:hi], round_number)
                )
        else:
            backend_name = active_backend().name
            block = share_entries([*inners, *layer_keys])
            try:
                tasks = [
                    (block.name, lo, hi, n, round_number, backend_name)
                    for lo, hi in bounds
                ]
                for output_name in self._pipelined(_worker.wrap_response_chunk, tasks):
                    for entry in read_shared_entries(output_name, unlink=True):
                        wrapped.append(entry if entry is not None else b"")
            finally:
                release_shared(block)
        return wrapped

    def wrap_noise_chunks(
        self,
        payloads: Sequence[bytes],
        server_public_keys: Sequence[PublicKey],
        round_number: int,
        rng: RandomSource,
    ) -> list[bytes]:
        """Chunk-sharded noise wrap, rng draws confined to this thread.

        All ephemeral scalars are drawn up front via
        :func:`~repro.crypto.onion.draw_request_scalars` — in the unchunked
        wrap's exact order — and only the pure crypto is distributed, so the
        resulting wires are byte-identical across engine modes.
        """
        n = len(payloads)
        if n == 0 or not server_public_keys:
            return list(payloads)
        depth = len(server_public_keys)
        scalars = draw_request_scalars(n, depth, rng)
        bounds = self._bounds(n)
        wires: list[bytes] = []
        if self.mode == SERIAL:
            for lo, hi in bounds:
                chunk_wires, _ = wrap_request_batch(
                    payloads[lo:hi],
                    server_public_keys,
                    round_number,
                    scalars=[layer[lo:hi] for layer in scalars],
                )
                wires.extend(chunk_wires)
        else:
            backend_name = active_backend().name
            entries = list(payloads)
            for layer in scalars:
                entries.extend(layer)
            block = share_entries(entries)
            public_keys_bytes = tuple(bytes(key) for key in server_public_keys)
            try:
                tasks = [
                    (block.name, lo, hi, n, depth, public_keys_bytes, round_number, backend_name)
                    for lo, hi in bounds
                ]
                for output_name in self._pipelined(_worker.wrap_noise_chunk, tasks):
                    for entry in read_shared_entries(output_name, unlink=True):
                        wires.append(entry if entry is not None else b"")
            finally:
                release_shared(block)
        return wires

    def scan_invitation_chunks(
        self,
        private_keys: Sequence[PrivateKey],
        invitations: Sequence[bytes],
        round_number: int,
    ) -> list[list[PublicKey]]:
        """Trial-decrypt one invitation dead drop once per recipient.

        Entry ``i`` of the result is what
        :func:`~repro.dialing.invitation.open_invitations` finds for
        ``private_keys[i]``: the callers, in bucket order.  The process mode
        gives each worker one chunk of recipients; a bucket and a chunk of
        32-byte keys are a few KB, so they travel through the task pipe.
        """
        n = len(private_keys)
        if self.mode == SERIAL or n < 2:
            return [open_invitations(key, invitations, round_number) for key in private_keys]
        backend_name = active_backend().name
        size = -(-n // self.workers)
        tasks = [
            (tuple(key.data for key in private_keys[lo : lo + size]), invitations, round_number, backend_name)
            for lo in range(0, n, size)
        ]
        found: list[list[PublicKey]] = []
        for chunk in self._pipelined(_worker.scan_chunk, tasks):
            found.extend(chunk)
        return found
