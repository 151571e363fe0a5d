"""The round execution engine: one per driver, sized by the host.

A Vuvuzela server's round work — peel a batch, wrap the round's noise, seal
the responses — a dialing round's trial decryption and a simulated client
swarm's wire build are embarrassingly parallel *within* a round but shaped
badly for Python: one thread, one giant working set.  :class:`RoundEngine`
runs every such batch op under one policy:

* **Workers.** One per usable core (``os.sched_getaffinity``); on one core
  the engine never forks.  There is nothing to configure.
* **When the pool.** An op goes to the pool only when its own size crosses
  its measured threshold: :data:`POOL_CURVE_OPS` curve operations for the
  peel (one per wire), the noise wrap (one per layer per wire) and the
  client build (one per layer per wire, plus one per idle client's fake
  exchange), :data:`SCAN_PARALLEL_TRIALS` trial decryptions for the dialing
  scan.  The response wrap is AEAD only, and splitting it was measured
  slower than running it inline, so it never reaches the pool.
* **Chunks.** Inline, a batch runs in chunks of
  :data:`~repro.crypto.batch_kernels.PREFERRED_CHUNK`, which keeps the
  vectorized kernels' temporaries cache-resident (100k-message rounds once
  ran ~40% slower per message than 10k ones).  On the pool, a batch is split
  into one chunk per worker, capped at the same size, so a 1,100-wire round
  uses every core and a 1M-wire round still pipelines.
* **Transport.** Each chunk travels inside its task as one packed list
  (:mod:`repro.net.packed`) through the executor's pipe, and its
  results come back the same way.  There is no shared memory: Python's
  segments need a ``resource_tracker`` process, which outlives its parent and
  which forked workers start once each when the pool forks first, while the
  pipe cost the same (under 5% of a chunk's crypto at every measured size).

Chunks are *pipelined*, not gang-scheduled: at most ``workers + 2`` are in
flight, and chunk ``k``'s results are unpacked in the parent while chunks
``k+1 …`` still run, so per-round memory stays proportional to the chunk
size rather than the round size.

Determinism is a hard contract: every rng draw a round makes (noise
payloads, wrap scalars, the mix permutation, the clients' fake exchange and
onion scalars) happens in the caller's thread in the inline path's exact
order — workers only ever run pure functions of bytes — so a round is
byte-identical whichever ops went to the pool.  The engine and swarm test
suites assert this on every backend, malformed wires included.

Worker failures never hang a round: a crashed worker or torn-down pool
surfaces as :class:`~repro.errors.ProtocolError`, and the failed pool is
shut down and its workers joined before the error propagates, so no worker
outlives the round that broke it and the next op forks a fresh pool.

One engine serves both scheduler threads: the pool is created under a lock
at the first op that needs it, and an abort discards only the pool instance
that failed, never one another thread has already replaced it with.

There is no threaded mode: ``cryptography`` holds the GIL through X25519, so
two threads ran exchanges and key imports at 1.03-1.06x the serial rate on
a 2-core host, and ``hmac.digest`` — which releases the GIL on every call —
at 0.78-1.08x.  Only processes reach the second core.

**Fork safety.**  Workers are forked, and the pool forks them all at its
first submission, before its own management and feeder threads start.  A
fork may happen while other threads run — the scheduler's round threads, a
TCP launcher's stdout pumps — and it is still safe because of what a worker
does afterwards: it imports nothing (:mod:`.worker` and the crypto backend
are imported before any pool exists), and it takes no lock a parent thread
may hold.  Its only Python locks are the pool's own queues, created before
the fork and used by no other thread; its C calls are OpenSSL's X25519,
ChaCha20-Poly1305 and HMAC, which take the library's method-store locks only
for reading once the parent has used each method.  TCP chain servers stay
serial (:func:`default_engine`): they are SIGKILLed in fault drills, and a
forked worker outlives a SIGKILLed parent.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from collections import deque
from concurrent.futures import Executor, ProcessPoolExecutor
from typing import Iterable, Iterator, Sequence

from . import worker as _worker
from ..crypto.backend import active_backend
from ..crypto.batch_kernels import PREFERRED_CHUNK
from ..crypto.invitation import open_invitations
from ..crypto.keys import PrivateKey, PublicKey
from ..crypto.onion import (
    OnionContext,
    draw_request_scalars,
    peel_request_batch,
    wrap_response_batch,
)
from ..crypto.rng import RandomSource
from ..errors import ProtocolError
from ..net.packed import pack, unpack_owned

#: The fewest curve operations (one per wire for a peel, one per layer per
#: wire for a noise wrap) that send one batch op to the pool.  Measured on a
#: 2-core host with the pool warm (``benchmarks/probe_engine_crossover.py``):
#: split in two, a 2-layer noise wrap ran 1.2-1.3x faster than inline from 32
#: wires and 1.6-1.7x from 128, while a peel broke even only near 128 wires
#: and won 1.2x from 256.  One count of curve operations fits both ops.
POOL_CURVE_OPS = 256

#: The fewest trial decryptions (recipients x invitations of one dead drop)
#: that send a dialing scan to the pool.  Measured on a 2-core host: a task's
#: round trip costs 0.25-0.4 ms and a trial 55-90 us, yet scans of up to ~500
#: trials ran no faster on two workers than inline (freshly woken workers
#: share a core for the first few ms), while ~1,000 trials ran 1.9x faster.
#: Small rounds, the test suite's included, therefore never fork.
SCAN_PARALLEL_TRIALS = 1024

_DEFAULT_ENGINE: "RoundEngine | None" = None


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def default_engine() -> "RoundEngine":
    """The process-wide one-worker engine servers fall back to.

    It never forks — only the chunking — so it needs no lifecycle management
    and is safe to share between every
    :class:`~repro.mixnet.chain.MixServer` in the process.
    """
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = RoundEngine(workers=1)
    return _DEFAULT_ENGINE


class RoundEngine:
    """One driver's batch crypto executor (see the module docstring).

    ``workers`` defaults to the usable cores.  The worker pool is forked at
    the first op that crosses its threshold and reused across rounds,
    protocols and threads; chunk results are always reassembled in
    submission order, so sharing one engine costs nothing.
    """

    def __init__(self, workers: int | None = None) -> None:
        self.workers = _usable_cores() if workers is None else workers
        if self.workers < 1:
            raise ProtocolError("a round engine needs at least one worker")
        self._pool: Executor | None = None
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Shut the worker pool down; the engine can be reused afterwards."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "RoundEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------ scheduling

    def _pooled(self, work: int, threshold: int) -> bool:
        return self.workers > 1 and 0 < work and threshold <= work

    def _bounds(self, n: int, pooled: bool) -> list[tuple[int, int]]:
        size = min(PREFERRED_CHUNK, -(-n // self.workers)) if pooled else PREFERRED_CHUNK
        return [(lo, min(lo + size, n)) for lo in range(0, n, size)]

    def _executor(self) -> Executor:
        with self._pool_lock:
            if self._pool is None:
                methods = multiprocessing.get_all_start_methods()
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=multiprocessing.get_context("fork" if "fork" in methods else None),
                )
            return self._pool

    def _abort(self, pool: Executor, pending: deque) -> None:
        """Discard ``pool`` (unless another thread already replaced it) and
        join its workers."""
        for future in pending:
            future.cancel()
        pending.clear()
        with self._pool_lock:
            if self._pool is pool:
                self._pool = None
        pool.shutdown(wait=True, cancel_futures=True)

    def _pipelined(self, fn, tasks: Iterable) -> Iterator:
        """Run chunk tasks with bounded in-flight submission, in order.

        Yields chunk results in submission order while later chunks are
        still executing — the pipeline that bounds round memory.  Any
        executor failure (a worker killed mid-chunk, a pool torn down under
        us, an unpicklable task) joins the pool's workers and raises
        :class:`ProtocolError` instead of hanging the round.
        """
        pool = self._executor()
        pending: deque = deque()
        try:
            for task in tasks:
                if len(pending) >= self.workers + 2:
                    yield pending.popleft().result()
                pending.append(pool.submit(fn, task))
            while pending:
                yield pending.popleft().result()
        except Exception as exc:
            self._abort(pool, pending)
            raise ProtocolError(f"round engine worker failed: {exc!r}") from exc

    # ------------------------------------------------------------- batch ops

    def peel_request_chunks(
        self,
        wires: Sequence[bytes],
        private_key: PrivateKey,
        server_index: int,
        round_number: int,
    ) -> tuple[list[bytes | None], list[bytes | None]]:
        """Chunked :func:`~repro.crypto.onion.peel_request_batch`."""
        inners: list[bytes | None] = []
        keys: list[bytes | None] = []
        n = len(wires)
        pooled = self._pooled(n, POOL_CURVE_OPS)
        bounds = self._bounds(n, pooled)
        if not pooled:
            for lo, hi in bounds:
                chunk_inners, chunk_keys = peel_request_batch(
                    wires[lo:hi], private_key, server_index, round_number
                )
                inners.extend(chunk_inners)
                keys.extend(chunk_keys)
            return inners, keys
        backend_name = active_backend().name
        tasks = (
            (private_key.data, pack(b"", wires[lo:hi]), server_index, round_number, backend_name)
            for lo, hi in bounds
        )
        for packed in self._pipelined(_worker.peel_chunk, tasks):
            entries = unpack_owned(packed)
            half = len(entries) // 2
            inners.extend(entries[:half])
            keys.extend(entries[half:])
        return inners, keys

    def wrap_response_chunks(
        self,
        inners: Sequence[bytes],
        layer_keys: Sequence[bytes],
        round_number: int,
    ) -> list[bytes]:
        """Chunked :func:`~repro.crypto.onion.wrap_response_batch`, always
        inline: one AEAD seal per message is cheaper than a pipe hop."""
        wrapped: list[bytes] = []
        for lo, hi in self._bounds(len(inners), False):
            wrapped.extend(wrap_response_batch(inners[lo:hi], layer_keys[lo:hi], round_number))
        return wrapped

    def wrap_noise_chunks(
        self,
        payloads: Sequence[bytes],
        server_public_keys: Sequence[PublicKey],
        round_number: int,
        rng: RandomSource,
    ) -> list[bytes]:
        """Chunked noise wrap, rng draws confined to this thread.

        All ephemeral scalars are drawn up front via
        :func:`~repro.crypto.onion.draw_request_scalars` — in the unchunked
        wrap's exact order — and only the pure crypto is chunked, so the
        resulting wires are byte-identical inline and on the pool.
        """
        n = len(payloads)
        if n == 0 or not server_public_keys:
            return list(payloads)
        depth = len(server_public_keys)
        scalars = draw_request_scalars(n, depth, rng)
        wires: list[bytes] = []
        for chunk in self._row_chunks(
            _worker.wrap_noise_rows,
            _worker.wrap_noise_chunk,
            [payloads, *scalars],
            n * depth,
            server_public_keys,
            round_number,
        ):
            wires.extend(chunk)
        return wires

    def wrap_client_chunks(
        self,
        round_number: int,
        server_public_keys: Sequence[PublicKey],
        fakes: Sequence[bytes | None],
        send_keys: Sequence[bytes | None],
        dead_drops: Sequence[bytes | None],
        plaintexts: Sequence[bytes],
        scalars: Sequence[Sequence[bytes]],
    ) -> tuple[list[bytes], list[OnionContext]]:
        """Chunked :func:`~repro.conversation.client.build_exchange_batch`.

        The caller has made every rng draw (the idle clients' fake exchange
        scalars and the onion scalars); what is chunked is the pure build,
        idle fake exchange included, so the wires are byte-identical inline
        and on the pool.  A pool chunk sends back each wire's per-layer
        response keys with it, which is what the caller decodes with.
        """
        n = len(fakes)
        depth = len(server_public_keys)
        curve_ops = n * depth + sum(1 for fake in fakes if fake is not None)
        wires: list[bytes] = []
        contexts: list[OnionContext] = []
        for entries in self._row_chunks(
            _worker.wrap_client_rows,
            _worker.wrap_client_chunk,
            [fakes, send_keys, dead_drops, plaintexts, *scalars],
            curve_ops,
            server_public_keys,
            round_number,
        ):
            count = len(entries) // (depth + 1)
            keys = entries[count:]
            wires.extend(entries[:count])
            contexts.extend(
                OnionContext(round_number, tuple(keys[m * depth : (m + 1) * depth]))
                for m in range(count)
            )
        return wires, contexts

    def _row_chunks(
        self,
        rows,
        task,
        columns: list[Sequence],
        curve_ops: int,
        server_public_keys: Sequence[PublicKey],
        round_number: int,
    ) -> Iterator[list]:
        """Run a wrap op over row-aligned ``columns`` chunk by chunk.

        ``rows`` is the op's pure function of one chunk's columns; inline it
        runs here, and on the pool ``task`` runs it in a worker on the same
        columns, shipped as one packed block.  Yields each chunk's result
        entries in row order.
        """
        n = len(columns[0])
        pooled = self._pooled(curve_ops, POOL_CURVE_OPS)
        bounds = self._bounds(n, pooled)
        if not pooled:
            for lo, hi in bounds:
                yield rows([column[lo:hi] for column in columns], server_public_keys, round_number)
            return
        backend_name = active_backend().name
        public_keys = tuple(bytes(key) for key in server_public_keys)
        tasks = (
            (
                pack(b"", [entry for column in columns for entry in column[lo:hi]]),
                len(columns),
                public_keys,
                round_number,
                backend_name,
            )
            for lo, hi in bounds
        )
        for packed in self._pipelined(task, tasks):
            yield unpack_owned(packed)

    def scan_invitation_chunks(
        self,
        private_keys: Sequence[PrivateKey],
        invitations: Sequence[bytes],
        round_number: int,
    ) -> list[list[PublicKey]]:
        """Trial-decrypt one invitation dead drop once per recipient.

        Entry ``i`` of the result is what
        :func:`~repro.dialing.invitation.open_invitations` finds for
        ``private_keys[i]``: the callers, in bucket order.  On the pool each
        worker takes one chunk of recipients; a bucket and a chunk of 32-byte
        keys are a few KB, so they travel in the task as they are.
        """
        n = len(private_keys)
        if n < 2 or not self._pooled(n * len(invitations), SCAN_PARALLEL_TRIALS):
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
