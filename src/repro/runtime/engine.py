"""The round execution engine: one per driver, sized by the host.

A Vuvuzela server's round work — peel a batch, wrap the round's noise, seal
the responses — a dialing round's trial decryption and the simulated
clients' wire builds are embarrassingly parallel *within* a round but shaped
badly for Python: one thread, one giant working set.  Each is a *row op*
(:mod:`.worker`): a pure function over row-aligned columns plus the
arguments every row shares.  :class:`RoundEngine` runs every op under one
policy, and :data:`POOL_OPS` is the whole of what differs between them:

================  ===============================================  ============================
op                work it counts                                   pools from
================  ===============================================  ============================
peel              1 curve op per wire                              :data:`POOL_CURVE_OPS`
response wrap     — (AEAD only)                                    never
noise wrap        1 per layer per wire                             :data:`POOL_CURVE_OPS`
client build      1 per layer per wire + 1 per idle row's fake     :data:`POOL_CURVE_OPS`
dial build        1 per layer per wire + 1 per dialer's seal       :data:`POOL_CURVE_OPS`
dialing scan      1 trial per recipient per invitation             :data:`SCAN_PARALLEL_TRIALS`
================  ===============================================  ============================

* **Workers.** One per usable core (``os.sched_getaffinity``); on one core
  the engine never forks, and neither does an op of one row.  There is
  nothing to configure.
* **Chunks.** Inline, an op runs in chunks of :data:`PREFERRED_CHUNK` rows,
  which bounds the memory a chunk's columns and outputs hold at once.  On
  the pool, it is split into one chunk per worker, capped at the same size,
  so a 1,100-wire round uses every core and a 100k+-wire round still
  pipelines.
* **Transport.** Every pooled chunk is one task of one function,
  :func:`.worker.run`: the op, its static arguments and the chunk's columns
  as one packed list (:mod:`repro.net.packed`) travel through the
  executor's pipe, and its output columns come back the same way.  There
  is no shared memory: Python's segments need a ``resource_tracker``
  process, which outlives its parent and which forked workers start once
  each when the pool forks first, while the pipe cost the same (under 5%
  of a chunk's crypto at every measured size).

Chunks are *pipelined*, not gang-scheduled: at most ``workers + 2`` are in
flight, and chunk ``k``'s results are unpacked in the parent while chunks
``k+1 …`` still run, so per-round memory stays proportional to the chunk
size rather than the round size.

There is one submission pipeline, and it does not have to block:
:meth:`RoundEngine.start` returns a :class:`PendingRun` and
:meth:`RoundEngine.run` is ``start(...).result()``.  A pooled op submits its
first chunks at ``start`` and the rest as :meth:`PendingRun.result` drains
them; an inline op computes nothing until ``result``.  A mixing server
starts its next round's noise wrap this way when its pass is done
(:class:`~repro.mixnet.chain.MixServer`), so the pool wraps cover traffic
while the driver does a round's serial work — and a serial engine, whose
ops are lazy, spends nothing on a wrap it never takes.

Determinism is a hard contract: every rng draw a round makes (noise
payloads, wrap scalars, the mix permutation, the clients' fake exchange,
invitation and onion scalars) happens in the caller's thread in the inline
path's exact order — workers only ever run pure functions of bytes — so a
round is byte-identical whichever ops went to the pool.  The engine, swarm
and batched-build test suites assert this on every backend, malformed wires
included.

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
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from typing import Callable, Iterator, Sequence

from . import worker as _worker
from ..crypto.backend import active_backend
from ..crypto.keys import PrivateKey, PublicKey
from ..crypto.onion import OnionContext, draw_request_scalars
from ..crypto.rng import RandomSource
from ..errors import ProtocolError
from ..net.packed import pack, unpack_owned

#: The most rows an op runs as one chunk.  It bounds the memory one chunk's
#: columns and outputs hold at once, inline and on the pool, and it is what
#: keeps a pooled round of 100k+ wires a pipeline of chunks rather than one
#: task per worker.
PREFERRED_CHUNK = 8192

#: The fewest curve operations that send a peel, a noise wrap or a client or
#: dial build to the pool.  Measured on a 2-core host with the pool warm
#: (``benchmarks/probe_engine_crossover.py``): split in two, a 2-layer noise
#: wrap ran 1.2-1.3x faster than inline from 32 wires and 1.6-1.7x from 128,
#: while a peel broke even only near 128 wires and won 1.2x from 256.  One
#: count of curve operations fits both ops.
POOL_CURVE_OPS = 256

#: The fewest trial decryptions that send a dialing scan to the pool.
#: Measured on a 2-core host: a task's round trip costs 0.25-0.4 ms and a
#: trial 55-90 us, yet scans of up to ~500 trials ran no faster on two
#: workers than inline (freshly woken workers share a core for the first few
#: ms), while ~1,000 trials ran 1.9x faster.  Small rounds, the test suite's
#: included, therefore never fork.
SCAN_PARALLEL_TRIALS = 1024


def _given(column: Sequence) -> int:
    return sum(entry is not None for entry in column)


#: Every row op the engine runs: ``{op: (work, threshold)}``.  ``work(columns,
#: *static)`` counts the op's expensive units (see the module docstring's
#: table); the op goes to the pool once they reach ``threshold``, never when
#: it is ``None``.
POOL_OPS: dict[Callable, tuple[Callable[..., int], int | None]] = {
    _worker.peel_rows: (lambda columns, *_: len(columns[0]), POOL_CURVE_OPS),
    _worker.wrap_response_rows: (lambda columns, *_: len(columns[0]), None),
    _worker.wrap_noise_rows: (lambda columns, keys, _: len(columns[0]) * len(keys), POOL_CURVE_OPS),
    _worker.wrap_client_rows: (
        lambda columns, keys, _: len(columns[0]) * len(keys) + _given(columns[0]),
        POOL_CURVE_OPS,
    ),
    _worker.wrap_dial_rows: (
        lambda columns, keys, _: len(columns[0]) * len(keys) + _given(columns[1]),
        POOL_CURVE_OPS,
    ),
    _worker.scan_rows: (
        lambda columns, invitations, _: len(columns[0]) * len(invitations),
        SCAN_PARALLEL_TRIALS,
    ),
}

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

    def _pooled(self, op: Callable, columns: Sequence[Sequence], static: tuple) -> bool:
        work, threshold = POOL_OPS[op]
        if self.workers < 2 or len(columns[0]) < 2 or threshold is None:
            return False
        units = work(columns, *static)
        return 0 < units and threshold <= units

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

    def _abort(self, pool: Executor) -> None:
        """Discard ``pool`` (unless another thread already replaced it) and
        join its workers."""
        with self._pool_lock:
            if self._pool is pool:
                self._pool = None
        pool.shutdown(wait=True, cancel_futures=True)

    # ------------------------------------------------------------- batch ops

    def start(self, op: Callable, columns: Sequence[Sequence], *static) -> "PendingRun":
        """Start row op ``op`` over row-aligned ``columns``; its
        :meth:`PendingRun.result` is what :meth:`run` returns.

        The op runs chunk by chunk, inline or on the pool as :data:`POOL_OPS`
        decides; the output is the same either way.  Inline, nothing runs
        before :meth:`PendingRun.result`; on the pool, the first chunks are
        already submitted when this returns.
        """
        n = len(columns[0])
        if not self._pooled(op, columns, static):
            # An op of no rows still runs once, so it returns its (empty) columns.
            bounds = self._bounds(n, False) or [(0, 0)]
            return PendingRun(
                lambda: _joined(
                    op([column[lo:hi] for column in columns], *static) for lo, hi in bounds
                )
            )
        backend_name = active_backend().name
        tasks = (
            (op, hi - lo, pack(b"", [entry for column in columns for entry in column[lo:hi]]),
             static, backend_name)
            for lo, hi in self._bounds(n, True)
        )
        return _PooledRun(self, tasks)

    def run(self, op: Callable, columns: Sequence[Sequence], *static) -> list[list]:
        """Row op ``op`` over row-aligned ``columns``: its output columns."""
        return self.start(op, columns, *static).result()

    def wrap_noise_chunks(
        self,
        payloads: Sequence[bytes],
        server_public_keys: Sequence[PublicKey],
        round_number: int,
        rng: RandomSource,
    ) -> "PendingRun":
        """Start onion-wrapping noise payloads, rng draws confined to this
        thread; the pending wrap's result is ``[wires]``.

        All ephemeral scalars are drawn before this returns, via
        :func:`~repro.crypto.onion.draw_request_scalars` — in the unchunked
        wrap's exact order — and only the pure crypto is chunked, so the
        resulting wires are byte-identical inline and on the pool.
        """
        if not payloads or not server_public_keys:
            return PendingRun(lambda: [list(payloads)])
        scalars = draw_request_scalars(len(payloads), len(server_public_keys), rng)
        return self.start(
            _worker.wrap_noise_rows, [payloads, *scalars], server_public_keys, round_number
        )

    def wrap_client_chunks(
        self,
        columns: Sequence[Sequence],
        server_public_keys: Sequence[PublicKey],
        round_number: int,
    ) -> tuple[list[bytes], list[OnionContext]]:
        """Clients' conversation wires from :func:`.worker.wrap_client_rows`'
        ``columns``, and the context each one's response is opened with."""
        wires, *keys = self.run(_worker.wrap_client_rows, columns, server_public_keys, round_number)
        return wires, [OnionContext(round_number, layer_keys) for layer_keys in zip(*keys)]

    def scan_invitation_chunks(
        self,
        private_keys: Sequence[PrivateKey],
        invitations: Sequence[bytes],
        round_number: int,
    ) -> list[list[PublicKey]]:
        """Trial-decrypt one invitation dead drop once per recipient.

        Entry ``i`` of the result is what
        :func:`~repro.dialing.invitation.open_invitations` finds for
        ``private_keys[i]``: the callers, in bucket order.
        """
        keys = [key.data for key in private_keys]
        (found,) = self.run(_worker.scan_rows, [keys], invitations, round_number)
        return [[PublicKey(caller) for caller in unpack_owned(callers)] for callers in found]


def _joined(chunks: Iterator[list[list]]) -> list[list]:
    """Chunks' output columns, concatenated column by column in order."""
    output = [list(column) for column in next(chunks)]
    for chunk in chunks:
        for column, more in zip(output, chunk):
            column.extend(more)
    return output


class PendingRun:
    """An op :meth:`RoundEngine.start` began.

    :meth:`result` returns the op's output columns, once.  This base form is
    an inline op: it computes nothing until :meth:`result`, so an op started
    ahead of need costs a serial engine nothing until it is needed, and
    nothing at all if it is cancelled.
    """

    def __init__(self, compute: Callable[[], list[list]]) -> None:
        self._compute: Callable[[], list[list]] | None = compute

    @property
    def lost(self) -> bool:
        """Whether the pool this op was submitted to has since been aborted
        or closed, so that :meth:`result` could only fail."""
        return False

    def result(self) -> list[list]:
        compute, self._compute = self._compute, None
        if compute is None:
            raise ProtocolError("a pending op's result was already taken or cancelled")
        return compute()

    def cancel(self) -> None:
        """Give the op up: an inline op never runs, and a pooled op's chunks
        that have not started are dropped."""
        self._compute = None


class _PooledRun(PendingRun):
    """An op on the pool: at most ``workers + 2`` chunks in flight, the rest
    submitted as results drain, so memory stays proportional to the chunk
    size rather than the op's size.  A failure aborts the pool (joining its
    workers) and :meth:`result` raises :class:`~repro.errors.ProtocolError`."""

    def __init__(self, engine: RoundEngine, tasks: Iterator[tuple]) -> None:
        super().__init__(lambda: _joined(self._chunks()))
        self._engine = engine
        self._pool = engine._executor()
        self._tasks: Iterator[tuple] | None = tasks
        self._in_flight: deque[tuple[int, Future]] = deque()
        self._failure: Exception | None = None
        try:
            self._top_up()
        except Exception as exc:
            self._fail(exc)

    @property
    def lost(self) -> bool:
        return self._engine._pool is not self._pool

    def cancel(self) -> None:
        super().cancel()
        self._drop()

    def _drop(self) -> None:
        self._tasks = None
        for _, future in self._in_flight:
            future.cancel()
        self._in_flight.clear()

    def _top_up(self) -> None:
        """Submit chunks up to the in-flight cap."""
        while self._tasks is not None and len(self._in_flight) < self._engine.workers + 2:
            task = next(self._tasks, None)
            if task is None:
                self._tasks = None  # every chunk is packed: let the columns go
                return
            self._in_flight.append((task[1], self._pool.submit(_worker.run, task)))

    def _fail(self, exc: Exception) -> None:
        """An executor failure (a worker killed mid-chunk, a pool torn down
        under us, an unpicklable task): abort the pool, keep the failure for
        :meth:`result` to raise."""
        self._drop()
        self._engine._abort(self._pool)
        self._failure = exc

    def _chunks(self) -> Iterator[list[list]]:
        while self._failure is None and self._in_flight:
            rows, future = self._in_flight.popleft()
            try:
                packed = future.result()
                self._top_up()
            except Exception as exc:
                self._fail(exc)
                break
            yield _worker.split_columns(unpack_owned(packed), rows)
        if self._failure is not None:
            raise ProtocolError(f"round engine worker failed: {self._failure!r}") from self._failure
