"""Where splitting a batch op across the engine's pool starts to pay.

The round engine decides inline or pool for every op from one table,
``repro.runtime.engine.POOL_OPS``: each op's work count and the threshold
it pools from.  This probe walks that table and measures, on this host with
the pool warm, each op over row counts on both sides of its threshold:

* **inline** against **split** into one chunk per worker, through
  ``RoundEngine.run`` — the response wrap included, although the table
  never pools it, since splitting it is what the table rules out;
* the table's own **work** count for those rows and whether the table
  **pools** them;
* **pipe**: a no-op row op's round trip of one packed chunk per worker
  (pack, send, unpack in the worker, pack, return, unpack), the transport's
  whole cost.

The ops' inputs take the shapes the benchmark workloads give them: a
three-server chain, the noise wrapped for the two servers after the first,
60% of the conversation rows paired (conv-swarm) and half the dialing rows
dialing (dial-mix), and a 64-invitation dead drop for the scan.  Each cell
is the best of ``REPEATS`` runs on a two-worker pool, in milliseconds, with
the fastest available crypto backend.  Run::

    PYTHONPATH=src python benchmarks/probe_engine_crossover.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.crypto import DeterministicRandom, KeyPair, wrap_request_batch  # noqa: E402
from repro.crypto.backend import active_backend, available_backends, set_backend  # noqa: E402
from repro.crypto.deaddrop_id import DEAD_DROP_ID_SIZE  # noqa: E402
from repro.crypto.invitation import INVITATION_SIZE, seal_invitation  # noqa: E402
from repro.crypto.onion import draw_request_scalars  # noqa: E402
from repro.dialing.client import draw_dial_request  # noqa: E402
from repro.runtime import RoundEngine  # noqa: E402
from repro.runtime import engine as round_engine  # noqa: E402
from repro.runtime import worker  # noqa: E402

#: A conversation exchange request, as a mixing server's noise carries it.
PAYLOAD_SIZE = 272
ROUND = 3
#: Rows of the wire ops: both sides of the crossover, up to conv-noise's
#: ~1,100-wire noise wrap and a 2,300-wire peel.  The client and dial builds
#: stop at 1,100 rows, already 3,700 curve ops.
SIZES = (16, 64, 128, 256, 512, 1_100, 2_300)
#: Recipients of the scan, against :data:`BUCKET` invitations: 128 to 4,096 trials.
SCAN_SIZES = (2, 4, 8, 16, 32, 64)
BUCKET = 64
REPEATS = 7
WORKERS = 2


def echo_rows(columns: list) -> list:
    """The pipe's row op: its columns, straight back."""
    return columns


def op_inputs() -> dict:
    """``{op: (sizes, inputs(n) -> (columns, static))}`` for every op in the table."""
    rng = DeterministicRandom("probe")
    chain = [KeyPair.generate(rng) for _ in range(3)]
    publics = [kp.public for kp in chain]
    top = max(SIZES)
    payloads = [b"\x00" * PAYLOAD_SIZE] * top
    wires, _ = wrap_request_batch(payloads, publics, ROUND, rng)
    layer_keys = [rng.random_bytes(32) for _ in range(top)]
    noise_scalars = draw_request_scalars(top, 2, rng)
    client_scalars = draw_request_scalars(top, 3, rng)
    paired = [i % 5 < 3 for i in range(top)]
    client = [
        [None if p else rng.random_bytes(64) for p in paired],
        [rng.random_bytes(32) if p else None for p in paired],
        [rng.random_bytes(DEAD_DROP_ID_SIZE) if p else None for p in paired],
        [b"probe message"] * top,
        *client_scalars,
    ]
    caller = KeyPair.generate(rng)
    dial = [list(column) for column in zip(*(
        draw_dial_request(3, caller, publics[0] if i % 2 else None, 1, rng) for i in range(top)
    ))]
    recipients = [KeyPair.generate(rng) for _ in range(max(SCAN_SIZES))]
    bucket = sorted(
        seal_invitation(caller, recipients[i % len(recipients)].public, ROUND, rng) if i % 2
        else rng.random_bytes(INVITATION_SIZE)
        for i in range(BUCKET)
    )

    def cut(columns: list, n: int) -> list:
        return [column[:n] for column in columns]

    return {
        worker.peel_rows: (SIZES, lambda n: ([wires[:n]], (chain[0].private, 0, ROUND))),
        worker.wrap_response_rows: (SIZES, lambda n: ([payloads[:n], layer_keys[:n]], (ROUND,))),
        worker.wrap_noise_rows: (
            SIZES, lambda n: ([payloads[:n], *cut(noise_scalars, n)], (publics[1:], ROUND))
        ),
        worker.wrap_client_rows: (SIZES[:-1], lambda n: (cut(client, n), (publics, ROUND))),
        worker.wrap_dial_rows: (SIZES[:-1], lambda n: (cut(dial, n), (publics, ROUND))),
        worker.scan_rows: (
            SCAN_SIZES,
            lambda n: ([[kp.private.data for kp in recipients[:n]]], (tuple(bucket), ROUND)),
        ),
    }


def best_ms(fn) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return round(best * 1000, 2)


def probe() -> dict:
    table = dict(round_engine.POOL_OPS)
    inputs = op_inputs()
    if set(inputs) != set(table):
        raise SystemExit("every op in the engine's table needs a probe row")
    inline = RoundEngine(workers=1)
    pooled = RoundEngine(workers=WORKERS)
    # Every op to the pool, whatever its size: the probe times both sides.
    round_engine.POOL_OPS = {op: (work, 0) for op, (work, _) in table.items()}
    round_engine.POOL_OPS[echo_rows] = (lambda columns, *_: len(columns[0]), 0)
    rows, pipe = [], []
    try:
        # Fork, then warm every op in the workers: their first crypto after
        # the fork runs slower than steady state.
        for op, (sizes, make) in inputs.items():
            columns, static = make(max(sizes))
            pooled.run(op, columns, *static)
        for op, (sizes, make) in inputs.items():
            work, threshold = table[op]
            for n in sizes:
                columns, static = make(n)
                units = work(columns, *static)
                row = {
                    "op": op.__name__,
                    "rows": n,
                    "work": units,
                    "table_pools": threshold is not None and threshold <= units,
                    "inline_ms": best_ms(lambda: inline.run(op, columns, *static)),
                    "split_ms": best_ms(lambda: pooled.run(op, columns, *static)),
                }
                rows.append(row)
                print(
                    f"  {row['op']:<18} rows={n:<6} work={units:<6} "
                    f"{'pool  ' if row['table_pools'] else 'inline'} "
                    f"{row['inline_ms']:>9} -> {row['split_ms']:>9}",
                    file=sys.stderr,
                )
        (wires,), _ = inputs[worker.peel_rows][1](max(SIZES))
        for n in SIZES:
            pipe.append({"rows": n, "pipe_ms": best_ms(lambda: pooled.run(echo_rows, [wires[:n]]))})
            print(f"  {'pipe':<18} rows={n:<6} {pipe[-1]['pipe_ms']:>9}", file=sys.stderr)
    finally:
        pooled.close()
        round_engine.POOL_OPS = table
    return {"rows": rows, "pipe": pipe}


def main() -> None:
    set_backend(available_backends()[-1])
    print(f"backend {active_backend().name}, {WORKERS} workers, best of {REPEATS} (ms)", file=sys.stderr)
    result = probe()
    print(json.dumps({"backend": active_backend().name, "workers": WORKERS, **result}))


if __name__ == "__main__":
    main()
