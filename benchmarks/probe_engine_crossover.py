"""Where splitting a batch op across the engine's pool starts to pay.

The round engine sends a peel or a noise wrap to its worker pool only from
``POOL_CURVE_OPS`` curve operations, never sends the response wrap, and ships
every chunk as a packed block through the task pipe.  This probe measures
the numbers behind those three choices on this host, with the pool warm:

* **peel** (one curve op per wire) and **noise wrap** (two layers, one curve
  op per layer per wire): inline against split into one chunk per worker;
* **response wrap** (AEAD only): inline against split, through a probe-local
  worker task, since the engine itself never splits it;
* **pipe**: a no-op round trip of one packed block per worker (pack, send,
  unpack in the worker, pack, return, unpack), the transport's whole cost;
* **client build**: a swarm round's wires at conv-swarm's shape (60% of the
  users paired), through ``ClientSwarm.build_round`` on an inline engine
  against the pool — the rng draws in the parent, the fake exchanges, boxes
  and onion layers wherever the engine runs them.

Each cell is the best of ``REPEATS`` runs on a two-worker pool, in
milliseconds, with the fastest available crypto backend.  Run::

    PYTHONPATH=src python benchmarks/probe_engine_crossover.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.config import VuvuzelaConfig  # noqa: E402
from repro.crypto import DeterministicRandom, KeyPair, wrap_request_batch  # noqa: E402
from repro.crypto.backend import active_backend, available_backends, set_backend  # noqa: E402
from repro.crypto.onion import wrap_response_batch  # noqa: E402
from repro.runtime import RoundEngine  # noqa: E402
from repro.runtime import engine as round_engine  # noqa: E402
from repro.runtime.shm import pack_entries, unpack_entries  # noqa: E402
from repro.simulation import ClientSwarm, WorkloadSpec  # noqa: E402

#: A conversation exchange request, as a mixing server's noise carries it.
PAYLOAD_SIZE = 272
ROUND = 3
#: Batch sizes in wires: both sides of the crossover, up to conv-noise's
#: ~1,100-wire noise wrap and a 2,300-wire peel.
SIZES = (16, 32, 64, 128, 256, 512, 1_100, 2_300)
#: Swarm sizes of the client-build rows, up to conv-swarm's 2,000 users.
CLIENT_SIZES = (100, 500, 2_000)
REPEATS = 7
WORKERS = 2


def _wrap_response_chunk(task: tuple) -> bytes:
    block, round_number = task
    entries = unpack_entries(block)
    half = len(entries) // 2
    return pack_entries(wrap_response_batch(entries[:half], entries[half:], round_number))


def _echo_chunk(block: bytes) -> bytes:
    return pack_entries(unpack_entries(block))


def best_ms(fn) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return round(best * 1000, 2)


def probe() -> list[dict]:
    keypairs = [KeyPair.generate(DeterministicRandom(f"probe-{i}")) for i in range(3)]
    publics = [kp.public for kp in keypairs]
    payloads = [b"\x00" * PAYLOAD_SIZE] * max(SIZES)
    wires, _ = wrap_request_batch(payloads, publics, ROUND, DeterministicRandom("probe-wires"))
    keys = [DeterministicRandom(f"k{i}").random_bytes(32) for i in range(max(SIZES))]
    inline = RoundEngine(workers=1)
    pooled = RoundEngine(workers=WORKERS)
    # Every op to the pool, whatever its size: the probe times both sides.
    round_engine.POOL_CURVE_OPS = 0
    rows = []
    try:
        pooled.wrap_noise_chunks(payloads[:64], publics[1:], ROUND, DeterministicRandom(0))  # fork
        for n in SIZES:
            bounds = pooled._bounds(n, True)

            def noise(engine):
                return lambda: engine.wrap_noise_chunks(payloads[:n], publics[1:], ROUND, DeterministicRandom(n))

            def peel(engine):
                return lambda: engine.peel_request_chunks(wires[:n], keypairs[0].private, 0, ROUND)

            def split_response():
                tasks = [(pack_entries([*payloads[lo:hi], *keys[lo:hi]]), ROUND) for lo, hi in bounds]
                for packed in pooled._pipelined(_wrap_response_chunk, tasks):
                    unpack_entries(packed)

            def pipe():
                for packed in pooled._pipelined(_echo_chunk, (pack_entries(wires[lo:hi]) for lo, hi in bounds)):
                    unpack_entries(packed)

            row = {
                "n": n,
                "noise_inline_ms": best_ms(noise(inline)),
                "noise_split_ms": best_ms(noise(pooled)),
                "peel_inline_ms": best_ms(peel(inline)),
                "peel_split_ms": best_ms(peel(pooled)),
                "response_inline_ms": best_ms(lambda: wrap_response_batch(payloads[:n], keys[:n], ROUND)),
                "response_split_ms": best_ms(split_response),
                "pipe_ms": best_ms(pipe),
            }
            rows.append(row)
            print(
                f"  n={n:<6} noise {row['noise_inline_ms']:>8} -> {row['noise_split_ms']:>8}   "
                f"peel {row['peel_inline_ms']:>8} -> {row['peel_split_ms']:>8}   "
                f"response {row['response_inline_ms']:>7} -> {row['response_split_ms']:>7}   "
                f"pipe {row['pipe_ms']:>6}",
                file=sys.stderr,
            )
    finally:
        pooled.close()
    return rows


def probe_client_build() -> list[dict]:
    """One swarm per size and mode; each timed build is that swarm's next round."""
    config = VuvuzelaConfig.small(seed=1)
    inline = RoundEngine(workers=1)
    pooled = RoundEngine(workers=WORKERS)
    round_engine.POOL_CURVE_OPS = 0
    rows = []
    try:
        for n in CLIENT_SIZES:
            spec = WorkloadSpec(num_users=n, conversing_fraction=0.6, dialing_fraction=0.0)
            row: dict = {"wires": n}
            for mode, engine in (("inline", inline), ("pooled", pooled)):
                swarm = ClientSwarm.from_spec(config, spec)
                rounds = iter(range(REPEATS + 1))
                swarm.build_round(next(rounds), engine=engine)  # long-term keys, pool fork
                row[f"client_{mode}_ms"] = best_ms(lambda: swarm.build_round(next(rounds), engine=engine))
            rows.append(row)
            print(
                f"  wires={n:<6} client build {row['client_inline_ms']:>8} -> {row['client_pooled_ms']:>8}",
                file=sys.stderr,
            )
    finally:
        pooled.close()
    return rows


def main() -> None:
    set_backend(available_backends()[-1])
    print(f"backend {active_backend().name}, {WORKERS} workers, best of {REPEATS} (ms)", file=sys.stderr)
    rows = probe()
    client_rows = probe_client_build()
    print(json.dumps(
        {"backend": active_backend().name, "workers": WORKERS, "rows": rows, "client_rows": client_rows}
    ))


if __name__ == "__main__":
    main()
