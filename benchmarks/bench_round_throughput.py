"""Round-processing throughput: batched pipeline, the engine's pool, seed path.

Vuvuzela's operating point is rounds of ~1M requests plus cover traffic, so
the number that matters for server provisioning is *messages per second per
server per round*, not per-message latency (§8 of the paper).  This benchmark
measures exactly that: one mix server peeling a round of onion requests and
wrapping the round's responses, through

* the **batched** pipeline (``MixServer.process_round`` → the serial
  :class:`~repro.runtime.RoundEngine`, which runs the backend's batch
  entry points in chunks that bound the round's working memory),
* the **host-sized** engine, ``RoundEngine()`` with one worker per usable
  core (the multi-core path: each batch split into one chunk per worker,
  shipped as packed blocks through the task pipe), against the same round
  inline on ``RoundEngine(workers=1)``, and
* the **sequential** reference path (per-message ``peel_request`` /
  ``wrap_response``, the seed implementation), measured on a capped sample of
  the same wires in the same run and reported as msgs/sec.

All paths are byte-identical (see ``tests/runtime/test_engine.py``); the
ratios between them are the batching win and the multi-core gain.
Results are printed as a table and written to a JSON artifact (including the
host's CPU count — scaling numbers are meaningless without it) so later PRs
have a performance trajectory to compare against.

Run it directly (~13 minutes on a 2-vCPU host with the default sizes, most
of it the pure-python 100k round)::

    PYTHONPATH=src python benchmarks/bench_round_throughput.py
    PYTHONPATH=src python benchmarks/bench_round_throughput.py \
        --sizes 1000,10000 --backends pure-python --engine-size 10000

CI runs ``--smoke``: one small round through a two-worker pool, asserted
byte-identical to the inline path.

Wires are generated once with the fastest available backend (request bytes
are backend-independent) and shared across all measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bench_common import emit, peak_rss_bytes  # noqa: E402

from repro.crypto import (  # noqa: E402
    DeterministicRandom,
    KeyPair,
    peel_request,
    wrap_request_batch,
    wrap_response,
)
from repro.crypto.backend import available_backends, set_backend  # noqa: E402
from repro.mixnet.chain import MixServer  # noqa: E402
from repro.runtime import RoundEngine  # noqa: E402

#: Innermost payload size: one conversation exchange request (§8.1).
PAYLOAD_SIZE = 272
#: Chain length used to shape the wires (the paper's default deployment).
CHAIN_LENGTH = 3
#: The response arriving from downstream at the measured server: an exchange
#: response wrapped by the two later servers.
DOWNSTREAM_RESPONSE_SIZE = PAYLOAD_SIZE + 2 * 16

ROUND_NUMBER = 5


def generate_wires(count: int, keypairs: list[KeyPair]) -> list[bytes]:
    """Onion-wrap ``count`` fixed-size requests for the measured chain."""
    set_backend(available_backends()[-1])  # fastest available; bytes identical
    rng = DeterministicRandom("round-throughput-workload")
    publics = [keypair.public for keypair in keypairs]
    payloads = [b"\x00" * PAYLOAD_SIZE] * count
    wires, _ = wrap_request_batch(payloads, publics, ROUND_NUMBER, rng)
    return wires


def echo_downstream(round_number: int, batch: list[bytes]) -> list[bytes]:
    return [b"\x00" * DOWNSTREAM_RESPONSE_SIZE] * len(batch)


def run_engine_round(
    keypairs: list[KeyPair], wires: list[bytes], engine: RoundEngine | None
) -> tuple[float, list[bytes]]:
    """One full server round through ``engine``; returns (seconds, responses)."""
    server = MixServer(
        index=0,
        keypair=keypairs[0],
        chain_public_keys=[keypair.public for keypair in keypairs],
        rng=DeterministicRandom("bench-server"),
        engine=engine,
    )
    start = time.perf_counter()
    responses = server.process_round(ROUND_NUMBER, wires, echo_downstream)
    elapsed = time.perf_counter() - start
    assert len(responses) == len(wires) and responses[0] != b""
    return elapsed, responses


def time_batch_round(keypairs: list[KeyPair], wires: list[bytes]) -> float:
    return run_engine_round(keypairs, wires, None)[0]


def time_sequential_round(keypairs: list[KeyPair], wires: list[bytes]) -> float:
    """The seed path: per-message peel + per-message response wrap."""
    private = keypairs[0].private
    response = b"\x00" * DOWNSTREAM_RESPONSE_SIZE
    start = time.perf_counter()
    for wire in wires:
        inner, layer_key = peel_request(wire, private, 0, ROUND_NUMBER)
        wrap_response(response, layer_key, ROUND_NUMBER)
    return time.perf_counter() - start


def run(sizes: list[int], backends: list[str], sequential_cap: int, engine_size: int) -> dict:
    keypairs = [
        KeyPair.generate(DeterministicRandom(f"bench-chain-{i}")) for i in range(CHAIN_LENGTH)
    ]
    engine_size = min(engine_size, max(sizes))
    wires = generate_wires(max(sizes), keypairs)
    cores = RoundEngine().workers
    results: dict = {
        "benchmark": "round_throughput",
        "payload_size": PAYLOAD_SIZE,
        "chain_length": CHAIN_LENGTH,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "usable_cores": cores,
        "note": (
            "one usable core: the host-sized engine runs inline, so the pool row "
            "is skipped — rerun on a multi-core host for the multi-core gain"
            if cores == 1
            else f"the pool row splits each batch over the host's {cores} usable cores"
        ),
        "results": [],
    }
    rows = []
    for backend_name in backends:
        for size in sizes:
            set_backend(backend_name)
            batch_seconds = time_batch_round(keypairs, wires[:size])
            sample = min(size, sequential_cap)
            sequential_seconds = time_sequential_round(keypairs, wires[:sample])
            batch_rate = size / batch_seconds
            sequential_rate = sample / sequential_seconds
            record = {
                "backend": backend_name,
                "mode": "batch",
                "workers": 1,
                "batch_size": size,
                "batch_msgs_per_sec": round(batch_rate, 1),
                "sequential_msgs_per_sec": round(sequential_rate, 1),
                "sequential_sample": sample,
                "speedup": round(batch_rate / sequential_rate, 2),
            }
            results["results"].append(record)
            rows.append(record)
            print(
                f"  {backend_name:>12}  n={size:<7} batch {batch_rate:>10,.0f}/s  "
                f"sequential {sequential_rate:>8,.0f}/s  speedup {record['speedup']:.2f}x",
                file=sys.stderr,
            )

        # Inline against the host-sized pool, one size, same round.
        if cores == 1:
            continue
        set_backend(backend_name)
        inline_seconds, _ = run_engine_round(keypairs, wires[:engine_size], RoundEngine(workers=1))
        with RoundEngine() as engine:
            # Warm the pool outside the measurement: the fork is a
            # per-deployment cost, not a per-round one.
            run_engine_round(keypairs, wires[: min(512, engine_size)], engine)
            pool_seconds, _ = run_engine_round(keypairs, wires[:engine_size], engine)
        record = {
            "backend": backend_name,
            "mode": "pool",
            "workers": cores,
            "batch_size": engine_size,
            "inline_msgs_per_sec": round(engine_size / inline_seconds, 1),
            "batch_msgs_per_sec": round(engine_size / pool_seconds, 1),
            "speedup_vs_inline": round(inline_seconds / pool_seconds, 2),
        }
        results["results"].append(record)
        rows.append(record)
        print(
            f"  {backend_name:>12}  n={engine_size:<7} pool x{cores} "
            f"{record['batch_msgs_per_sec']:>10,.0f}/s  vs-inline {record['speedup_vs_inline']:.2f}x",
            file=sys.stderr,
        )
    emit(
        "Round throughput (msgs/sec per server)",
        [row for row in rows if row["mode"] == "batch"],
    )
    emit(
        "Host-sized engine against inline",
        [row for row in rows if row["mode"] == "pool"],
    )
    results["peak_rss_bytes"] = peak_rss_bytes()
    return results


def run_smoke() -> None:
    """CI gate: a small round through a two-worker pool, byte-identical to inline."""
    keypairs = [
        KeyPair.generate(DeterministicRandom(f"bench-chain-{i}")) for i in range(CHAIN_LENGTH)
    ]
    wires = generate_wires(512, keypairs)
    _, inline_responses = run_engine_round(keypairs, wires, None)
    with RoundEngine(workers=2) as engine:
        seconds, pooled_responses = run_engine_round(keypairs, wires, engine)
        forked = engine._pool is not None
    if not forked or pooled_responses != inline_responses:
        print("SMOKE FAILED: the pooled round did not fork or differs from inline", file=sys.stderr)
        raise SystemExit(1)
    print(
        f"smoke ok: 512-wire round, 2 workers, {seconds:.2f}s, byte-identical",
        file=sys.stderr,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--sizes",
        default="1000,10000,100000",
        help="comma-separated round sizes (default: 1000,10000,100000)",
    )
    parser.add_argument(
        "--backends",
        default=",".join(available_backends()),
        help="comma-separated backends to measure (default: all available)",
    )
    parser.add_argument(
        "--sequential-cap",
        type=int,
        default=1000,
        help="max wires timed on the sequential path per measurement (default: 1000)",
    )
    parser.add_argument(
        "--engine-size",
        type=int,
        default=10_000,
        help="round size for the inline-vs-pool comparison, clamped to max --sizes (default: 10000)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run one small round on a two-worker pool, verify byte-identity, and exit",
    )
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_round_throughput.json"),
        help="where to write the JSON artifact",
    )
    args = parser.parse_args()
    if args.smoke:
        run_smoke()
        return

    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        parser.error(f"--sizes must be comma-separated integers, got {args.sizes!r}")
    if not sizes or any(size <= 0 for size in sizes):
        parser.error("--sizes needs at least one positive round size")
    backends = [b for b in args.backends.split(",") if b]
    for backend_name in backends:
        if backend_name not in available_backends():
            parser.error(f"backend {backend_name!r} is not available here")

    results = run(sizes, backends, args.sequential_cap, args.engine_size)
    output = Path(args.output)
    output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {output}", file=sys.stderr)


if __name__ == "__main__":
    main()
