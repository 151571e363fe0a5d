"""End-to-end swarm round: 100k+ wires through the real server path.

The paper's operating point is one million connected users (§8.2); the other
benchmarks in this directory measure the *server* side of that round in
isolation (``bench_round_throughput``).  This one measures the whole thing:
a :class:`~repro.simulation.ClientSwarm` materialises a full population
(conversation pairs, idle cover traffic), wraps every wire through the
batched onion kernels, feeds them to the real entry server in
``SUBMISSION_BATCH`` chunks through the coordinator's admission gate, drives
the 3-server chain, and bulk-decodes every onion response — the same code
path a TCP deployment runs, minus the sockets.

Reported numbers:

* **end-to-end msgs/sec** — population build + wrap + admission + chain +
  response decode over wall-clock time,
* **ingest msgs/sec** — the admission-side rate alone (chunked submission
  with verdict backpressure),
* **peak_server_buffer** — the entry's high-water buffered-submission count,
  which bounds server memory per round,
* **peak_rss_bytes** — the process high-water RSS after each round (client
  + servers share one process here, so this is the *combined* envelope;
  sizes run in ascending order, so each row's high-water is its own round's),
  and **memory_fit**, ``rss = a·wires + b`` by least squares over the rows
  with its R², when two or more sizes ran.

Everything runs in one process: on a single-core host the client swarm and
the chain servers serialise onto the same core, so end-to-end msgs/sec here
is a lower bound — the deployed system runs clients, entry and each chain
server on separate machines.  The artifact records ``cpu_count`` alongside
the rates for exactly this reason.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_swarm_round.py                # 100k wires
    PYTHONPATH=src python benchmarks/bench_swarm_round.py --wires 1000000

CI runs ``--smoke``: a 10k-wire round through the full path plus a 64-client
byte-identity check (swarm wires == the wires the same population builds as
individual ``VuvuzelaClient`` objects).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bench_common import PhaseTimer, emit, peak_rss_bytes  # noqa: E402

from repro import VuvuzelaConfig, VuvuzelaSystem  # noqa: E402
from repro.core import topology  # noqa: E402
from repro.crypto import active_backend  # noqa: E402
from repro.simulation import ClientSwarm, WorkloadSpec  # noqa: E402

SEED = 8  # the config seed every measured round derives from
CONVERSING_FRACTION = 0.6  # paired users; the rest are idle cover traffic


def build_swarm(num_users: int, chunk_size: int) -> tuple[VuvuzelaConfig, ClientSwarm]:
    config = VuvuzelaConfig.small(seed=SEED)
    spec = WorkloadSpec(
        num_users=num_users,
        conversing_fraction=CONVERSING_FRACTION,
        dialing_fraction=0.0,
    )
    return config, ClientSwarm.from_spec(config, spec)


def run_round(num_users: int, chunk_size: int) -> dict:
    """One full swarm round in-process; returns the measurement record."""
    config, swarm = build_swarm(num_users, chunk_size)
    started = time.perf_counter()
    with VuvuzelaSystem(config) as system:
        report = system.run_swarm_round(swarm, chunk_size=chunk_size)
    total_seconds = time.perf_counter() - started
    metrics = report.metrics
    ingest = dataclasses.asdict(report.ingest)
    if report.outcome.lost or report.outcome.undelivered:
        raise AssertionError(
            f"{num_users}-wire round lost responses: "
            f"lost={report.outcome.lost} undelivered={len(report.outcome.undelivered)}"
        )
    timer = PhaseTimer()
    timer.absorb(report.phases)
    record = {
        "wires": num_users,
        "conversing_fraction": CONVERSING_FRACTION,
        "end_to_end_msgs_per_sec": round(num_users / metrics.wall_clock_seconds, 1),
        "ingest_msgs_per_sec": round(num_users / ingest["ingest_seconds"], 1),
        "round_wall_clock_seconds": round(metrics.wall_clock_seconds, 3),
        "total_seconds_with_setup": round(total_seconds, 3),
        "delivered": metrics.delivered_responses,
        "noise_requests": metrics.noise_requests,
        "bytes_moved": metrics.bytes_moved,
        "ingest": ingest,
        #: Measured wrap / admission / chain / decode seconds of the round.
        "phases": timer.to_dict(),
        "peak_rss_bytes": peak_rss_bytes(),
    }
    if metrics.delivered_responses != num_users:
        raise AssertionError(
            f"expected {num_users} delivered responses, got {metrics.delivered_responses}"
        )
    return record


def client_wires(swarm: ClientSwarm, round_number: int) -> list[bytes]:
    """Round ``round_number``'s wires from fresh per-client ``VuvuzelaClient``
    objects of ``swarm``'s population (rounds before it built and dropped)."""
    root = topology.root_rng(swarm.config)
    clients = {
        name: topology.build_client(swarm.config, name, root, swarm.server_public_keys)
        for name in swarm.names
    }
    for a, b in swarm.population.pairs:
        clients[a].start_conversation(clients[b].public_key)
        clients[b].start_conversation(clients[a].public_key)
    for built in range(round_number + 1):
        wires = [clients[name].build_conversation_requests(built)[0] for name in swarm.names]
    return wires


def check_identity(num_users: int = 64) -> None:
    """The acceptance gate: swarm wires == per-client-driven wires, byte for byte."""
    config, swarm = build_swarm(num_users, chunk_size=0)
    round_number = 0
    wires = swarm.build_round(round_number, chunk_size=17)
    reference = client_wires(swarm, round_number)
    assert len(wires) == num_users
    for index, (got, want) in enumerate(zip(wires, reference)):
        if bytes(got) != bytes(want):
            raise AssertionError(
                f"swarm wire {index} ({swarm.names[index]}) differs from the "
                f"per-client VuvuzelaClient wire in round {round_number}"
            )
    print(f"  identity: {num_users} swarm wires byte-identical to per-client", file=sys.stderr)


def memory_fit(rows: list[dict]) -> dict:
    """``rss = a·wires + b`` by least squares over the rows, with its R²."""
    xs = [row["wires"] for row in rows]
    ys = [row["peak_rss_bytes"] for row in rows]
    n, mean_x, mean_y = len(xs), sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    a = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sxx
    b = mean_y - a * mean_x
    residual = sum((y - (a * x + b)) ** 2 for x, y in zip(xs, ys))
    total = sum((y - mean_y) ** 2 for y in ys)
    return {
        "bytes_per_wire": round(a, 1),
        "base_bytes": round(b),
        "r2": round(1 - residual / total, 5) if total else 1.0,
        "points": n,
    }


def run(sizes: list[int], chunk_size: int, output: Path) -> None:
    check_identity()
    rows = []
    for size in sorted(sizes):
        record = run_round(size, chunk_size)
        rows.append(record)
        print(
            f"  n={size:<8} end-to-end {record['end_to_end_msgs_per_sec']:>10,.0f}/s  "
            f"ingest {record['ingest_msgs_per_sec']:>10,.0f}/s  "
            f"peak-buffer {record['ingest']['peak_server_buffer']:,}  "
            f"peak-rss {record['peak_rss_bytes'] / 2**20:,.1f} MiB",
            file=sys.stderr,
        )
    results = {
        "benchmark": "swarm_round",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "backend": active_backend().name,
        "cpu_count": os.cpu_count(),
        "note": (
            f"clients, entry and all chain servers share this host's "
            f"{os.cpu_count()} core(s) in one process; end-to-end msgs/sec is a "
            f"lower bound on a deployment where each role has its own machine"
        ),
        "identity_checked": True,
        "results": rows,
        "peak_rss_bytes": peak_rss_bytes(),
    }
    if len({row["wires"] for row in rows}) >= 2:
        results["memory_fit"] = memory_fit(rows)
        fit = results["memory_fit"]
        print(
            f"  rss = {fit['bytes_per_wire']:,.0f} B/wire x wires + "
            f"{fit['base_bytes'] / 2**20:,.1f} MiB  (R^2 {fit['r2']})",
            file=sys.stderr,
        )
    emit(
        "Swarm round, full path (msgs/sec)",
        [
            {
                "wires": row["wires"],
                "end_to_end/s": row["end_to_end_msgs_per_sec"],
                "ingest/s": row["ingest_msgs_per_sec"],
                "wrap_s": row["phases"]["totals"].get("wrap", 0.0),
                "admission_s": row["phases"]["totals"].get("admission", 0.0),
                "chain_s": row["phases"]["totals"].get("chain", 0.0),
                "decode_s": row["phases"]["totals"].get("decode", 0.0),
                "peak_buffer": row["ingest"]["peak_server_buffer"],
            }
            for row in rows
        ],
    )
    output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {output}", file=sys.stderr)


def run_smoke(chunk_size: int) -> None:
    """CI gate: identity on 64 clients, then a 10k-wire round end to end."""
    check_identity()
    record = run_round(10_000, chunk_size)
    print(
        f"  smoke: 10,000 wires end-to-end at "
        f"{record['end_to_end_msgs_per_sec']:,.0f}/s, "
        f"delivered {record['delivered']:,}",
        file=sys.stderr,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--wires",
        default="100000",
        help="comma-separated round sizes in wires (default: 100000)",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=0,
        help="admission chunk size; 0 picks the swarm default (default: 0)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the 64-client identity check plus a 10k-wire round, then exit",
    )
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_swarm_round.json"),
        help="where to write the JSON artifact",
    )
    args = parser.parse_args()
    if args.smoke:
        run_smoke(args.chunk_size)
        return
    try:
        sizes = [int(s) for s in args.wires.split(",") if s]
    except ValueError:
        parser.error(f"--wires must be comma-separated integers, got {args.wires!r}")
    if not sizes or any(size <= 0 for size in sizes):
        parser.error("--wires needs at least one positive round size")
    run(sizes, args.chunk_size, Path(args.output))


if __name__ == "__main__":
    main()
