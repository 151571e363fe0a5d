"""What a round failure costs: abort/retry overhead and crash-recovery latency.

The coordinator's fault-tolerance path (abort the round, refund the accepted
submissions, re-run with fresh noise) turns a chain failure from a wedged
deployment into latency.  This benchmark measures that latency in both
deployment shapes:

* **in-process** — a clean round vs a round whose first server-0 → server-1
  batch is killed by a link rule: the ratio is the pure abort/retry
  overhead (the failed attempt's crypto plus the re-run).
* **networked TCP** — the same one-shot link kill through real subprocess
  servers (abort + client resubmission over sockets), plus the full §6 crash
  story: SIGKILL a chain server, restart it from the seeded topology, and
  time the round that spans the crash.

Writes ``BENCH_fault_recovery.json`` at the repo root.  ``--smoke`` runs a
single tiny scenario of each kind under CI's hard timeout.

Run it::

    PYTHONPATH=src python benchmarks/bench_fault_recovery.py
    PYTHONPATH=src python benchmarks/bench_fault_recovery.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bench_common import emit, peak_rss_bytes  # noqa: E402

from repro import DeploymentLauncher, VuvuzelaConfig, VuvuzelaSystem  # noqa: E402
from repro.net import LinkRule  # noqa: E402

SEED = 6606
#: Kill the first conversation batch forwarded to server 1, once.
KILL_RULE = LinkRule(action="kill", destination="server-1/conversation", count=1)


def bench_config(**overrides) -> VuvuzelaConfig:
    fields = VuvuzelaConfig.small(
        num_servers=3, conversation_mu=2.0, dialing_mu=1.0, seed=SEED
    ).to_dict()
    fields.update(overrides)
    return VuvuzelaConfig.from_dict(fields)


def time_in_process(rounds: int, clients: int) -> dict:
    config = bench_config()
    with VuvuzelaSystem(config) as system:
        people = [system.add_client(f"client-{i}") for i in range(clients)]
        for first, second in zip(people[::2], people[1::2]):
            first.start_conversation(second.public_key)
            second.start_conversation(first.public_key)
        clean = [system.run_conversation_round().wall_clock_seconds for _ in range(rounds)]
        faulted, aborts = [], 0
        for _ in range(rounds):
            system.add_link_rule(0, KILL_RULE, seed=SEED)
            metrics = system.run_conversation_round()
            faulted.append(metrics.wall_clock_seconds)
            aborts += metrics.aborted_attempts
    return {
        "clean_round_ms": round(statistics.mean(clean) * 1000, 2),
        "aborted_round_ms": round(statistics.mean(faulted) * 1000, 2),
        "recovery_overhead_factor": round(
            statistics.mean(faulted) / statistics.mean(clean), 2
        ),
        "aborts": aborts,
    }


def time_networked(rounds: int, clients: int) -> dict:
    config = bench_config(round_deadline_seconds=30.0, max_round_attempts=8)
    with DeploymentLauncher(config) as deployment:
        connections = [
            deployment.add_client(f"client-{i}", retry_backoff_seconds=0.1)
            for i in range(clients)
        ]
        for first, second in zip(connections[::2], connections[1::2]):
            first.client.start_conversation(second.client.public_key)
            second.client.start_conversation(first.client.public_key)
        clean = [
            deployment.run_conversation_round(connections).wall_clock_seconds
            for _ in range(rounds)
        ]
        partitioned, aborts = [], 0
        for _ in range(rounds):
            deployment.add_link_rule(0, KILL_RULE)
            result = deployment.run_conversation_round(connections)
            partitioned.append(result.wall_clock_seconds)
            aborts += result.aborts
        # The full §6 story: SIGKILL a chain server mid-deployment, restart
        # it from the seeded topology, and time the round spanning the crash
        # (restart latency included — that is the operator's recovery cost).
        crash_recovery = []
        for _ in range(max(1, rounds // 2)):
            started = time.perf_counter()
            deployment.kill_server(1)
            deployment.restart_server(1)
            deployment.wait_alive(1)
            deployment.run_conversation_round(connections)
            crash_recovery.append(time.perf_counter() - started)
    return {
        "clean_round_ms": round(statistics.mean(clean) * 1000, 2),
        "partitioned_round_ms": round(statistics.mean(partitioned) * 1000, 2),
        "recovery_overhead_factor": round(
            statistics.mean(partitioned) / statistics.mean(clean), 2
        ),
        "aborts": aborts,
        "kill_restart_round_ms": round(statistics.mean(crash_recovery) * 1000, 2),
    }


def run(rounds: int, clients: int, output: str) -> None:
    results = {
        "benchmark": "fault_recovery",
        "rounds_per_point": rounds,
        "clients": clients,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "note": (
            "aborted rounds kill the first server-0->server-1 batch once; the "
            "coordinator refunds submissions and re-runs the round with fresh "
            "noise. kill_restart_round_ms includes SIGKILL, process respawn "
            "from the seeded topology, liveness wait and the recovered round."
        ),
        "in_process": time_in_process(rounds, clients),
        "networked_tcp": time_networked(rounds, clients),
    }
    rows = [
        {"shape": "in-process", **results["in_process"]},
        {
            "shape": "tcp",
            "clean_round_ms": results["networked_tcp"]["clean_round_ms"],
            "aborted_round_ms": results["networked_tcp"]["partitioned_round_ms"],
            "recovery_overhead_factor": results["networked_tcp"]["recovery_overhead_factor"],
            "aborts": results["networked_tcp"]["aborts"],
        },
    ]
    emit("Round failure cost: clean vs aborted-and-retried", rows)
    print(
        f"  tcp kill+restart recovery: "
        f"{results['networked_tcp']['kill_restart_round_ms']:.0f} ms "
        f"(SIGKILL -> respawn -> recovered round)",
        file=sys.stderr,
    )
    results["peak_rss_bytes"] = peak_rss_bytes()
    Path(output).write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {output}", file=sys.stderr)


def run_smoke() -> None:
    """CI gate: one aborted-and-recovered round in each deployment shape."""
    started = time.perf_counter()
    config = bench_config()
    with VuvuzelaSystem(config) as system:
        alice, bob = system.add_client("alice"), system.add_client("bob")
        alice.start_conversation(bob.public_key)
        bob.start_conversation(alice.public_key)
        alice.send_message("smoke through the crash")
        system.add_link_rule(0, KILL_RULE, seed=SEED)
        metrics = system.run_conversation_round()
        if metrics.aborted_attempts != 1 or bob.messages_from(alice.public_key) != [
            b"smoke through the crash"
        ]:
            print("SMOKE FAILED: in-process abort/retry did not recover", file=sys.stderr)
            raise SystemExit(1)

    config = bench_config(round_deadline_seconds=15.0, max_round_attempts=8)
    with DeploymentLauncher(config) as deployment:
        alice_c = deployment.add_client("alice", retry_backoff_seconds=0.3)
        bob_c = deployment.add_client("bob", retry_backoff_seconds=0.3)
        alice_c.client.start_conversation(bob_c.client.public_key)
        bob_c.client.start_conversation(alice_c.client.public_key)
        deployment.run_conversation_round([alice_c, bob_c])  # warm-up
        alice_c.client.send_message("smoke through the crash")
        deployment.kill_server(1)
        deployment.restart_server(1)
        deployment.wait_alive(1)
        result = deployment.run_conversation_round([alice_c, bob_c])
        received = bob_c.client.messages_from(alice_c.client.public_key)
        if result.responded != 2 or received != [b"smoke through the crash"]:
            print(
                f"SMOKE FAILED: tcp crash recovery did not deliver "
                f"(responded={result.responded}, received={received!r})",
                file=sys.stderr,
            )
            raise SystemExit(1)
    print(
        f"smoke ok: kill-mid-round recovered in both deployment shapes, "
        f"{time.perf_counter() - started:.1f}s total",
        file=sys.stderr,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--rounds", type=int, default=5, help="measured rounds per point (default: 5)"
    )
    parser.add_argument(
        "--clients", type=int, default=4, help="clients per round (default: 4)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run one aborted-and-recovered round per deployment shape, exit",
    )
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_fault_recovery.json"),
        help="where to write the JSON artifact",
    )
    args = parser.parse_args()
    if args.smoke:
        run_smoke()
        return
    if args.rounds <= 0 or args.clients <= 0:
        parser.error("--rounds and --clients must be positive")
    run(args.rounds, args.clients, args.output)


if __name__ == "__main__":
    main()
