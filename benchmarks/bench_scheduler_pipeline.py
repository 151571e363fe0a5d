"""Continuous round throughput: sequential vs overlapped scheduling.

The :class:`~repro.runtime.scheduler.RoundScheduler` runs a continuous
stream of rounds and overlaps what the protocol's data dependencies allow:
a due dialing round's submission and chain drive run concurrently with the
preceding conversation round (conversation ∥ dialing), and the next
conversation round's submission window is pre-opened while the current
chain is still mixing.  This benchmark measures what that buys: wall-clock
seconds for the same seeded schedule (N conversation rounds with a dialing
round interleaved every k) at ``pipeline_depth=1`` (fully sequential) vs
``pipeline_depth=2`` (overlapped), in both deployment shapes — in-process
and real subprocess servers over localhost TCP.

Because overlapped execution is byte-identical to sequential execution
under a fixed seed, the speedup is free: same plaintexts, same buckets,
same noise histograms, less wall clock.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_scheduler_pipeline.py
    PYTHONPATH=src python benchmarks/bench_scheduler_pipeline.py --clients 4 --rounds 10

CI runs ``--smoke``: a short overlapped TCP session asserted byte-identical
to its sequential run.
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

from repro import DeploymentLauncher, VuvuzelaConfig, VuvuzelaSystem  # noqa: E402

SEED = 6060
DIALING_INTERVAL = 2


def bench_config(num_clients: int) -> VuvuzelaConfig:
    # Little noise: the benchmark times scheduling and transport overlap,
    # not crypto throughput (bench_round_throughput covers that).
    return VuvuzelaConfig.small(
        num_servers=3, conversation_mu=2.0, dialing_mu=1.0, seed=SEED + num_clients
    )


def _sessions(add_session, num_clients: int):
    sessions = [add_session(f"client-{i}") for i in range(num_clients)]
    if len(sessions) >= 2:
        sessions[0].dial(sessions[1].client.public_key)
        sessions[0].greetings.append(b"pipelined hello")
    return sessions


def run_in_process(num_clients: int, rounds: int, depth: int) -> dict:
    config = bench_config(num_clients)
    with VuvuzelaSystem(config) as system:
        sessions = _sessions(system.add_session, num_clients)
        report = system.run_continuous(
            rounds, dialing_interval=DIALING_INTERVAL, pipeline_depth=depth
        )
        received = (
            sessions[1].client.messages_from(sessions[0].client.public_key)
            if len(sessions) >= 2
            else []
        )
        return {
            "wall": report.wall_clock_seconds,
            "rounds": report.total_rounds,
            "received": received,
            "noise": [m.noise_requests for m in report.conversation],
            "buckets": [m.bucket_sizes for m in report.dialing],
        }


def run_tcp(
    num_clients: int,
    rounds: int,
    depth: int,
    *,
    deadline: float | None = None,
) -> dict:
    config = bench_config(num_clients)
    launcher_kwargs: dict = {"request_timeout": 300.0}
    if deadline is not None:
        # The paper's deployment shape: every submission window stays open
        # for a fixed deadline (§7) — rounds cost wall clock even when all
        # clients submitted early, and that idle time is what overlapping
        # hides.
        launcher_kwargs.update(
            round_deadline_seconds=deadline, deadline_only_windows=True
        )
    with DeploymentLauncher(config, **launcher_kwargs) as deployment:
        sessions = _sessions(deployment.add_session, num_clients)
        report = deployment.run_continuous(
            rounds, dialing_interval=DIALING_INTERVAL, pipeline_depth=depth
        )
        received = (
            sessions[1].client.messages_from(sessions[0].client.public_key)
            if len(sessions) >= 2
            else []
        )
        return {
            "wall": report.wall_clock_seconds,
            "rounds": report.total_rounds,
            "received": received,
            "noise": [
                deployment.chain_noise("conversation", m.round_number)
                for m in report.conversation
            ],
            "buckets": [
                deployment.invitation_store(m.round_number).bucket_sizes()
                for m in report.dialing
            ],
        }


def run(num_clients: int, rounds: int, deadline: float) -> dict:
    results: dict = {
        "benchmark": "scheduler_pipeline",
        "clients": num_clients,
        "conversation_rounds": rounds,
        "dialing_interval": DIALING_INTERVAL,
        "window_deadline_seconds": deadline,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "note": (
            "sequential = pipeline_depth 1; overlapped = pipeline_depth 2 "
            "(dialing rounds run concurrently with conversation rounds, next "
            "window pre-opened during the chain drive).  Outcomes are "
            "byte-identical across depths.  The tcp-deadline shape is the "
            "paper's deployment model — every window stays open for a fixed "
            "deadline (§7), and overlapping hides that idle window time even "
            "on one core.  The expected-count shapes close windows as soon "
            "as every client submitted, so their rounds are pure crypto+IPC: "
            "on a 1-core host both schedules time-slice the same CPU work "
            "and the overlap cannot show (PR 2's 1-core note applies; rerun "
            "on a multi-core host for the concurrent-chain gains).  In the "
            "deadline shape, stragglers are refused by wall clock, so noise "
            "accounting varies with scheduling jitter; plaintext delivery "
            "and round counts stay invariant."
        ),
        "results": [],
    }
    rows = []
    shapes = (
        ("in-process", lambda d: run_in_process(num_clients, rounds, d)),
        ("tcp", lambda d: run_tcp(num_clients, rounds, d)),
        ("tcp-deadline", lambda d: run_tcp(num_clients, rounds, d, deadline=deadline)),
    )
    for shape, runner in shapes:
        sequential = runner(1)
        overlapped = runner(2)
        if shape == "tcp-deadline":
            # Deadline windows refuse stragglers by wall clock, so the noise
            # stream depends on who makes each window under scheduling
            # jitter — only the protocol outcomes are comparable here.
            identical = (sequential["received"], sequential["rounds"]) == (
                overlapped["received"],
                overlapped["rounds"],
            )
        else:
            identical = (
                sequential["received"],
                sequential["noise"],
                sequential["buckets"],
            ) == (overlapped["received"], overlapped["noise"], overlapped["buckets"])
        if not identical:
            raise SystemExit(f"{shape}: overlapped run diverged from sequential run")
        record = {
            "shape": shape,
            "total_rounds": sequential["rounds"],
            "sequential_s": round(sequential["wall"], 3),
            "overlapped_s": round(overlapped["wall"], 3),
            "sequential_rounds_per_s": round(sequential["rounds"] / sequential["wall"], 2),
            "overlapped_rounds_per_s": round(overlapped["rounds"] / overlapped["wall"], 2),
            "speedup": round(sequential["wall"] / overlapped["wall"], 2),
        }
        results["results"].append(record)
        rows.append(record)
        print(
            f"  {shape:<11} sequential {record['sequential_s']:>7.3f}s  "
            f"overlapped {record['overlapped_s']:>7.3f}s  "
            f"speedup {record['speedup']:.2f}x",
            file=sys.stderr,
        )
    emit("Continuous schedule: sequential vs overlapped (conversation ∥ dialing)", rows)
    return results


def run_smoke() -> None:
    """CI gate: a short overlapped TCP session, checked against sequential."""
    started = time.perf_counter()
    sequential = run_tcp(2, 4, 1)
    overlapped = run_tcp(2, 4, 2)
    for key in ("received", "noise", "buckets", "rounds"):
        if sequential[key] != overlapped[key]:
            print(
                f"SMOKE FAILED: {key} mismatch (sequential={sequential[key]!r}, "
                f"overlapped={overlapped[key]!r})",
                file=sys.stderr,
            )
            raise SystemExit(1)
    if overlapped["received"] != [b"pipelined hello"]:
        print(
            f"SMOKE FAILED: greeting not delivered ({overlapped['received']!r})",
            file=sys.stderr,
        )
        raise SystemExit(1)
    print(
        f"smoke ok: {overlapped['rounds']} rounds (conversation+dialing) overlapped "
        f"over subprocess TCP, byte-identical to sequential, "
        f"{time.perf_counter() - started:.1f}s total",
        file=sys.stderr,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--clients", type=int, default=4, help="clients (default: 4)")
    parser.add_argument(
        "--rounds", type=int, default=8, help="conversation rounds per run (default: 8)"
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=0.15,
        help="window deadline (s) for the tcp-deadline shape (default: 0.15)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run a short overlapped TCP session, assert it matches sequential, exit",
    )
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_scheduler_pipeline.json"),
        help="where to write the JSON artifact",
    )
    args = parser.parse_args()

    if args.smoke:
        run_smoke()
        return
    if args.clients < 2:
        parser.error("--clients must be at least 2 (one pair converses)")
    if args.rounds <= 0:
        parser.error("--rounds must be positive")
    if args.deadline <= 0:
        parser.error("--deadline must be positive")

    results = run(args.clients, args.rounds, args.deadline)
    output = Path(args.output)
    results["peak_rss_bytes"] = peak_rss_bytes()
    output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {output}", file=sys.stderr)


if __name__ == "__main__":
    main()
