"""Goodput degradation under WAN conditions: the degraded-mode curve.

The paper's clients sit behind DSL/3G access links (§8); this benchmark
measures what that edge costs end-to-end.  A fixed conversing population runs
identical conversation rounds under increasingly hostile client-edge
conditioning — seeded loss on submissions, propagation latency, jitter — and
each severity level records:

* **goodput** — plaintexts delivered / messages offered.  A lost submission
  is a lost round for that client; §3.1 retransmission carries the message
  into a later round, so goodput degrades smoothly with loss instead of
  falling off a cliff;
* **round latency** — mean wall clock per conversation round, which absorbs
  the conditioner's latency/jitter stalls.

Loss decisions are hash-keyed off the benchmark seed, so every severity
level loses the *same* submissions on every run of this benchmark.

The artifact also runs a short seeded WAN+churn campaign
(:class:`~repro.runtime.Campaign`) end to end — invariants checked,
ledger replayed bit-for-bit — and records its timing next to the curve.

Writes ``BENCH_wan_degradation.json`` at the repo root.  ``--smoke`` runs a
two-level mini-sweep under CI's hard timeout.

Run it::

    PYTHONPATH=src python benchmarks/bench_wan_degradation.py
    PYTHONPATH=src python benchmarks/bench_wan_degradation.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bench_common import emit, peak_rss_bytes  # noqa: E402

from repro import VuvuzelaConfig, VuvuzelaSystem  # noqa: E402
from repro.ledger import load_ledger, replay_ledger  # noqa: E402
from repro.runtime import Campaign, edge_rules  # noqa: E402

SEED = 5115

#: The sweep: escalating client-edge weather.  Latency/jitter are kept small
#: because every hop of every round pays them serially on a 1-core container;
#: the *shape* of the curve, not its absolute scale, is the result.
SEVERITIES = (
    {"label": "clear", "loss": 0.0, "latency_ms": 0.0, "jitter_ms": 0.0},
    {"label": "light", "loss": 0.05, "latency_ms": 1.0, "jitter_ms": 0.5},
    {"label": "moderate", "loss": 0.15, "latency_ms": 3.0, "jitter_ms": 1.0},
    {"label": "heavy", "loss": 0.30, "latency_ms": 6.0, "jitter_ms": 2.0},
)


def bench_config(**overrides) -> VuvuzelaConfig:
    fields = VuvuzelaConfig.small(
        num_servers=3, conversation_mu=2.0, dialing_mu=1.0, seed=SEED
    ).to_dict()
    fields.update(overrides)
    return VuvuzelaConfig.from_dict(fields)


def measure_severity(severity: dict, rounds: int, bystanders: int) -> dict:
    """Goodput + round latency for one severity level.

    Alice offers one message per conversation round to a always-present Bob;
    ``bystanders`` extra clients supply the cover traffic a real deployment
    would carry.  Delivery requires both partners' submissions to survive the
    round, so expected goodput under loss p is roughly (1-p)^2.
    """
    with VuvuzelaSystem(bench_config()) as system:
        alice = system.add_session("alice")
        system.add_session("bob")
        for index in range(bystanders):
            system.add_client(f"bystander-{index}")
        alice.dial(system.client("bob").public_key)
        system.run_continuous(2, dialing_interval=2)  # connect the pair

        for rule in edge_rules(
            severity["loss"], severity["latency_ms"] / 1000, severity["jitter_ms"] / 1000
        ):
            system.add_link_rule("clients", rule, seed=SEED)

        offered = 0
        timings = []
        for index in range(rounds):
            alice.say(f"degradation-probe-{index}")
            offered += 1
            timings.append(system.run_conversation_round().wall_clock_seconds)
        delivered = sum(
            1
            for message in system.client("bob").received
            if message.body.startswith(b"degradation-probe-")
        )
        stats = system.link_stats()
    return {
        "severity": severity["label"],
        "loss": severity["loss"],
        "latency_ms": severity["latency_ms"],
        "jitter_ms": severity["jitter_ms"],
        "rounds": rounds,
        "offered": offered,
        "delivered": delivered,
        "goodput_percent": round(delivered / offered * 100, 1),
        "submissions_lost": stats["lost"],
        "round_ms_mean": round(statistics.mean(timings) * 1000, 2),
    }


def sweep(rounds: int, bystanders: int, severities=SEVERITIES) -> list[dict]:
    points = [measure_severity(severity, rounds, bystanders) for severity in severities]
    # Graceful, not catastrophic: goodput must stay positive even at the
    # heaviest level, and the clear level must deliver (near) everything.
    if points[0]["goodput_percent"] < 90.0:
        print("BENCH FAILED: clear-weather goodput below 90%", file=sys.stderr)
        raise SystemExit(1)
    if points[-1]["goodput_percent"] <= 0.0:
        print("BENCH FAILED: heavy-weather goodput collapsed to zero", file=sys.stderr)
        raise SystemExit(1)
    return points


def campaign_timing(segments: int, rounds_per_segment: int) -> dict:
    """One seeded WAN+churn+flood campaign, invariants + replay verified."""
    with tempfile.TemporaryDirectory(prefix="bench-wan-") as scratch:
        path = Path(scratch) / "wan.jsonl"
        campaign = Campaign(
            bench_config(),
            seed=SEED,
            ledger_path=path,
            rounds_per_segment=rounds_per_segment,
            loss=0.15,
            latency_seconds=0.001,
            jitter_seconds=0.001,
            flood_attackers=2,
        )
        started = time.perf_counter()
        report = campaign.run(segments)
        campaign_seconds = time.perf_counter() - started
        if not report.ok:
            print(f"BENCH FAILED: {report.summary()}", file=sys.stderr)
            raise SystemExit(1)

        started = time.perf_counter()
        replay = replay_ledger(path)
        replay_seconds = time.perf_counter() - started
        if not replay.identical:
            print(f"BENCH FAILED: replay diverged ({replay.summary()})", file=sys.stderr)
            raise SystemExit(1)
        records = len(load_ledger(path))
    rounds = report.conversation_rounds + report.dialing_rounds
    return {
        "segments": report.segments_run,
        "rounds": rounds,
        "submissions_lost": report.link_losses,
        "aborted_attempts": report.aborted_attempts,
        "churn": dict(sorted(report.churn.items())),
        "violations": len(report.violations),
        "flood_points": len(report.flood_points),
        "ledger_records": records,
        "campaign_seconds": round(campaign_seconds, 2),
        "campaign_round_ms": round(campaign_seconds / rounds * 1000, 2),
        "replay_seconds": round(replay_seconds, 2),
        "replay_identical": replay.identical,
    }


def run(rounds: int, bystanders: int, segments: int, output: str) -> None:
    curve = sweep(rounds, bystanders)
    campaign = campaign_timing(segments, rounds_per_segment=3)
    results = {
        "benchmark": "wan_degradation",
        "rounds_per_point": rounds,
        "bystanders": bystanders,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "note": (
            "goodput = delivered/offered for a conversing pair under seeded "
            "client-edge conditioning; delivery needs both partners' "
            "submissions to survive, so expected goodput under loss p is "
            "~(1-p)^2. round_ms is wall clock on a small shared container: "
            "latency/jitter stalls serialize with the crypto, so absolute "
            "timings are pessimistic; the curve's shape is the result."
        ),
        "degradation_curve": curve,
        "wan_campaign": campaign,
    }
    emit("Goodput vs client-edge severity (loss / latency / jitter)", curve)
    emit("WAN+churn campaign (conditioning + churn + flood + replay)", [campaign])
    results["peak_rss_bytes"] = peak_rss_bytes()
    Path(output).write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {output}", file=sys.stderr)


def run_smoke() -> None:
    """CI gate: a two-level mini-sweep degrades gracefully."""
    started = time.perf_counter()
    points = sweep(6, bystanders=2, severities=(SEVERITIES[0], SEVERITIES[2]))
    emit("Smoke sweep", points)
    print(
        f"smoke ok: goodput {points[0]['goodput_percent']}% clear -> "
        f"{points[-1]['goodput_percent']}% moderate, "
        f"{time.perf_counter() - started:.1f}s total",
        file=sys.stderr,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--rounds", type=int, default=20, help="conversation rounds per severity (default: 20)"
    )
    parser.add_argument(
        "--bystanders", type=int, default=6, help="cover-traffic clients (default: 6)"
    )
    parser.add_argument(
        "--segments", type=int, default=3, help="wan campaign segments (default: 3)"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="run a two-level mini-sweep, exit"
    )
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_wan_degradation.json"),
        help="where to write the JSON artifact",
    )
    args = parser.parse_args()
    if args.smoke:
        run_smoke()
        return
    if args.rounds <= 0 or args.segments <= 0 or args.bystanders < 0:
        parser.error("--rounds and --segments must be positive")
    run(args.rounds, args.bystanders, args.segments, args.output)


if __name__ == "__main__":
    main()
