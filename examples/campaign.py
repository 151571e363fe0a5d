"""A seeded campaign end to end: faults, WAN weather, churn, a flood, replay.

This example drives the whole robustness surface in one seeded
:class:`~repro.runtime.Campaign`:

1. **chain faults** — kill/drop rules on inter-server hops, each surviving
   as a §6 abort/retry trail;
2. **WAN link conditioning** — client submissions cross a lossy, delayed,
   jittery edge link (the paper's §8 DSL/3G clients).  Loss decisions are
   hash-keyed off the seed, so the same submissions are lost on every run;
3. **mid-session churn** — clients join, park (vanish silently), resume,
   leave and re-dial between rounds; messages said into the gap arrive
   after the resume, exactly once, via §3.1 retransmission and
   sequence-number dedup;
4. **an adversarial flood** — attacker clients hammer one victim's dialing
   bucket, emitting a privacy-vs-load point per segment that shows the
   accountant spending (ε, δ) at its ordinary per-round rate regardless;
5. the invariants (exactly-once delivery, refund conservation, accountant
   consistency) are checked after every segment, and the whole recording
   **replays bit-identically** from the ledger alone.

``--loss 0 --latency-ms 0 --jitter-ms 0 --flooders 0`` is clear weather:
chain faults and churn only.  Pass ``--shape tcp`` to run the identical
campaign over a real multi-process TCP deployment.

On an invariant violation the campaign exits non-zero and leaves a minimal,
hash-chain-valid ledger slice at ``<ledger>.violation.jsonl`` — load it with
``replay_ledger`` to reproduce the failure deterministically.

Run it::

    PYTHONPATH=src python examples/campaign.py
    PYTHONPATH=src python examples/campaign.py --loss 0 --latency-ms 0 --jitter-ms 0 --flooders 0
    PYTHONPATH=src python examples/campaign.py --shape tcp --segments 2
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import VuvuzelaConfig  # noqa: E402
from repro.ledger import load_ledger, replay_ledger, replay_ledger_over_tcp  # noqa: E402
from repro.runtime import CAMPAIGN_SHAPES, Campaign  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--shape", choices=CAMPAIGN_SHAPES, default="in-process", help="deployment shape"
    )
    parser.add_argument("--segments", type=int, default=3, help="campaign segments to run")
    parser.add_argument("--rounds", type=int, default=3, help="conversation rounds per segment")
    parser.add_argument("--seed", type=int, default=7, help="campaign + deployment seed")
    parser.add_argument("--loss", type=float, default=0.15, help="submission loss probability")
    parser.add_argument(
        "--latency-ms", type=float, default=1.0, help="edge-link propagation latency"
    )
    parser.add_argument("--jitter-ms", type=float, default=1.0, help="edge-link jitter")
    parser.add_argument("--flooders", type=int, default=2, help="dead-drop flood attackers")
    parser.add_argument(
        "--ledger", type=Path, default=None, help="ledger path (default: a temp file)"
    )
    parser.add_argument(
        "--skip-replay", action="store_true", help="skip the replay verification pass"
    )
    args = parser.parse_args()

    ledger_path = args.ledger or Path(tempfile.mkdtemp(prefix="campaign-")) / "ledger.jsonl"

    print(
        f"== campaign: shape {args.shape}, {args.segments} segments, "
        f"seed {args.seed}, loss {args.loss:.0%}, {args.flooders} flooders =="
    )
    campaign = Campaign(
        VuvuzelaConfig.small(seed=args.seed),
        shape=args.shape,
        seed=args.seed,
        ledger_path=ledger_path,
        rounds_per_segment=args.rounds,
        loss=args.loss,
        latency_seconds=args.latency_ms / 1000,
        jitter_seconds=args.jitter_ms / 1000,
        flood_attackers=args.flooders,
    )
    report = campaign.run(args.segments)
    print(report.summary())
    print(f"ledger           : {ledger_path} ({report.ledger_records} records)")

    if not report.ok:
        for violation in report.violations:
            print(f"VIOLATION [{violation.invariant}] {violation.detail}")
            if violation.slice_path:
                print(f"  replayable slice: {violation.slice_path}")
        return 1

    print(
        f"conditioner      : {report.link_stats.get('conditioned', 0)} conditioned, "
        f"{report.link_losses} submissions lost, "
        f"{report.link_stats.get('hold_seconds_total', 0.0):.3f}s held"
    )
    churn = ", ".join(f"{action} ×{n}" for action, n in sorted(report.churn.items()))
    print(f"churn            : {churn or 'none'}")
    for point in report.flood_points:
        print(
            f"flood round {point['round']:>4}: victim bucket load {point['load']} "
            f"vs baseline {point['baseline']:.1f}, "
            f"epsilon {point['epsilon']:.3f} after {point['rounds_used']} rounds"
        )

    view = load_ledger(ledger_path)
    by_type: dict[str, int] = {}
    for record in view:
        by_type[record.type] = by_type.get(record.type, 0) + 1
    print("record types     :", ", ".join(f"{k}×{v}" for k, v in sorted(by_type.items())))

    if not args.skip_replay:
        print(f"== replaying from the ledger alone (shape {args.shape}) ==")
        replay = (
            replay_ledger_over_tcp(ledger_path)
            if args.shape == "tcp"
            else replay_ledger(ledger_path)
        )
        print(replay.summary())
        if not replay.identical:
            print("REPLAY DIVERGED")
            return 1
        print("replay           : bit-identical (every observable matched)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
