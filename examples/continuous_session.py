"""Continuous operation over TCP: dial, accept, converse — overlapped.

This is the deployment story the paper describes, end to end over real
subprocess servers: two clients join a continuously running deployment,
alice dials bob in a dialing round, bob's client polls its invitation dead
drop (downloaded from the entry server, the paper's CDN front), auto-accepts
the call, and the two converse across several conversation rounds — all
driven by the :class:`~repro.runtime.RoundScheduler` with a dialing round
interleaved every 2 conversation rounds and ``pipeline_depth=2`` overlap
(a due dialing round mixes concurrently with the conversation round before
it).  A third client never talks to anyone: its fixed-size cover traffic is
indistinguishable from the conversation.

Run::

    PYTHONPATH=src python examples/continuous_session.py
    PYTHONPATH=src python examples/continuous_session.py --in-process
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import DeploymentLauncher, VuvuzelaConfig, VuvuzelaSystem  # noqa: E402

SEED = 31337
CONVERSATION_ROUNDS = 6
DIALING_INTERVAL = 2


def run(deployment_like, shape: str) -> None:
    alice = deployment_like.add_session(
        "alice", greetings=["the documents are ready", "meet at the drop point"]
    )
    bob = deployment_like.add_session("bob", greetings=["use the usual channel"])
    deployment_like.add_session("carol")  # pure cover traffic

    alice.dial(bob.client.public_key)
    print(f"[{shape}] alice dials bob; continuous schedule starts "
          f"({CONVERSATION_ROUNDS} conversation rounds, dialing every "
          f"{DIALING_INTERVAL}, pipeline_depth=2)")

    report = deployment_like.run_continuous(
        CONVERSATION_ROUNDS, dialing_interval=DIALING_INTERVAL, pipeline_depth=2
    )

    print(f"[{shape}] ran {len(report.conversation)} conversation + "
          f"{len(report.dialing)} dialing rounds in "
          f"{report.wall_clock_seconds:.2f}s "
          f"({report.rounds_per_second:.1f} rounds/s)")
    print(f"[{shape}] bob received invitations: {bob.invitations_received}, "
          f"conversations started: {bob.conversations_started}")

    bob_got = bob.client.messages_from(alice.client.public_key)
    alice_got = alice.client.messages_from(bob.client.public_key)
    print(f"[{shape}] bob   <- {bob_got}")
    print(f"[{shape}] alice <- {alice_got}")

    assert bob.invitations_received == 1, "bob must receive exactly one invitation"
    assert bob_got == [b"the documents are ready", b"meet at the drop point"]
    assert alice_got == [b"use the usual channel"]
    print(f"[{shape}] ok: invitation delivered, both greetings exchanged, "
          "cover traffic flowed every round")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--in-process",
        action="store_true",
        help="run the same session on the in-process system instead of TCP",
    )
    args = parser.parse_args()

    config = VuvuzelaConfig.small(seed=SEED)
    if args.in_process:
        with VuvuzelaSystem(config) as system:
            run(system, "in-process")
    else:
        with DeploymentLauncher(config, request_timeout=120.0) as deployment:
            run(deployment, "tcp")


if __name__ == "__main__":
    main()
