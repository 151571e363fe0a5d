"""Chaos engineering on a Vuvuzela deployment: kill a server mid-round.

The paper's availability model (§6) is blunt: any server can fail; the
system aborts the round and runs the next one.  This example makes that
story concrete in both deployment shapes:

1. **In-process**: a seeded :class:`~repro.net.LinkRule` kills the link
   between chain servers 0 and 1 for exactly one batch.  The round aborts,
   the coordinator refunds the accepted submissions and re-runs the round
   with fresh noise — the message still arrives, exactly once.
2. **Networked** (``--networked``): a real chain-server subprocess is
   SIGKILLed, the round aborts over TCP, the server is restarted from the
   same seeded topology, and the clients' idempotent resubmissions complete
   the same round.

Run it::

    PYTHONPATH=src python examples/chaos_round.py
    PYTHONPATH=src python examples/chaos_round.py --networked
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import DeploymentLauncher, VuvuzelaConfig, VuvuzelaSystem  # noqa: E402
from repro.net import LinkRule  # noqa: E402

SEED = 1337


def in_process_chaos() -> None:
    print("== in-process: kill the server-0 -> server-1 link for one batch ==")
    with VuvuzelaSystem(VuvuzelaConfig.small(seed=SEED)) as system:
        alice, bob = system.add_client("alice"), system.add_client("bob")
        alice.start_conversation(bob.public_key)
        bob.start_conversation(alice.public_key)
        alice.send_message("the round that refused to die")

        system.add_link_rule(
            0,
            LinkRule(
                action="kill",
                source="server-0/conversation",
                destination="server-1/conversation",
                count=1,
            ),
            seed=SEED,
        )
        metrics = system.run_conversation_round()
        print(f"aborted attempts : {metrics.aborted_attempts}")
        print(f"noise requests   : {metrics.noise_requests} (fresh noise on the re-run)")
        print(f"bob received     : {bob.messages_from(alice.public_key)}")
        print(f"duplicates       : {bob.duplicates_suppressed} (exactly-once held)")
        assert metrics.aborted_attempts == 1
        assert bob.messages_from(alice.public_key) == [b"the round that refused to die"]


def networked_chaos() -> None:
    print("== networked: SIGKILL chain server 1, restart, finish the round ==")
    config = VuvuzelaConfig.small(seed=SEED)
    fields = config.to_dict()
    fields.update(round_deadline_seconds=10.0, max_round_attempts=8)
    config = VuvuzelaConfig.from_dict(fields)
    with DeploymentLauncher(config) as deployment:
        alice = deployment.add_client("alice", retry_backoff_seconds=0.4)
        bob = deployment.add_client("bob", retry_backoff_seconds=0.4)
        alice.client.start_conversation(bob.client.public_key)
        bob.client.start_conversation(alice.client.public_key)
        deployment.run_conversation_round([alice, bob])  # warm-up

        alice.client.send_message("delivered across a crash")
        deployment.kill_server(1)
        print(f"liveness after kill : {deployment.poll_liveness()}")
        deployment.restart_server(1)
        deployment.wait_alive(1)
        result = deployment.run_conversation_round([alice, bob])
        print(f"round aborts        : {result.aborts}")
        print(f"responded           : {result.responded}")
        print(f"bob received        : {bob.client.messages_from(alice.client.public_key)}")
        print(f"liveness after heal : {deployment.poll_liveness()}")
        assert bob.client.messages_from(alice.client.public_key) == [
            b"delivered across a crash"
        ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--networked",
        action="store_true",
        help="also run the subprocess/TCP kill-and-restart scenario",
    )
    args = parser.parse_args()
    in_process_chaos()
    if args.networked:
        print()
        networked_chaos()
    print("\nchaos survived: rounds aborted, retried, and delivered exactly once")


if __name__ == "__main__":
    main()
