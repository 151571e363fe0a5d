"""Integration: the same scenario in-process and over localhost TCP sockets.

The deployment launcher spawns a real entry server and chain as subprocesses;
every process derives its keys and noise streams from the shared config seed,
so the two runs must produce *identical protocol outcomes*: the same
delivered plaintexts, the same refusals, and the same noise accounting.
These tests are the acceptance gate of the pluggable-transport refactor.
"""

from __future__ import annotations

import gc
import multiprocessing
import warnings

import pytest

from repro import DeploymentLauncher, VuvuzelaConfig, VuvuzelaSystem
from repro.core.deployment import NetworkRoundResult

SEED = 1311


def scenario_config(**overrides) -> VuvuzelaConfig:
    base = VuvuzelaConfig.small(seed=SEED)
    fields = base.to_dict()
    fields.update(overrides)
    return VuvuzelaConfig.from_dict(fields)


def run_in_process(config: VuvuzelaConfig) -> dict:
    """Dial, accept, exchange two conversation rounds; collect observables."""
    with VuvuzelaSystem(config) as system:
        alice = system.add_client("alice")
        bob = system.add_client("bob")
        carol = system.add_client("carol")
        if config.require_registration:
            system.entry.revoke_account("carol")  # carol never signed up

        alice.dial(bob.public_key)
        dial_metrics = system.run_dialing_round()
        calls = list(bob.incoming_calls)
        assert calls, "in-process dialing must deliver the invitation"
        bob.accept_call(calls[0])
        alice.start_conversation(bob.public_key)

        alice.send_message("the documents are ready")
        bob.send_message("use the usual channel")
        round_metrics = [system.run_conversation_round() for _ in range(2)]

        store = system.invitation_store(dial_metrics.round_number)
        return {
            "bob_received": bob.messages_from(alice.public_key),
            "alice_received": alice.messages_from(bob.public_key),
            "carol_received": list(carol.received),
            "carol_rounds_lost": carol.rounds_lost,
            "refused_total": system.refused_total(),
            "conversation_noise": [m.noise_requests for m in round_metrics],
            "histograms": [
                (m.histogram.singles, m.histogram.pairs, m.histogram.collisions)
                for m in round_metrics
            ],
            "bucket_sizes": store.bucket_sizes(),
            "dialing_noise_counts": {
                bucket: store.noise_count(bucket) for bucket in range(store.num_buckets)
            },
        }


def run_networked(config: VuvuzelaConfig) -> dict:
    """The identical scenario through subprocess servers over localhost TCP."""
    with DeploymentLauncher(config, request_timeout=120.0) as deployment:
        alice = deployment.add_client("alice")
        bob = deployment.add_client("bob")
        carol = deployment.add_client("carol", register=False)  # carol never signed up

        alice.client.dial(bob.client.public_key)
        dial_result = deployment.run_dialing_round()
        calls = list(bob.client.incoming_calls)
        assert calls, "networked dialing must deliver the invitation"
        bob.client.accept_call(calls[0])
        alice.client.start_conversation(bob.client.public_key)

        alice.client.send_message("the documents are ready")
        bob.client.send_message("use the usual channel")
        round_results: list[NetworkRoundResult] = [
            deployment.run_conversation_round() for _ in range(2)
        ]

        store = deployment.invitation_store(dial_result.round_number)
        return {
            "bob_received": bob.client.messages_from(alice.client.public_key),
            "alice_received": alice.client.messages_from(bob.client.public_key),
            "carol_received": list(carol.client.received),
            "carol_rounds_lost": carol.client.rounds_lost,
            "refused_total": deployment.refused_total(),
            "conversation_noise": [
                deployment.chain_noise("conversation", result.round_number)
                for result in round_results
            ],
            "histograms": [
                tuple(
                    deployment.access_histogram(result.round_number)[key]
                    for key in ("singles", "pairs", "collisions")
                )
                for result in round_results
            ],
            "bucket_sizes": store.bucket_sizes(),
            "dialing_noise_counts": {
                bucket: store.noise_count(bucket) for bucket in range(store.num_buckets)
            },
        }


@pytest.mark.parametrize("require_registration", [False, True])
def test_tcp_deployment_matches_in_process(require_registration):
    """Delivered plaintexts, refusals and noise accounting are transport-invariant."""
    config = scenario_config(require_registration=require_registration)
    local = run_in_process(config)
    networked = run_networked(config)

    assert networked["bob_received"] == local["bob_received"] == [b"the documents are ready"]
    assert networked["alice_received"] == local["alice_received"] == [b"use the usual channel"]
    assert networked["carol_received"] == local["carol_received"] == []
    assert networked["conversation_noise"] == local["conversation_noise"]
    assert networked["histograms"] == local["histograms"]
    assert networked["bucket_sizes"] == local["bucket_sizes"]
    assert networked["dialing_noise_counts"] == local["dialing_noise_counts"]
    if require_registration:
        # Carol is refused once per protocol round: 1 dialing + 2 conversation.
        assert networked["refused_total"] == local["refused_total"] == 3
        assert networked["carol_rounds_lost"] == local["carol_rounds_lost"] == 3
    else:
        assert networked["refused_total"] == local["refused_total"] == 0


def test_straggler_is_refused_and_retransmits():
    """A client that misses the submission window is refused, counted, and
    its message survives to the next round (§3.1 retransmission)."""
    config = scenario_config()
    with DeploymentLauncher(config, request_timeout=120.0) as deployment:
        alice = deployment.add_client("alice")
        bob = deployment.add_client("bob")
        straggler = deployment.add_client("dave")

        alice.client.start_conversation(bob.client.public_key)
        bob.client.start_conversation(alice.client.public_key)
        # Dave and Erin are in a conversation; Erin shows up every round.
        erin = deployment.add_client("erin")
        straggler.client.start_conversation(erin.client.public_key)
        erin.client.start_conversation(straggler.client.public_key)
        straggler.client.send_message("fashionably late")

        # Round 0 closes as soon as the on-time clients have submitted; dave
        # deliberately submits only after the round has resolved.
        result = deployment.run_conversation_round([alice, bob, erin])
        responses = straggler.run_conversation_round(result.round_number)
        assert responses == [None]
        assert straggler.late_rounds == 1
        assert straggler.client.rounds_lost == 1
        assert deployment.late_total() == 1
        late_result = deployment.control(
            "entry",
            {"cmd": "round-result", "protocol": "conversation", "round": result.round_number},
        )
        assert late_result["late"] == 1

        # Next round everyone is on time and the queued message lands.
        deployment.run_conversation_round([alice, bob, erin, straggler])
        assert erin.client.messages_from(straggler.client.public_key) == [b"fashionably late"]


def test_deadline_closes_an_empty_round():
    """A round with no submissions resolves at its deadline, not never."""
    config = scenario_config()
    with DeploymentLauncher(config, request_timeout=60.0) as deployment:
        opened = deployment.control(
            "entry", {"cmd": "open-round", "protocol": "conversation", "deadline": 0.2}
        )
        result = deployment.control(
            "entry",
            {"cmd": "round-result", "protocol": "conversation", "round": opened["round"],
             "wait": 30.0},
        )
        assert result["accepted"] == 0
        assert result["responded"] == 0


def test_stop_closes_every_server_pipe():
    """A kill, a restart and a stop leave no server stdout pipe open — so
    nothing is left for the garbage collector to warn about."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        deployment = DeploymentLauncher(scenario_config()).start()
        try:
            killed = deployment.kill_server(1).process
            deployment.restart_server(1)
            spawned = [server.process for server in deployment._spawned] + [killed]
        finally:
            deployment.stop()
        assert len(spawned) == 5
        assert all(process.stdout.closed for process in spawned)
        assert multiprocessing.active_children() == []
        del deployment, spawned, killed
        gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []
