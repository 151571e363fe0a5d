"""Fault tolerance: kill-mid-round, abort/retry, crash recovery, partitions.

The paper's availability model (§6) is that any server can fail and the
system aborts the round and runs it again — clients simply see a lost round
unless the retry succeeds.  These tests drive that story in both deployment
shapes: deterministic fault injection on the in-process
:class:`~repro.net.transport.Network`, and real SIGKILLed server processes /
injected link faults on the multi-process TCP deployment.  The common
acceptance bar: an aborted round, a successful automatic re-run, every
accepted message delivered exactly once, and noise/refusal accounting
intact.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import DeploymentLauncher, VuvuzelaConfig, VuvuzelaSystem
from repro.errors import NetworkError
from repro.net import FaultInjector

SEED = 4242


def scenario_config(**overrides) -> VuvuzelaConfig:
    base = VuvuzelaConfig.small(seed=SEED)
    fields = base.to_dict()
    fields.update(overrides)
    return VuvuzelaConfig.from_dict(fields)


def converse(system, alice_name="alice", bob_name="bob"):
    alice, bob = system.add_client(alice_name), system.add_client(bob_name)
    alice.start_conversation(bob.public_key)
    bob.start_conversation(alice.public_key)
    return alice, bob


class TestInProcessKillMidRound:
    def test_killed_hop_aborts_and_the_retry_delivers_exactly_once(self):
        with VuvuzelaSystem(scenario_config()) as system:
            alice, bob = converse(system)
            alice.send_message("through the crash")
            # The first batch forwarded from server 0 to server 1 dies — a
            # chain server crashing mid-round — then the link heals.
            system.fault_injector(seed=1).kill_link(
                source="server-0/conversation",
                destination="server-1/conversation",
                count=1,
            )
            metrics = system.run_conversation_round()
            assert metrics.aborted_attempts == 1
            assert system.coordinator.rounds_run == 1
            assert system.coordinator.rounds_aborted == 1
            assert bob.messages_from(alice.public_key) == [b"through the crash"]
            assert bob.duplicates_suppressed == 0  # exactly once
            # Noise accounting reflects only the attempt that ran to the end.
            assert metrics.noise_requests > 0
            assert metrics.histogram is not None and metrics.histogram.pairs >= 1

    def test_killed_dialing_hop_delivers_the_invitation_once(self):
        with VuvuzelaSystem(scenario_config()) as system:
            alice = system.add_client("alice")
            bob = system.add_client("bob")
            alice.dial(bob.public_key)
            system.fault_injector(seed=2).kill_link(
                source="server-0/dialing", destination="server-1/dialing", count=1
            )
            metrics = system.run_dialing_round()
            assert metrics.aborted_attempts == 1
            assert len(bob.incoming_calls) == 1
            assert metrics.noise_invitations > 0

    def test_refusal_accounting_survives_an_abort(self):
        with VuvuzelaSystem(scenario_config(require_registration=True)) as system:
            alice, bob = converse(system)
            carol = system.add_client("carol")
            system.entry.revoke_account("carol")
            alice.send_message("registered traffic only")
            system.fault_injector(seed=3).kill_link(
                source="server-0/conversation",
                destination="server-1/conversation",
                count=1,
            )
            metrics = system.run_conversation_round()
            assert metrics.aborted_attempts == 1
            assert metrics.refused_requests == 1  # carol, counted once not twice
            assert system.entry.refused_requests == 1
            assert bob.messages_from(alice.public_key) == [b"registered traffic only"]
            assert carol.rounds_lost == 1

    def test_exhausted_retries_fail_the_round_and_the_next_recovers(self):
        with VuvuzelaSystem(scenario_config(max_round_attempts=2)) as system:
            alice, bob = converse(system)
            alice.send_message("eventually")
            injector = system.fault_injector(seed=4)
            rule = injector.kill_link(
                source="server-0/conversation", destination="server-1/conversation"
            )
            with pytest.raises(NetworkError):
                system.run_conversation_round()
            assert system.coordinator.rounds_aborted == 1
            assert system.metrics.conversation_rounds == []  # nothing recorded
            injector.heal(rule)
            # The client saw nothing resolve, so its message is still queued
            # and the next round delivers it (§3.1 retransmission).
            metrics = system.run_conversation_round()
            assert metrics.aborted_attempts == 0
            assert bob.messages_from(alice.public_key) == [b"eventually"]
            assert bob.duplicates_suppressed == 0

    def test_seeded_drop_chaos_is_deterministic(self):
        def run() -> tuple[int, int, list[bytes]]:
            with VuvuzelaSystem(scenario_config()) as system:
                alice, bob = converse(system)
                alice.send_message("maybe")
                injector = system.fault_injector(seed=99)
                injector.drop(
                    destination="entry", probability=0.5, kind=None
                )
                lost = 0
                for _ in range(3):
                    metrics = system.run_conversation_round()
                    lost += metrics.lost_requests
                return lost, injector.dropped, bob.messages_from(alice.public_key)

        assert run() == run()

    def test_killed_hop_round_is_reproducible(self):
        """Abort and retry are deterministic: the same seed and the same kill
        give the same ledger record, and the retry's noise comes from a fork
        of its own, not the aborted attempt's."""

        def run(kill: bool) -> dict:
            with VuvuzelaSystem(scenario_config()) as system:
                alice, bob = converse(system)
                alice.send_message("through the crash")
                if kill:
                    system.fault_injector(seed=1).kill_link(
                        source="server-0/conversation",
                        destination="server-1/conversation",
                        count=1,
                    )
                metrics = system.run_conversation_round()
                assert bob.messages_from(alice.public_key) == [b"through the crash"]
                return system._ledger_round_record(
                    system.protocols["conversation"], metrics
                )

        faulted = run(kill=True)
        assert faulted["aborted_attempts"] == 1
        assert run(kill=True) == faulted
        assert run(kill=False)["noise"] != faulted["noise"]


class TestNetworkedPartition:
    def test_injected_link_kill_aborts_and_recovers_over_tcp(self):
        """A one-shot partition between chain hops: the round aborts, the
        clients resubmit, the automatic re-run delivers exactly once."""
        config = scenario_config(round_deadline_seconds=10.0)
        with DeploymentLauncher(config) as deployment:
            alice = deployment.add_client("alice")
            bob = deployment.add_client("bob")
            alice.client.start_conversation(bob.client.public_key)
            bob.client.start_conversation(alice.client.public_key)
            alice.client.send_message("across the partition")

            deployment.inject_fault(
                0,
                {
                    "action": "kill",
                    "destination": "server-1/conversation",
                    "count": 1,
                },
            )
            result = deployment.run_conversation_round([alice, bob])
            assert result.aborts == 1
            assert result.accepted == 2
            assert result.responded == 2
            assert deployment.aborted_total() == 1
            assert alice.aborted_replies == 1 and bob.aborted_replies == 1
            assert alice.resubmissions == 1 and bob.resubmissions == 1
            assert bob.client.messages_from(alice.client.public_key) == [
                b"across the partition"
            ]
            assert bob.client.duplicates_suppressed == 0
            # Noise accounting for the round reflects the successful re-run.
            assert deployment.chain_noise("conversation", result.round_number) > 0

            # A follow-up round is clean: the fault rule expired.
            follow_up = deployment.run_conversation_round([alice, bob])
            assert follow_up.aborts == 0

    def test_networked_faulted_round_matches_in_process_retry(self):
        """The same kill-then-retry round in both deployment shapes lands on
        the same noise accounting and plaintexts: each chain server draws
        attempt 2's material from the same per-(round, attempt) fork."""
        with VuvuzelaSystem(scenario_config()) as system:
            alice, bob = converse(system)
            alice.send_message("through the crash")
            system.fault_injector(seed=1).kill_link(
                source="server-0/conversation",
                destination="server-1/conversation",
                count=1,
            )
            metrics = system.run_conversation_round()
            assert metrics.aborted_attempts == 1
            in_process_messages = bob.messages_from(alice.public_key)
        assert in_process_messages == [b"through the crash"]

        with DeploymentLauncher(scenario_config(round_deadline_seconds=10.0)) as deployment:
            alice = deployment.add_client("alice")
            bob = deployment.add_client("bob")
            alice.client.start_conversation(bob.client.public_key)
            bob.client.start_conversation(alice.client.public_key)
            alice.client.send_message("through the crash")
            deployment.inject_fault(
                0, {"action": "kill", "destination": "server-1/conversation", "count": 1}
            )
            result = deployment.run_conversation_round([alice, bob])
            assert result.aborts == 1
            assert (
                deployment.chain_noise("conversation", result.round_number)
                == metrics.noise_requests
            )
            assert bob.client.messages_from(alice.client.public_key) == in_process_messages

    def test_injected_link_kill_aborts_and_recovers_a_dialing_round(self):
        """Satellite: dialing rounds ride the same abort/retry pipeline over
        TCP — a killed dialing hop refunds, re-runs, and the invitation is
        still delivered exactly once."""
        config = scenario_config(round_deadline_seconds=10.0)
        with DeploymentLauncher(config) as deployment:
            alice = deployment.add_client("alice")
            bob = deployment.add_client("bob")
            alice.client.dial(bob.client.public_key)
            deployment.inject_fault(
                0,
                {
                    "action": "kill",
                    "destination": "server-1/dialing",
                    "count": 1,
                },
            )
            result = deployment.run_dialing_round([alice, bob])
            assert result.protocol == "dialing"
            assert result.aborts == 1
            assert result.accepted == 2
            assert deployment.aborted_total() == 1
            assert alice.aborted_replies == 1 and bob.aborted_replies == 1
            assert len(bob.client.incoming_calls) == 1  # exactly once
            # The retried round still carries dialing cover traffic.
            assert deployment.chain_noise("dialing", result.round_number) > 0

    def test_dialing_straggler_is_refused_late_over_tcp(self):
        """Satellite: a dialing submission past its window gets the same
        LATE treatment as a conversation straggler."""
        config = scenario_config()
        with DeploymentLauncher(config, request_timeout=120.0) as deployment:
            alice = deployment.add_client("alice")
            bob = deployment.add_client("bob")
            dave = deployment.add_client("dave")
            alice.client.dial(bob.client.public_key)
            result = deployment.run_dialing_round([alice, bob])
            # Dave submits his dialing request only after the round resolved.
            dave.run_dialing_round(result.round_number, config.num_dialing_buckets)
            assert dave.late_rounds == 1
            assert dave.client.rounds_lost == 1
            assert deployment.late_total() == 1
            late_result = deployment.wait_round("dialing", result.round_number)
            assert late_result["late"] == 1

    def test_entry_side_drop_aborts_and_recovers(self):
        config = scenario_config(round_deadline_seconds=10.0)
        with DeploymentLauncher(config) as deployment:
            alice = deployment.add_client("alice")
            bob = deployment.add_client("bob")
            alice.client.start_conversation(bob.client.public_key)
            bob.client.start_conversation(alice.client.public_key)
            bob.client.send_message("lost batch, kept messages")
            deployment.inject_fault(
                "entry",
                {
                    "action": "drop",
                    "destination": "server-0/conversation",
                    "count": 1,
                },
            )
            result = deployment.run_conversation_round([alice, bob])
            assert result.aborts == 1
            assert alice.client.messages_from(bob.client.public_key) == [
                b"lost batch, kept messages"
            ]


class TestNetworkedKillAndRestart:
    def test_kill_mid_round_then_restart_recovers_the_same_round(self):
        """SIGKILL a chain server while a round is in flight; restart it; the
        coordinator's retries pick the round back up and it completes."""
        config = scenario_config(round_deadline_seconds=10.0, max_round_attempts=8)
        with DeploymentLauncher(config) as deployment:
            alice = deployment.add_client(
                "alice", max_submit_attempts=8, retry_backoff_seconds=0.4
            )
            bob = deployment.add_client(
                "bob", max_submit_attempts=8, retry_backoff_seconds=0.4
            )
            alice.client.start_conversation(bob.client.public_key)
            bob.client.start_conversation(alice.client.public_key)
            # A clean warm-up round so every inter-server connection exists
            # (the crash must also invalidate pooled connections).
            deployment.run_conversation_round([alice, bob])

            alice.client.send_message("survives the crash")
            victim = deployment.kill_server(1)
            assert not victim.alive
            assert deployment.is_alive(1) is False

            results: list = []
            aborted_before = deployment.aborted_total()

            def drive() -> None:
                results.append(deployment.run_conversation_round([alice, bob]))

            driver = threading.Thread(target=drive)
            driver.start()
            # Wait until the coordinator has aborted at least one attempt of
            # the in-flight round — the kill landed mid-round — then bring
            # the server back.
            deadline = time.monotonic() + 30.0
            while deployment.aborted_total() <= aborted_before:
                assert time.monotonic() < deadline, "the round never aborted"
                time.sleep(0.05)
            deployment.restart_server(1)
            assert deployment.wait_alive(1, timeout=30.0)
            driver.join(timeout=60.0)
            assert not driver.is_alive()

            result = results[0]
            assert result.aborts >= 1
            assert result.accepted == 2
            assert result.responded == 2
            assert bob.client.messages_from(alice.client.public_key) == [
                b"survives the crash"
            ]
            assert bob.client.duplicates_suppressed == 0  # exactly once
            # The restarted server rejoined the same topology: another full
            # round (with noise from the reseeded streams) works end to end.
            follow_up = deployment.run_conversation_round([alice, bob])
            assert follow_up.aborts == 0
            assert deployment.chain_noise("conversation", follow_up.round_number) > 0
            assert deployment.poll_liveness() == {
                "server-0": True,
                "server-1": True,
                "server-2": True,
                "entry": True,
            }


class TestNetworkedFaultRulePersistence:
    def test_injected_rules_survive_restart_server(self):
        """Regression: a respawned server process starts with an empty fault
        injector, so without re-injection a SIGKILL+restart silently erased
        the scenario's remaining chaos rules.  The fault schedule is
        deployment state — the launcher must re-ship active rules."""
        config = scenario_config(round_deadline_seconds=10.0, max_round_attempts=8)
        with DeploymentLauncher(config) as deployment:
            alice = deployment.add_client("alice", retry_backoff_seconds=0.4)
            bob = deployment.add_client("bob", retry_backoff_seconds=0.4)
            alice.client.start_conversation(bob.client.public_key)
            bob.client.start_conversation(alice.client.public_key)
            deployment.run_conversation_round([alice, bob])  # warm-up

            # The rule lives in server 1's injector and would kill its first
            # forward to server 2 — but server 1 is SIGKILLed before any
            # round lets the rule fire.
            deployment.inject_fault(
                1,
                {
                    "action": "kill",
                    "destination": "server-2/conversation",
                    "count": 1,
                },
            )
            deployment.kill_server(1)
            deployment.restart_server(1)
            assert deployment.wait_alive(1, timeout=30.0)
            # A dialing round first: it reconnects every stale pooled socket
            # to the respawned process (aborting and retrying as needed), so
            # the conversation round below aborts for exactly one reason —
            # the re-injected conversation-hop rule.
            deployment.run_dialing_round([alice, bob])

            alice.client.send_message("after the respawn")
            result = deployment.run_conversation_round([alice, bob])
            # The re-injected rule fired exactly once: the round aborted and
            # the automatic retry delivered.
            assert result.aborts == 1
            assert bob.client.messages_from(alice.client.public_key) == [
                b"after the respawn"
            ]

            # Healed rules must NOT be resurrected by a later restart.
            deployment.heal_faults(1)
            deployment.kill_server(1)
            deployment.restart_server(1)
            assert deployment.wait_alive(1, timeout=30.0)
            deployment.run_dialing_round([alice, bob])  # flush stale pools
            follow_up = deployment.run_conversation_round([alice, bob])
            assert follow_up.aborts == 0


class TestLauncherLifecycle:
    def test_stop_then_start_spawns_a_fresh_deployment(self):
        """Regression: stop() never reset _started, so a stopped launcher's
        start() silently no-oped and returned a dead deployment."""
        config = scenario_config(round_deadline_seconds=10.0)
        launcher = DeploymentLauncher(config)
        try:
            launcher.start()
            first_entry_port = launcher.entry_process.port
            launcher.add_client("alice")
            launcher.stop()
            assert launcher.entry_process is None
            launcher.start()
            assert launcher.entry_process is not None
            assert launcher.entry_process.alive
            # Clients were torn down with the old deployment; re-add.
            alice = launcher.add_client("alice")
            bob = launcher.add_client("bob")
            alice.client.start_conversation(bob.client.public_key)
            bob.client.start_conversation(alice.client.public_key)
            alice.client.send_message("second life")
            result = launcher.run_conversation_round([alice, bob])
            assert result.responded == 2
            assert bob.client.messages_from(alice.client.public_key) == [b"second life"]
            assert first_entry_port  # the old port existed; no assertion on reuse
            # The entry holds runtime-only state (accounts, round counters):
            # an in-place respawn would silently lose it, so it is refused.
            from repro.errors import ProtocolError

            with pytest.raises(ProtocolError, match="entry process cannot be restarted"):
                launcher.restart_server("entry")
        finally:
            launcher.stop()
        launcher.stop()  # stop is re-entrant on an already-stopped launcher

    def test_stop_with_a_crashed_server_is_clean(self):
        config = scenario_config()
        launcher = DeploymentLauncher(config).start()
        launcher.kill_server(2)
        launcher.stop()  # must neither hang nor raise
        assert launcher.servers == []

    def test_client_timeout_is_derived_from_round_knobs(self):
        """Regression: a client transport timeout shorter than deadline +
        response hold caused spurious TransportTimeouts mid-long-poll."""
        config = scenario_config(
            round_deadline_seconds=30.0, hop_timeout_seconds=20.0, response_wait_seconds=60.0
        )
        launcher = DeploymentLauncher(config)  # construction spawns nothing
        expected = 60.0 + 30.0 + 20.0 * config.num_servers + 5.0
        assert launcher.request_timeout == expected
        assert config.client_request_timeout_seconds == expected
        # An explicit override still wins.
        assert DeploymentLauncher(config, request_timeout=7.0).request_timeout == 7.0


class TestClientConnectionResilience:
    def test_permanent_round_failure_is_a_lost_round_not_a_crash(self):
        """Regression: a ProtocolError reply (retry budget exhausted at the
        coordinator) used to escape _submit and crash the round driver."""
        from repro.client import ClientConnection
        from repro.core import topology
        from repro.errors import ProtocolError

        config = scenario_config()
        root = topology.root_rng(config)
        publics = [kp.public for kp in topology.server_keypairs(config, root)]
        client = topology.build_client(config, "alice", root, publics)
        client.start_conversation(publics[0])  # any peer key works here

        class FailingTransport:
            def send(self, *args, **kwargs):
                raise ProtocolError("round 0 failed: the chain is gone")

        connection = ClientConnection(client=client, transport=FailingTransport())
        responses = connection.run_conversation_round(0)
        assert responses == [None]
        assert connection.failed_rounds == 1
        assert connection.resubmissions == 0  # a dead round is not retried
        assert client.rounds_lost == 1

    def test_transport_failures_are_retried_then_surface_as_lost(self):
        from repro.client import ClientConnection
        from repro.core import topology

        config = scenario_config()
        root = topology.root_rng(config)
        publics = [kp.public for kp in topology.server_keypairs(config, root)]
        client = topology.build_client(config, "bob", root, publics)
        client.start_conversation(publics[0])

        class FlakyTransport:
            def __init__(self):
                self.calls = 0

            def send(self, *args, **kwargs):
                self.calls += 1
                raise NetworkError("entry is restarting")

        transport = FlakyTransport()
        connection = ClientConnection(
            client=client,
            transport=transport,
            max_submit_attempts=3,
            retry_backoff_seconds=0.01,
        )
        assert connection.run_conversation_round(0) == [None]
        assert transport.calls == 3  # every attempt reconnected and retried
        assert connection.reconnects == 3
        assert client.rounds_lost == 1


class TestFaultInjectorUnit:
    def test_bounded_rules_expire(self):
        from repro.net import Envelope

        injector = FaultInjector(seed=0)
        injector.drop(destination="entry", count=2)
        envelope = Envelope(source="a", destination="entry", payload=b"x")
        assert injector.before_send(envelope) == "drop"
        assert injector.before_send(envelope) == "drop"
        assert injector.before_send(envelope) == "deliver"
        assert injector.dropped == 2
        assert injector.active_rules() == []

    def test_rule_roundtrips_through_json_form(self):
        from repro.net import FaultRule, MessageKind

        rule = FaultRule(
            action="delay",
            source="server-0/conversation",
            destination="server-1/conversation",
            kind=MessageKind.CONVERSATION_REQUEST,
            probability=0.25,
            count=3,
            delay_seconds=0.5,
        )
        clone = FaultRule.from_dict(rule.to_dict())
        assert clone == rule

    def test_reseeding_an_existing_injector_is_refused(self):
        from repro import VuvuzelaSystem
        from repro.errors import ProtocolError

        with VuvuzelaSystem(scenario_config()) as system:
            first = system.fault_injector(seed=1)
            assert system.fault_injector(seed=1) is first  # same seed: fine
            with pytest.raises(ProtocolError, match="cannot reseed"):
                system.fault_injector(seed=2)

    def test_delay_rule_reports_stall_without_sleeping(self):
        # The injector *decides* the stall; the transport routes it through
        # the link conditioner's scheduling.  Deciding must never sleep —
        # that is the fix for delay rules serializing an overlapped drive.
        from repro.net import Envelope

        injector = FaultInjector()
        injector.delay(0.15, destination="entry", count=1)
        envelope = Envelope(source="a", destination="entry", payload=b"x")
        started = time.perf_counter()
        verdict, stall = injector.decide(envelope)
        assert time.perf_counter() - started < 0.1
        assert (verdict, stall) == ("deliver", 0.15)
        assert injector.delayed == 1

    def test_delay_rule_stall_is_applied_by_the_transport(self):
        from repro.net import Envelope, Network

        network = Network()
        network.register("entry", lambda envelope: b"ok")
        network.fault_injector = FaultInjector()
        network.fault_injector.delay(0.12, destination="entry", count=1)
        started = time.perf_counter()
        assert network.send("a", "entry", b"x") == b"ok"
        assert time.perf_counter() - started >= 0.11
        # The second send matches no rule (count=1 expired) and is instant.
        started = time.perf_counter()
        assert network.send("a", "entry", b"x") == b"ok"
        assert time.perf_counter() - started < 0.1
