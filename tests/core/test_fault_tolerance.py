"""Fault tolerance: kill-mid-round, abort/retry, crash recovery, partitions.

The paper's availability model (§6) is that any server can fail and the
system aborts the round and runs it again — clients simply see a lost round
unless the retry succeeds.  These tests drive that story in both deployment
shapes: deterministic link rules on the in-process
:class:`~repro.net.transport.Network`, and real SIGKILLed server processes /
shipped link rules on the multi-process TCP deployment.  The common
acceptance bar: an aborted round, a successful automatic re-run, every
accepted message delivered exactly once, and noise/refusal accounting
intact.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import DeploymentLauncher, VuvuzelaConfig, VuvuzelaSystem
from repro.errors import NetworkError, ProtocolError
from repro.net import LinkConditioner, LinkRule

SEED = 4242


def scenario_config(**overrides) -> VuvuzelaConfig:
    base = VuvuzelaConfig.small(seed=SEED)
    fields = base.to_dict()
    fields.update(overrides)
    return VuvuzelaConfig.from_dict(fields)


def kill_hop(protocol: str = "conversation", count: int | None = 1) -> LinkRule:
    """Kill the batches chain server 0 forwards to server 1: a mid-round crash."""
    return LinkRule(
        action="kill",
        source=f"server-0/{protocol}",
        destination=f"server-1/{protocol}",
        count=count,
    )


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
            system.add_link_rule(0, kill_hop(), seed=1)
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
            system.add_link_rule(0, kill_hop("dialing"), seed=2)
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
            system.add_link_rule(0, kill_hop(), seed=3)
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
            system.add_link_rule(0, kill_hop(count=None), seed=4)
            with pytest.raises(NetworkError):
                system.run_conversation_round()
            assert system.coordinator.rounds_aborted == 1
            assert system.conversation_accountant.rounds_used == 0  # nothing resolved
            system.heal_links(0)
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
                system.add_link_rule(
                    "clients",
                    LinkRule(action="drop", destination="entry", probability=0.5, kind=None),
                    seed=99,
                )
                lost = 0
                for _ in range(3):
                    metrics = system.run_conversation_round()
                    lost += metrics.lost_requests
                dropped = system.link_stats()["lost"]
                return lost, dropped, bob.messages_from(alice.public_key)

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
                    system.add_link_rule(0, kill_hop(), seed=1)
                metrics = system.run_conversation_round()
                assert bob.messages_from(alice.public_key) == [b"through the crash"]
                return system._ledger_round_record(
                    system.protocols["conversation"], metrics
                )

        faulted = run(kill=True)
        assert faulted["aborted_attempts"] == 1
        assert run(kill=True) == faulted
        assert run(kill=False)["noise"] != faulted["noise"]


class TestOverlapDeterminism:
    """Link-rule draws are keyed on each message's identity and ``count`` on
    round-ordered chain traffic, so an overlapped schedule decides exactly
    what a serial one does."""

    @staticmethod
    def _pair(system):
        alice = system.add_session("alice")
        system.add_session("bob")
        alice.dial(system.client("bob").public_key)
        return alice, system.client("bob")

    def test_probabilistic_drop_is_identical_at_depth_one_and_two(self):
        def run(depth: int):
            with VuvuzelaSystem(scenario_config()) as system:
                alice, bob = self._pair(system)
                for index in range(4):
                    alice.say(f"overlap-{index}")
                system.add_link_rule(
                    "clients",
                    LinkRule(action="drop", destination="entry", probability=0.3),
                    seed=2,
                )
                system.run_continuous(8, dialing_interval=2, pipeline_depth=depth)
                received = [message.body for message in bob.received]
                return system.link_stats()["lost"], received, system.ledger_client_digests()

        serial = run(1)
        assert serial[0] > 0 and serial[1]  # the rule bit, and mail still got through
        assert run(2) == serial

    def test_one_kill_per_protocol_under_overlap(self):
        with VuvuzelaSystem(scenario_config()) as system:
            alice, bob = self._pair(system)
            alice.say("through both crashes")
            system.add_link_rule(0, kill_hop(), seed=1)
            system.add_link_rule(0, kill_hop("dialing"), seed=1)
            schedule = system.run_continuous(4, dialing_interval=2, pipeline_depth=2)
        aborts = {
            protocol: sum(metrics.aborted_attempts for metrics in getattr(schedule, protocol))
            for protocol in ("conversation", "dialing")
        }
        assert aborts == {"conversation": 1, "dialing": 1}
        assert [message.body for message in bob.received] == [b"through both crashes"]
        assert bob.duplicates_suppressed == 0
        assert len(bob.incoming_calls) == 1


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

            deployment.add_link_rule(
                0,
                LinkRule(action="kill", destination="server-1/conversation", count=1),
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
            system.add_link_rule(0, kill_hop(), seed=1)
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
            deployment.add_link_rule(
                0, LinkRule(action="kill", destination="server-1/conversation", count=1)
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
            deployment.add_link_rule(
                0,
                LinkRule(action="kill", destination="server-1/dialing", count=1),
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
            late_result = deployment.control(
                "entry",
                {"cmd": "round-result", "protocol": "dialing", "round": result.round_number},
            )
            assert late_result["late"] == 1

    def test_entry_side_drop_aborts_and_recovers(self):
        config = scenario_config(round_deadline_seconds=10.0)
        with DeploymentLauncher(config) as deployment:
            alice = deployment.add_client("alice")
            bob = deployment.add_client("bob")
            alice.client.start_conversation(bob.client.public_key)
            bob.client.start_conversation(alice.client.public_key)
            bob.client.send_message("lost batch, kept messages")
            deployment.add_link_rule(
                "entry",
                LinkRule(action="drop", destination="server-0/conversation", count=1),
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


class TestNetworkedLinkRulePersistence:
    def test_injected_rules_survive_restart_server(self):
        """Regression: a respawned server process starts with no link rules,
        so without re-shipping a SIGKILL+restart silently erased the
        scenario's remaining chaos rules.  The fault schedule is deployment
        state — the launcher must re-ship active rules."""
        config = scenario_config(round_deadline_seconds=10.0, max_round_attempts=8)
        with DeploymentLauncher(config) as deployment:
            alice = deployment.add_client("alice", retry_backoff_seconds=0.4)
            bob = deployment.add_client("bob", retry_backoff_seconds=0.4)
            alice.client.start_conversation(bob.client.public_key)
            bob.client.start_conversation(alice.client.public_key)
            deployment.run_conversation_round([alice, bob])  # warm-up

            # The rule lives in server 1's conditioner and would kill its first
            # forward to server 2 — but server 1 is SIGKILLed before any
            # round lets the rule fire.
            deployment.add_link_rule(
                1,
                LinkRule(action="kill", destination="server-2/conversation", count=1),
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
            deployment.heal_links(1)
            deployment.kill_server(1)
            deployment.restart_server(1)
            assert deployment.wait_alive(1, timeout=30.0)
            deployment.run_dialing_round([alice, bob])  # flush stale pools
            follow_up = deployment.run_conversation_round([alice, bob])
            assert follow_up.aborts == 0


    def test_malformed_rule_is_refused_with_a_typed_error(self):
        """A bad rule comes back to the launcher as a ProtocolError naming
        the rule, not through the transport's ``handler failed`` catch-all,
        and installs nothing."""
        command = {"cmd": "add-link-rule", "rule": {"action": "kill", "kind": "bogus"}}
        with DeploymentLauncher(scenario_config()) as deployment:
            for role in ("entry", "server-0"):
                with pytest.raises(ProtocolError, match="malformed link rule"):
                    deployment.control(role, command)
                assert deployment.control(role, {"cmd": "link-stats"})["rules"] == 0


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


class TestLinkRuleUnit:
    def test_bounded_rules_expire(self):
        from repro.net import Envelope, MessageKind

        conditioner = LinkConditioner(seed=0)
        conditioner.add_rule(LinkRule(action="drop", destination="entry", count=2))
        envelope = Envelope(
            source="a", destination="entry", payload=b"x",
            kind=MessageKind.CONVERSATION_REQUEST,
        )
        assert conditioner.decide(envelope) is None
        assert conditioner.decide(envelope) is None
        assert conditioner.decide(envelope) == 0.0
        assert conditioner.stats()["lost"] == 2
        assert conditioner.active_rules() == []

    def test_reseeding_an_existing_conditioner_is_refused(self):
        rule = LinkRule(action="drop", destination="entry", count=1)
        with VuvuzelaSystem(scenario_config()) as system:
            system.add_link_rule("clients", rule, seed=1)
            first = system.network.link_conditioner
            system.add_link_rule("entry", rule, seed=1)  # same seed: fine
            assert system.network.link_conditioner is first
            with pytest.raises(ProtocolError, match="cannot reseed"):
                system.add_link_rule(0, rule, seed=2)

    def test_delay_rule_reports_stall_without_sleeping(self):
        # The conditioner *decides* the stall; the transport applies it with
        # hold() after the decision lock is released.  Deciding must never
        # sleep — that is the fix for delay rules serializing an overlapped
        # drive.
        from repro.net import Envelope, MessageKind

        conditioner = LinkConditioner()
        conditioner.add_rule(
            LinkRule(action="delay", delay_seconds=0.15, destination="entry", count=1)
        )
        envelope = Envelope(
            source="a", destination="entry", payload=b"x",
            kind=MessageKind.CONVERSATION_REQUEST,
        )
        started = time.perf_counter()
        stall = conditioner.decide(envelope)
        assert time.perf_counter() - started < 0.1
        assert stall == 0.15
        assert conditioner.stats()["held"] == 1

    def test_delay_rule_stall_is_applied_by_the_transport(self):
        from repro.net import MessageKind, Network

        network = Network()
        network.register("entry", lambda envelope: b"ok")
        network.link_conditioner = LinkConditioner()
        network.link_conditioner.add_rule(
            LinkRule(action="delay", delay_seconds=0.12, destination="entry", count=1)
        )
        kind = MessageKind.CONVERSATION_REQUEST
        started = time.perf_counter()
        assert network.send("a", "entry", b"x", kind) == b"ok"
        assert time.perf_counter() - started >= 0.11
        # The second send matches no rule (count=1 expired) and is instant.
        started = time.perf_counter()
        assert network.send("a", "entry", b"x", kind) == b"ok"
        assert time.perf_counter() - started < 0.1
