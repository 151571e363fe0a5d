"""The continuous overlapping scheduler: determinism under concurrency.

The acceptance bar of the protocol-agnostic pipeline refactor: the same
seeded scenario — clients dialing, accepting invitations and conversing with
a dialing round interleaved every k conversation rounds — must produce
**byte-identical** plaintexts, invitation buckets and noise histograms
whether it runs serially in-process, overlapped in-process
(conversation ∥ dialing, pre-opened windows), or across real subprocess
servers over TCP.
"""

from __future__ import annotations

import threading

import pytest

from repro import DeploymentLauncher, VuvuzelaConfig, VuvuzelaSystem
from repro.core.metrics import DialingRoundMetrics, RoundMetrics
from repro.errors import ProtocolError
from repro.runtime.scheduler import ClientSession, RoundScheduler

SEED = 2026
CONVERSATION_ROUNDS = 5
DIALING_INTERVAL = 2


def scenario_config(**overrides) -> VuvuzelaConfig:
    base = VuvuzelaConfig.small(seed=SEED)
    fields = base.to_dict()
    fields.update(overrides)
    return VuvuzelaConfig.from_dict(fields)


def wire_sessions(add_session):
    """The shared scenario: alice dials bob, both greet, carol is cover."""
    alice = add_session("alice", greetings=["the documents are ready", "same place"])
    bob = add_session("bob", greetings=["use the usual channel"])
    carol = add_session("carol")
    alice.dial(bob.client.public_key)
    return alice, bob, carol


def observables_in_process(system, report, alice, bob, carol) -> dict:
    return {
        "bob_received": bob.client.messages_from(alice.client.public_key),
        "alice_received": alice.client.messages_from(bob.client.public_key),
        "carol_received": list(carol.client.received),
        "conversation_noise": [m.noise_requests for m in report.conversation],
        "histograms": [
            (m.histogram.singles, m.histogram.pairs, m.histogram.collisions)
            for m in report.conversation
        ],
        "buckets": [m.bucket_sizes for m in report.dialing],
        "dialing_noise": [m.noise_invitations for m in report.dialing],
        "rounds": (len(report.conversation), len(report.dialing)),
        "invitations": (alice.invitations_received, bob.invitations_received),
    }


def run_in_process(pipeline_depth: int) -> dict:
    config = scenario_config()
    with VuvuzelaSystem(config) as system:
        alice, bob, carol = wire_sessions(system.add_session)
        report = system.run_continuous(
            CONVERSATION_ROUNDS,
            dialing_interval=DIALING_INTERVAL,
            pipeline_depth=pipeline_depth,
        )
        return observables_in_process(system, report, alice, bob, carol)


def run_over_tcp(pipeline_depth: int) -> dict:
    config = scenario_config()
    with DeploymentLauncher(config, request_timeout=120.0) as deployment:
        alice, bob, carol = wire_sessions(deployment.add_session)
        report = deployment.run_continuous(
            CONVERSATION_ROUNDS,
            dialing_interval=DIALING_INTERVAL,
            pipeline_depth=pipeline_depth,
        )
        buckets = []
        dialing_noise = []
        for m in report.dialing:
            store = deployment.invitation_store(m.round_number)
            buckets.append(store.bucket_sizes())
            dialing_noise.append(
                deployment.chain_noise("dialing", m.round_number)
                + sum(store.noise_count(b) for b in range(store.num_buckets))
            )
        return {
            "bob_received": bob.client.messages_from(alice.client.public_key),
            "alice_received": alice.client.messages_from(bob.client.public_key),
            "carol_received": list(carol.client.received),
            "conversation_noise": [
                deployment.chain_noise("conversation", m.round_number)
                for m in report.conversation
            ],
            "histograms": [
                tuple(
                    deployment.access_histogram(m.round_number)[key]
                    for key in ("singles", "pairs", "collisions")
                )
                for m in report.conversation
            ],
            "buckets": buckets,
            "dialing_noise": dialing_noise,
            "rounds": (len(report.conversation), len(report.dialing)),
            "invitations": (alice.invitations_received, bob.invitations_received),
        }


class TestByteIdentity:
    def test_serial_overlapped_and_tcp_schedules_are_byte_identical(self):
        """Same seed => same plaintexts, buckets and noise histograms across
        serial / overlapped-scheduler / subprocess-TCP execution."""
        serial = run_in_process(pipeline_depth=1)
        overlapped = run_in_process(pipeline_depth=2)
        networked = run_over_tcp(pipeline_depth=2)

        assert serial["bob_received"] == [b"the documents are ready", b"same place"]
        assert serial["alice_received"] == [b"use the usual channel"]
        assert serial["carol_received"] == []
        assert serial["rounds"] == (CONVERSATION_ROUNDS, 3)
        assert serial["invitations"] == (0, 1)
        assert overlapped == serial
        assert networked == serial

    def test_scheduled_dialing_round_matches_the_legacy_path(self):
        """Satellite regression: a dialing round driven through the shared
        pipeline (serial, scheduled and over TCP) produces byte-identical
        buckets — all dialing rng is confined to per-protocol streams."""
        config = scenario_config()

        with VuvuzelaSystem(config) as system:
            alice = system.add_client("alice")
            bob = system.add_client("bob")
            alice.dial(bob.public_key)
            legacy = system.run_dialing_round()
            legacy_buckets = legacy.bucket_sizes
            # The envelope-path download decodes to the same store bytes the
            # processor holds (the CDN snapshot is transport-invariant).
            downloaded = system.download_invitations(legacy.round_number)
            assert downloaded.bucket_sizes() == legacy_buckets
            direct = system.invitation_store(legacy.round_number)
            for bucket in range(direct.num_buckets):
                assert downloaded.download(bucket) == direct.download(bucket)

        with VuvuzelaSystem(config) as system:
            session = system.add_session("alice")
            system.add_session("bob")
            session.dial(system.client("bob").public_key)
            report = system.run_continuous(1, dialing_interval=1, pipeline_depth=2)
            assert report.dialing[0].bucket_sizes == legacy_buckets

        with DeploymentLauncher(config, request_timeout=120.0) as deployment:
            alice_c = deployment.add_client("alice")
            bob_c = deployment.add_client("bob")
            alice_c.client.dial(bob_c.client.public_key)
            result = deployment.run_dialing_round()
            store = deployment.invitation_store(result.round_number)
            assert store.bucket_sizes() == legacy_buckets
            assert bob_c.client.incoming_calls, "invitation must arrive over TCP"


class TestSchedulerBehaviour:
    def test_thin_wrappers_still_run_single_rounds(self):
        with VuvuzelaSystem(scenario_config()) as system:
            system.add_client("alice")
            metrics = system.run_conversation_round()
            assert metrics.round_number == 0
            assert system.next_conversation_round == 1
            dialing = system.run_dialing_round()
            assert isinstance(dialing, DialingRoundMetrics)
            assert isinstance(dialing, RoundMetrics)
            # Satellite: dialing now reports the full §6/§7 counter set.
            assert dialing.attempts == 1
            assert dialing.aborted_attempts == 0
            assert dialing.refused_requests == 0
            assert dialing.late_requests == 0

    def test_dialing_interval_zero_schedules_no_dialing_rounds(self):
        with VuvuzelaSystem(scenario_config()) as system:
            system.add_client("alice")
            report = system.run_continuous(3, dialing_interval=0, pipeline_depth=2)
            assert len(report.conversation) == 3
            assert report.dialing == []
            assert report.total_rounds == 3

    def test_trailing_dialing_round_still_completes(self):
        """A dialing round launched alongside the last conversation round is
        joined, not leaked: interval 2 over 4 rounds = dialing before rounds
        0 and 2, and the one due before round 4 never starts."""
        with VuvuzelaSystem(scenario_config()) as system:
            system.add_client("alice")
            report = system.run_continuous(4, dialing_interval=2, pipeline_depth=2)
            assert len(report.conversation) == 4
            assert len(report.dialing) == 2

    def test_an_overlapped_schedule_leaves_no_thread_behind(self):
        """Every helper thread the overlapped schedule starts (pre-opened
        windows, concurrent dialing rounds) is joined before it returns."""
        before = set(threading.enumerate())
        with VuvuzelaSystem(scenario_config()) as system:
            wire_sessions(system.add_session)
            report = system.run_continuous(4, dialing_interval=1, pipeline_depth=2)
            assert len(report.conversation) == 4
            assert [t.name for t in threading.enumerate() if t not in before] == []

    def test_invalid_depth_and_interval_are_rejected(self):
        with VuvuzelaSystem(scenario_config()) as system:
            with pytest.raises(ProtocolError):
                system.run_continuous(1, pipeline_depth=0)
            with pytest.raises(ProtocolError):
                system.run_continuous(1, dialing_interval=-1)
            with pytest.raises(ProtocolError):
                RoundScheduler(system, pipeline_depth=0)

    def test_session_say_queues_before_and_during_a_conversation(self):
        with VuvuzelaSystem(scenario_config()) as system:
            alice = system.add_session("alice")
            bob = system.add_session("bob")
            alice.dial(bob.client.public_key)
            alice.say("queued before the call connects")
            system.run_continuous(2, dialing_interval=1)
            alice.say("sent mid-conversation")
            system.run_continuous(2, dialing_interval=0)
            assert bob.client.messages_from(alice.client.public_key) == [
                b"queued before the call connects",
                b"sent mid-conversation",
            ]
            assert bob.conversations_started == 1
            assert alice.conversations_started == 1

    def test_sessions_are_addressable_by_name(self):
        with VuvuzelaSystem(scenario_config()) as system:
            session = system.add_session("alice")
            assert system.scheduler.session("alice") is session
            with pytest.raises(ProtocolError):
                system.scheduler.session("nobody")


class TestDriveOrdering:
    def test_chain_drives_of_one_kind_serialize_in_round_order(self):
        """Round N+1's chain drive waits for round N to resolve, even when
        its window closes first — the determinism the scheduler relies on."""
        with VuvuzelaSystem(scenario_config()) as system:
            system.add_client("alice")
            first = system.open_scheduled_round(system.protocol("conversation"))
            second = system.open_scheduled_round(system.protocol("conversation"))
            order: list[int] = []
            started = threading.Event()

            def close(opened) -> None:
                system.control(
                    "entry",
                    {"cmd": "close-round", "protocol": "conversation",
                     "round": opened.round_number},
                )

            def close_second() -> None:
                started.set()
                close(second)
                order.append(second.round_number)

            closer = threading.Thread(target=close_second, daemon=True)
            closer.start()
            started.wait(timeout=5.0)
            # The second round's drive is gated on the first's resolution.
            assert closer.is_alive()
            close(first)
            order.append(first.round_number)
            closer.join(timeout=10.0)
            assert not closer.is_alive()
            assert sorted(order) == [0, 1]
            assert system.coordinator.rounds_run == 2

    def test_failed_session_round_does_not_wedge_later_rounds(self):
        """Regression: a conversation round failing mid-session used to
        abandon the pre-opened next window, wedging the in-order drive gate
        for every later round of the kind."""
        from repro.errors import NetworkError
        from repro.net import LinkRule

        config = scenario_config(max_round_attempts=1)
        with VuvuzelaSystem(config) as system:
            system.add_client("alice")
            system.coordinator.response_wait_seconds = 5.0
            kill = LinkRule(
                action="kill",
                source="server-0/conversation",
                destination="server-1/conversation",
            )
            system.add_link_rule(0, kill, seed=9)
            with pytest.raises(NetworkError):
                system.run_continuous(3, dialing_interval=0, pipeline_depth=2)
            system.heal_links(0)
            # The pre-opened window was discarded, not abandoned: the next
            # round drives immediately instead of timing out on the gate.
            metrics = system.run_conversation_round()
            assert metrics.aborted_attempts == 0
            assert metrics.client_requests == 1

    def test_chain_endpoint_rejects_out_of_order_rounds(self):
        from repro.server.wire import encode_batch

        with VuvuzelaSystem(scenario_config()) as system:
            system.add_client("alice")
            system.run_conversation_round()
            system.run_conversation_round()
            endpoint = system.conversation_endpoints[0]
            assert endpoint.highest_round == 1
            with pytest.raises(ProtocolError, match="in order"):
                system.network.send(
                    "entry", endpoint.name, encode_batch(0, []), endpoint.request_kind, 0
                )
