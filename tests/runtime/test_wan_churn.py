"""Degraded-mode operation: churn scripts, park/resume §3.1 resumption, the
campaign invariants, and the WAN/churn campaign in both deployment shapes.

The marquee checks: a client that disappears mid-session and comes back
resumes through client-level retransmission with duplicate suppression
(§3.1), a removed client's server-side state is pruned, and a seeded
campaign combining WAN conditioning + churn + an adversarial flood holds its
invariants and replays bit-identically from the ledger alone.
"""

from __future__ import annotations

import pytest

from repro import VuvuzelaConfig, VuvuzelaSystem
from repro.errors import ProtocolError
from repro.ledger import LedgerWriter, load_ledger, replay_ledger, replay_ledger_over_tcp
from repro.net import Envelope, LinkConditioner, MessageKind
from repro.runtime import (
    CHURN_ACTIONS,
    INVARIANTS,
    Campaign,
    ChurnEvent,
    check_invariants,
    edge_rules,
)

SEED = 7171


def scenario_config(**overrides) -> VuvuzelaConfig:
    base = VuvuzelaConfig.small(seed=SEED)
    fields = base.to_dict()
    fields.update(overrides)
    return VuvuzelaConfig.from_dict(fields)


class TestChurnEvents:
    def test_roundtrip(self):
        event = ChurnEvent(
            before_round=2, action="join", name="churn-0", peer="ab" * 32, message="hi"
        )
        assert ChurnEvent.from_dict(event.to_dict()) == event

    def test_validation(self):
        with pytest.raises(ProtocolError, match="unknown churn action"):
            ChurnEvent(before_round=1, action="teleport", name="x")
        with pytest.raises(ProtocolError, match="precede round 0"):
            ChurnEvent(before_round=-1, action="join", name="x")
        assert set(CHURN_ACTIONS) == {"join", "park", "resume", "remove", "dial", "say"}


class TestParkResume:
    def test_parked_client_resumes_via_retransmission(self):
        """§3.1 across a long gap: messages said while the peer is offline
        arrive after the resume, exactly once, via outbox retransmission and
        sequence-number dedup."""
        with VuvuzelaSystem(scenario_config()) as system:
            alice = system.add_session("alice")
            system.add_session("bob")
            alice.dial(system.client("bob").public_key)
            system.run_continuous(2, dialing_interval=2)
            alice.say("before the park")
            system.run_continuous(1, dialing_interval=0)
            assert [m.body for m in system.client("bob").received] == [b"before the park"]

            system.park_client("bob")
            assert "bob" not in system.clients
            alice.say("said while bob was away 1")
            alice.say("said while bob was away 2")
            system.run_continuous(3, dialing_interval=0)
            # Bob's mailbox is frozen while parked.
            assert len(system.client("bob").received) == 1

            system.resume_client("bob")
            system.run_continuous(4, dialing_interval=0)
            bodies = [m.body for m in system.client("bob").received]
            assert bodies == [
                b"before the park",
                b"said while bob was away 1",
                b"said while bob was away 2",
            ]
            assert len(bodies) == len(set(bodies))  # dedup held

    def test_park_resume_inside_a_schedule_via_churn_script(self):
        """The same resumption, driven by ChurnEvents at round boundaries
        inside one continuous schedule — and recorded for replay."""
        with VuvuzelaSystem(scenario_config()) as system:
            alice = system.add_session("alice")
            system.add_session("bob")
            alice.dial(system.client("bob").public_key)
            system.run_continuous(2, dialing_interval=2)
            alice.say("carried across the gap")
            schedule = system.run_continuous(
                6,
                dialing_interval=0,
                churn=[
                    ChurnEvent(before_round=1, action="park", name="bob"),
                    ChurnEvent(before_round=4, action="resume", name="bob"),
                ],
            )
            assert len(schedule.conversation) == 6
            bodies = [m.body for m in system.client("bob").received]
            assert bodies.count(b"carried across the gap") == 1

    def test_removed_client_state_is_pruned(self):
        with VuvuzelaSystem(scenario_config()) as system:
            system.add_session("alice")
            system.add_session("bob")
            system.run_continuous(2, dialing_interval=2)
            system.remove_client("bob")
            for window in system.coordinator._windows.values():
                assert "bob" not in window.per_client
                assert "bob" not in window.submitted
            with pytest.raises(ProtocolError, match="no client named"):
                system.client("bob")


class TestCampaignDraws:
    def test_churn_scripts_are_deterministic_and_applicable(self, tmp_path):
        """Same seed ⇒ same scripts; and every script is applicable in draw
        order: resumes only name parked clients, parks/removes only live
        ones, re-dials come from an anchor, boundaries stay inside the
        segment."""
        alice_hex, bob_hex = "ab" * 32, "cd" * 32
        scripts = []
        for _ in range(2):
            campaign = Campaign(
                scenario_config(), seed=33, ledger_path=tmp_path / "x.jsonl",
                rounds_per_segment=4,
            )
            drawn = [campaign._draw_churn(alice_hex, bob_hex) for _ in range(25)]
            scripts.append([[e.to_dict() for e in events] for events in drawn])

            active: set[str] = set()
            parked: set[str] = set()
            for events in drawn:
                assert [e.before_round for e in events] == sorted(
                    e.before_round for e in events
                )
                for event in events:
                    assert 1 <= event.before_round <= 3
                    if event.action == "join":
                        assert event.peer == alice_hex and event.message
                        active.add(event.name)
                    elif event.action == "park":
                        assert event.name in active
                        active.discard(event.name)
                        parked.add(event.name)
                    elif event.action == "resume":
                        assert event.name in parked
                        parked.discard(event.name)
                        active.add(event.name)
                    elif event.action == "remove":
                        assert event.name in active
                        active.discard(event.name)
                    elif event.action == "dial":
                        assert (event.name, event.peer) == ("anchor-alice", bob_hex)
                    else:
                        assert event.action == "say"
                        assert event.name == "anchor-alice" and event.message
            # The draw distribution actually exercises the churn surface.
            actions = {e["action"] for events in scripts[-1] for e in events}
            assert {"join", "park", "remove", "dial", "say"} <= actions
        assert scripts[0] == scripts[1]

    def test_shape_and_segment_validation(self, tmp_path):
        with pytest.raises(ProtocolError, match="unknown campaign shape"):
            Campaign(scenario_config(), shape="carrier-pigeon", ledger_path=tmp_path / "x")
        with pytest.raises(ProtocolError, match="at least two rounds"):
            Campaign(scenario_config(), ledger_path=tmp_path / "x", rounds_per_segment=1)


def _plant_duplicate_delivery(system):
    mailbox = system.client("bob").received
    mailbox.append(mailbox[0])


def _plant_extra_spend(system):
    system.conversation_accountant.spend(1)


def _plant_buffered_refund(system):
    system.entry.admit(
        MessageKind.CONVERSATION_REQUEST,
        system.next_conversation_round,
        "alice",
        b"refunded but never re-run",
    )


class TestInvariants:
    @pytest.mark.parametrize(
        "plant, invariant",
        [
            (_plant_duplicate_delivery, INVARIANTS.exactly_once),
            (_plant_buffered_refund, INVARIANTS.refund_conservation),
            (_plant_extra_spend, INVARIANTS.accountant),
        ],
        ids=list(INVARIANTS),
    )
    def test_each_invariant_fires_on_a_real_violation(self, tmp_path, plant, invariant):
        """A clean run passes every check; one planted violation of real
        deployment state is named by exactly its own invariant."""
        path = tmp_path / "ledger.jsonl"
        with VuvuzelaSystem(scenario_config()) as system:
            with LedgerWriter(path) as writer:
                system.attach_ledger(writer)
                alice = system.add_session("alice")
                system.add_session("bob")
                alice.dial(system.client("bob").public_key)
                alice.say("delivered exactly once")
                system.run_continuous(3, dialing_interval=2)
                writer.flush()
                assert system.client("bob").received
                assert check_invariants(system, path, 0) == []

                plant(system)
                failures = check_invariants(system, path, 1)
        assert failures and {name for name, _ in failures} == {invariant}


class TestEdgeWeather:
    def test_lossy_weather_still_delays_delivered_submissions(self):
        """Regression: the loss rule used to shadow the latency/jitter rule,
        so a conversation submission that survived lossy weather crossed the
        edge with no delay at all."""
        latency, jitter = 0.005, 0.001
        conditioner = LinkConditioner(seed=3)
        for rule in edge_rules(0.15, latency, jitter):
            conditioner.add_rule(rule)

        def stalls(kind: MessageKind) -> list:
            return [
                conditioner.decide(
                    Envelope(
                        source=f"client-{index}",
                        destination="entry",
                        payload=index.to_bytes(4, "big"),
                        kind=kind,
                        round_number=index % 5,
                    )
                )
                for index in range(200)
            ]

        conversation = stalls(MessageKind.CONVERSATION_REQUEST)
        delivered = [stall for stall in conversation if stall is not None]
        assert 0 < len(delivered) < len(conversation)  # the loss bit, not all
        assert min(delivered) >= latency
        dialing = stalls(MessageKind.DIALING_REQUEST)
        assert None not in dialing  # weather never loses a dial
        assert latency <= min(dialing) and max(dialing) < latency + jitter + 0.001


class TestInProcessCampaign:
    def test_campaign_holds_invariants_and_replays(self, tmp_path):
        path = tmp_path / "wan.jsonl"
        campaign = Campaign(
            scenario_config(),
            seed=7,
            ledger_path=path,
            rounds_per_segment=3,
            loss=0.15,
            latency_seconds=0.001,
            jitter_seconds=0.001,
            flood_attackers=2,
        )
        report = campaign.run(3)
        assert report.ok, report.summary()
        assert report.segments_run == 3
        assert report.conversation_rounds == 9
        # The conditioner actually bit: seeded loss landed on submissions.
        assert report.link_losses > 0
        assert report.link_stats["conditioned"] > 0
        # The flood emitted one privacy-vs-load point per segment, and the
        # accountant kept spending at its ordinary per-round rate.
        assert len(report.flood_points) == 3
        assert report.flood_points[0]["load"] > report.flood_points[0]["baseline"]
        spends = [point["rounds_used"] for point in report.flood_points]
        assert spends == sorted(spends) and spends[0] == 2

        view = load_ledger(path)
        assert view.of_type("link_rule_added")
        assert view.of_type("privacy_load_point")

        replay = replay_ledger(path)
        assert replay.identical, replay.summary()

    def test_same_seed_same_ledger_head(self, tmp_path):
        heads = []
        for run in range(2):
            path = tmp_path / f"wan-{run}.jsonl"
            Campaign(
                scenario_config(),
                seed=21,
                ledger_path=path,
                rounds_per_segment=2,
                loss=0.1,
            ).run(2)
            heads.append(load_ledger(path).head())
        assert heads[0] == heads[1]


class TestTcpCampaign:
    def test_tcp_campaign_holds_invariants_and_replays_over_tcp(self, tmp_path):
        """Acceptance bar: WAN conditioning + churn + the flood over a real
        multi-process TCP deployment, invariants held, then the recording
        re-executed over a *fresh* TCP deployment bit-identically."""
        path = tmp_path / "wan-tcp.jsonl"
        campaign = Campaign(
            scenario_config(),
            shape="tcp",
            seed=11,
            ledger_path=path,
            rounds_per_segment=2,
            loss=0.15,
            jitter_seconds=0.001,
            flood_attackers=1,
        )
        report = campaign.run(2)
        assert report.ok, report.summary()
        assert report.shape == "tcp"
        assert report.segments_run == 2

        replay = replay_ledger_over_tcp(path)
        assert replay.identical, replay.summary()
        assert len(replay.rounds) == report.conversation_rounds + report.dialing_rounds
