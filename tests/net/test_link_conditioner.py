"""Unit tests for the deterministic link-rule engine (faults and WAN weather)."""

import hashlib
import sys
import threading
import time

import pytest

from repro.crypto.rng import DeterministicRandom
from repro.errors import NetworkError, ProtocolError
from repro.net import (
    Envelope,
    LinkConditioner,
    LinkRule,
    LinkSpec,
    MessageKind,
    Network,
    apply_link_command,
    link_target,
)


def _envelope(payload=b"wire", source="alice", destination="entry", round_number=0,
              kind=MessageKind.CONVERSATION_REQUEST):
    return Envelope(
        source=source,
        destination=destination,
        payload=payload,
        kind=kind,
        round_number=round_number,
    )


def _conditioner(*rules, seed=0, realtime=True):
    conditioner = LinkConditioner(seed=seed, realtime=realtime)
    for rule in rules:
        conditioner.add_rule(rule)
    return conditioner


def _loss(probability, **match):
    return LinkRule(action="drop", probability=probability, **match)


class TestLinkRule:
    def test_roundtrips_through_json_form(self):
        rule = LinkRule(
            action="delay",
            source="alice",
            destination="entry",
            kind=MessageKind.CONVERSATION_REQUEST,
            probability=0.25,
            count=3,
            delay_seconds=0.5,
            jitter_seconds=0.005,
            spec=LinkSpec(bandwidth_bytes_per_sec=1_000_000, latency_seconds=0.03),
        )
        assert LinkRule.from_dict(rule.to_dict()) == rule

    def test_loss_only_rule_needs_no_spec(self):
        rule = _loss(0.5, destination="entry")
        assert LinkRule.from_dict(rule.to_dict()) == rule

    def test_validation(self):
        with pytest.raises(ProtocolError):
            _loss(1.5)
        with pytest.raises(ProtocolError):
            LinkRule(action="delay", jitter_seconds=-0.1)
        with pytest.raises(ProtocolError, match="cannot stall"):
            LinkRule(action="kill", delay_seconds=0.1)

    def test_wildcard_rule_never_matches_control_plane(self):
        rule = _loss(0.9)
        assert not rule.matches(_envelope(kind=MessageKind.CONTROL))
        assert rule.matches(_envelope())
        named = _loss(0.9, kind=MessageKind.CONTROL)
        assert named.matches(_envelope(kind=MessageKind.CONTROL))

    @pytest.mark.parametrize(
        "data",
        [
            # A misspelt key must not widen the rule into a wildcard kill.
            {"action": "kill", "destinaton": "server-1/conversation"},
            {"action": "kill", "kind": "bogus"},
            {"action": "explode"},
            {"destination": "entry"},
            {"action": "drop", "probability": "often"},
            {"action": "drop", "probability": 1.5},
            {"action": "drop", "probability": float("nan")},
            {"action": "drop", "count": 0},
            {"action": "drop", "count": "twice"},
            {"action": "delay", "delay_seconds": -1.0},
            {"action": "delay", "delay_seconds": float("inf")},
            {"action": "delay", "jitter_seconds": None},
            {"action": "delay", "spec": {"latency_seconds": 0.1}},
            {"action": "delay", "spec": {"bandwidth_bytes_per_sec": 0}},
            ["action", "kill"],
            # Neither a name nor the wildcard: a rule that matches nothing.
            {"action": "drop", "source": 5},
            {"action": "drop", "destination": ["a"]},
            {"action": "drop", "source": ""},
            # Numbers are never coerced: no truncated budget, no booleans or
            # strings as numbers.
            {"action": "drop", "count": 1.7},
            {"action": "drop", "count": True},
            {"action": "delay", "delay_seconds": True},
            {"action": "drop", "probability": "0.5"},
            # A spec is as strict as the rule around it.
            {"action": "delay", "spec": {"bandwidth_bytes_per_sec": 10, "latency": 1.0}},
            {"action": "delay", "spec": {"bandwidth_bytes_per_sec": 1, "latency_seconds": 1e999}},
            {"action": "delay", "spec": {"bandwidth_bytes_per_sec": 10**400}},
        ],
        ids=repr,
    )
    def test_malformed_json_forms_are_refused(self, data):
        with pytest.raises(ProtocolError):
            LinkRule.from_dict(data)

    def test_targets_normalize(self):
        assert [link_target(t) for t in ("clients", "entry", 2, "server-2")] == [
            "clients", "entry", "server-2", "server-2",
        ]
        for bad in ("client", -1, "server-x", True):
            with pytest.raises(ProtocolError):
                link_target(bad)


class TestLinkConditioner:
    def test_loss_decisions_are_a_pure_function_of_message_identity(self):
        first = _conditioner(_loss(0.5, destination="entry"), seed=7)
        second = _conditioner(_loss(0.5, destination="entry"), seed=7, realtime=False)
        envelopes = [_envelope(payload=bytes([i]) * 8, round_number=i % 3) for i in range(64)]
        # Same decisions in a different visiting order and a different mode.
        forward = [first.decide(e) is None for e in envelopes]
        backward = [second.decide(e) is None for e in reversed(envelopes)]
        assert forward == list(reversed(backward))
        assert 10 < sum(forward) < 54  # the rate is actually applied

    def test_loss_draw_is_the_first_draw_of_the_message_fork(self):
        """The loss draw's fork label is part of the recording format: every
        seed loses exactly the messages it always lost."""
        conditioner = _conditioner(_loss(0.5, destination="entry"), seed=11)
        for i in range(32):
            envelope = _envelope(payload=bytes([i]) * 5, round_number=i)
            digest = hashlib.sha256(envelope.payload).hexdigest()[:16]
            label = f"link/alice->entry/{envelope.kind.value}/{i}/{digest}"
            expected = DeterministicRandom(11).fork(label).random_float() < 0.5
            assert (conditioner.decide(envelope) is None) == expected

    def test_resubmitted_identical_wire_gets_the_identical_decision(self):
        conditioner = _conditioner(_loss(0.5, destination="entry"), seed=3)
        envelope = _envelope(payload=b"resubmitted-wire")
        decisions = {conditioner.decide(envelope) is None for _ in range(10)}
        assert len(decisions) == 1

    def test_different_seeds_make_different_weather(self):
        draws = []
        for seed in (0, 1):
            conditioner = _conditioner(_loss(0.5, destination="entry"), seed=seed)
            draws.append(
                tuple(
                    conditioner.decide(_envelope(payload=bytes([i]) * 4)) is None
                    for i in range(32)
                )
            )
        assert draws[0] != draws[1]

    def test_bandwidth_and_latency_stall_delivery(self):
        conditioner = _conditioner(
            LinkRule(
                action="delay",
                spec=LinkSpec(bandwidth_bytes_per_sec=10_000, latency_seconds=0.02),
                destination="entry",
            )
        )
        stall = conditioner.decide(_envelope(payload=b"x" * 1000))
        # ~0.1s serialization + 20ms propagation.
        assert stall == pytest.approx(0.12, abs=0.02)

    def test_consecutive_transfers_queue_behind_the_links_capacity(self):
        conditioner = _conditioner(
            LinkRule(
                action="delay",
                spec=LinkSpec(bandwidth_bytes_per_sec=100_000),
                destination="entry",
            )
        )
        first = conditioner.decide(_envelope(payload=b"x" * 5000))
        second = conditioner.decide(_envelope(payload=b"x" * 5000))
        # The second transfer waits for the first's serialization to finish.
        assert second >= first + 0.04

    def test_matching_rules_add_their_stalls_and_the_first_loss_ends_the_walk(self):
        conditioner = _conditioner(
            LinkRule(action="delay", delay_seconds=0.25, destination="entry"),
            LinkRule(action="delay", delay_seconds=0.5, kind=MessageKind.CONVERSATION_REQUEST),
            LinkRule(action="drop", destination="entry", count=1),
            LinkRule(action="kill", destination="entry", count=1),
        )
        started = time.perf_counter()
        assert conditioner.decide(_envelope()) is None  # the drop wins
        with pytest.raises(NetworkError, match="link rule"):
            conditioner.decide(_envelope())  # then the kill
        assert conditioner.decide(_envelope()) == pytest.approx(0.75)
        assert time.perf_counter() - started < 0.1  # deciding never sleeps
        stats = conditioner.stats()
        assert (stats["conditioned"], stats["lost"], stats["killed"]) == (3, 1, 1)
        assert (stats["held"], stats["rules"]) == (1, 2)

    def test_rules_heal_and_count_per_target(self):
        conditioner = LinkConditioner()
        conditioner.add_rule(_loss(1.0, destination="entry"), "clients")
        conditioner.add_rule(_loss(1.0, destination="server-1/conversation"), "server-0")
        assert conditioner.decide(_envelope()) is None
        assert conditioner.decide(_envelope(destination="server-1/conversation")) is None
        assert conditioner.stats("clients")["lost"] == 1
        assert conditioner.stats()["lost"] == 2
        conditioner.heal("server-0")
        assert conditioner.active_rules() == [_loss(1.0, destination="entry")]
        assert conditioner.decide(_envelope(destination="server-1/conversation")) == 0.0

    def test_count_and_counters_hold_under_concurrent_senders(self):
        conditioner = _conditioner(LinkRule(action="drop", destination="entry", count=50))
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(
                    target=lambda: [conditioner.decide(_envelope()) for _ in range(200)]
                )
                for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        stats = conditioner.stats()
        assert (stats["lost"], stats["conditioned"]) == (50, 50)

    def test_replay_mode_never_sleeps_but_draws_identically(self):
        rules = (
            _loss(0.3, destination="entry"),
            LinkRule(
                action="delay",
                spec=LinkSpec(bandwidth_bytes_per_sec=100, latency_seconds=1.0),
                jitter_seconds=0.5,
                destination="entry",
            ),
        )
        realtime = _conditioner(*rules, seed=5)
        replay = _conditioner(*rules, seed=5, realtime=False)
        envelope = _envelope(payload=b"y" * 50)
        started = time.perf_counter()
        lost = replay.decide(envelope) is None
        replay.hold(5.0)
        assert time.perf_counter() - started < 0.5
        assert lost == (realtime.decide(envelope) is None)

    def test_network_drops_lost_messages(self):
        network = Network()
        network.register("entry", lambda envelope: b"ok")
        network.link_conditioner = _conditioner(_loss(0.5, destination="entry"), seed=1)
        replies = [
            network.send("alice", "entry", bytes([i]) * 6, MessageKind.CONVERSATION_REQUEST, i)
            for i in range(40)
        ]
        lost = sum(reply is None for reply in replies)
        assert lost == network.link_conditioner.stats()["lost"]
        assert 5 < lost < 35

    def test_control_command_roundtrip(self):
        network = Network()
        rule = _loss(0.25, destination="entry")
        reply = apply_link_command(
            network, {"cmd": "add-link-rule", "rule": rule.to_dict(), "seed": 9}
        )
        assert reply == {"ok": True, "rules": 1}
        assert network.link_conditioner.seed == 9
        assert network.link_conditioner.active_rules() == [rule]
        with pytest.raises(ProtocolError, match="cannot reseed"):
            apply_link_command(
                network, {"cmd": "add-link-rule", "rule": rule.to_dict(), "seed": 10}
            )
        with pytest.raises(ProtocolError, match="unknown link rule field"):
            apply_link_command(
                network, {"cmd": "add-link-rule", "rule": {"action": "kill", "dest": "entry"}}
            )
        stats = apply_link_command(network, {"cmd": "link-stats"})
        assert stats["rules"] == 1
        assert apply_link_command(network, {"cmd": "heal-links"}) == {"ok": True}
        assert network.link_conditioner.active_rules() == []
        assert apply_link_command(network, {"cmd": "unrelated"}) is None
