"""Tests for the adversary models and the baselines they break.

These are the motivation experiments of §2.1 and §4.2: the same attacks are
run against the strawman and the un-noised mixnet (where they succeed) and
against Vuvuzela (where the noise defeats them).
"""

from __future__ import annotations

import math

import pytest

from repro import VuvuzelaConfig, VuvuzelaSystem
from repro.adversary import (
    BayesianAttacker,
    GlobalObserver,
    run_discard_attack,
    run_intersection_attack,
)
from repro.baselines import StrawmanServer, build_unnoised_system
from repro.conversation import ConversationSession, ExchangeRequest, encrypt_message, round_dead_drop
from repro.crypto import DeterministicRandom, KeyPair
from repro.errors import ConfigurationError, ProtocolError
from repro.net import CLIENTS, LinkRule, MessageKind
from repro.privacy import LaplaceParams


def _paired_system(config: VuvuzelaConfig, extra_idle: int = 4) -> tuple[VuvuzelaSystem, str, str]:
    """A system where alice<->bob converse and a few other users idle."""
    system = VuvuzelaSystem(config)
    alice, bob = system.add_client("alice"), system.add_client("bob")
    alice.start_conversation(bob.public_key)
    bob.start_conversation(alice.public_key)
    for i in range(extra_idle):
        system.add_client(f"idle-{i}")
    return system, "alice", "bob"


class TestStrawmanBaseline:
    def _request(self, sender: KeyPair, peer: KeyPair, round_number: int) -> bytes:
        session = ConversationSession(own_keys=sender, peer_public_key=peer.public)
        shared = session.shared_secret()
        send_key, _ = session.directional_keys()
        return ExchangeRequest(
            dead_drop_id=round_dead_drop(shared, round_number),
            message_box=encrypt_message(send_key, round_number, b"hi"),
        ).encode()

    def test_server_directly_links_conversing_users(self):
        rng = DeterministicRandom(1)
        alice, bob, charlie = (KeyPair.generate(rng) for _ in range(3))
        server = StrawmanServer()
        requests = {
            "alice": self._request(alice, bob, 0),
            "bob": self._request(bob, alice, 0),
            "charlie": self._request(charlie, KeyPair.generate(rng), 0),
        }
        responses = server.run_round(0, requests)
        observation = server.observation(0)
        # The strawman leaks exactly what Vuvuzela hides.
        assert observation.are_linked("alice", "bob")
        assert not observation.are_linked("alice", "charlie")
        assert ("alice", "bob") in [tuple(sorted(p)) for p in observation.users_sharing_a_dead_drop()]
        assert set(responses) == {"alice", "bob", "charlie"}
        assert observation.histogram.pairs == 1

    def test_malformed_request_is_skipped(self):
        server = StrawmanServer()
        assert server.run_round(1, {"alice": b"junk"}) == {}
        with pytest.raises(ProtocolError):
            server.observation(99)


class TestIntersectionAttack:
    def test_attack_succeeds_without_noise(self):
        system, alice, _ = _paired_system(
            VuvuzelaConfig(
                num_servers=3,
                conversation_noise=LaplaceParams(mu=0.0, b=1e-9),
                dialing_noise=LaplaceParams(mu=0.0, b=1e-9),
                exact_noise=True,
                seed=1,
            )
        )
        result = run_intersection_attack(system, target=alice, rounds_per_phase=3)
        # Without noise, m2 drops by exactly one whenever Alice is blocked.
        assert result.mean_difference == pytest.approx(1.0)
        assert result.concludes_target_is_conversing()

    def test_attack_fails_against_vuvuzela_noise(self):
        system, alice, _ = _paired_system(
            VuvuzelaConfig.small(seed=2, conversation_mu=60, dialing_mu=3)
        )
        # ~120 noise wires a mixing server cross the engine's pool threshold,
        # so close the system: its forked workers must not outlive the test.
        with system:
            result = run_intersection_attack(system, target=alice, rounds_per_phase=4)
        # The one-pair signal is buried in Laplace noise of scale b = mu/20 = 3
        # per server; the adversary cannot clear a 2-sigma decision threshold.
        assert not result.concludes_target_is_conversing()

    def test_attack_refuses_to_heal_a_rule_it_did_not_install(self):
        """Healing after the blocked phase removes every client-link rule,
        so an active one the caller installed stops the attack up front."""
        system, alice, _ = _paired_system(VuvuzelaConfig.small(seed=3))
        with system:
            system.add_link_rule(
                CLIENTS, LinkRule(action="delay", destination="entry", delay_seconds=0.001)
            )
            with pytest.raises(ProtocolError, match="already active"):
                run_intersection_attack(system, target=alice, rounds_per_phase=1)
            assert len(system.network.link_conditioner.active_rules(CLIENTS)) == 1
            assert system.coordinator.rounds_run == 0

    def test_unnoised_system_builder(self):
        system = build_unnoised_system(seed=5)
        assert system.config.conversation_noise.mu == 0.0
        system.add_client("alice")
        metrics = system.run_conversation_round()
        assert metrics.noise_requests == 0


class TestDiscardAttack:
    def test_attack_succeeds_without_noise(self):
        system, alice, bob = _paired_system(build_unnoised_system(seed=3).config)
        result = run_discard_attack(system, keep_clients=(alice, bob), rounds=2)
        assert result.mean_pairs == pytest.approx(1.0)
        assert result.concludes_targets_are_conversing()

    def test_attack_defeated_by_noise(self):
        system, alice, bob = _paired_system(
            VuvuzelaConfig.small(seed=4, conversation_mu=40, dialing_mu=3)
        )
        result = run_discard_attack(system, keep_clients=(alice, bob), rounds=2)
        # The observed pair count is dominated by the honest servers' noise.
        assert result.mean_pairs > 1
        assert not result.concludes_targets_are_conversing()


class TestGlobalObserver:
    def test_observer_sees_connections_and_counts(self):
        system, alice, bob = _paired_system(VuvuzelaConfig.small(seed=6), extra_idle=1)
        observer = GlobalObserver(system)
        metrics = system.run_conversation_round()
        observation = observer.observe_conversation_round(metrics.round_number)
        assert {"alice", "bob", "idle-0"} <= set(observation.connected_clients)
        assert observation.m2 >= 1
        assert observation.m1 >= 1

    def test_honest_last_server_hides_counts(self):
        system, alice, bob = _paired_system(VuvuzelaConfig.small(seed=7), extra_idle=0)
        observer = GlobalObserver(system, last_server_compromised=False)
        metrics = system.run_conversation_round()
        observation = observer.observe_conversation_round(metrics.round_number)
        assert observation.m1 == 0 and observation.m2 == 0
        assert "alice" in observation.connected_clients

    def test_dialing_observation(self):
        system, alice, bob = _paired_system(VuvuzelaConfig.small(seed=8), extra_idle=0)
        system.clients["alice"].dial(system.clients["bob"].public_key)
        metrics = system.run_dialing_round()
        observer = GlobalObserver(system)
        # The observer was attached after the round ran, so connections are
        # empty, but bucket sizes come from the compromised last server.
        observation = observer.observe_dialing_round(metrics.round_number)
        assert sum(observation.bucket_sizes.values()) == metrics.total_invitations


class TestBayesianAttacker:
    def test_single_observation_respects_epsilon_bound(self):
        noise = LaplaceParams(mu=150, b=10)
        attacker = BayesianAttacker(noise_params=noise, baseline_pairs=20, prior=0.5)
        bound = attacker.theoretical_single_round_bound()
        for observed in (140, 150, 160, 171, 200):
            ratio = attacker.likelihood_ratio(observed)
            assert 1.0 / (bound * 1.0001) <= ratio <= bound * 1.0001

    def test_posterior_moves_but_stays_bounded_per_round(self):
        noise = LaplaceParams(mu=150, b=10)
        attacker = BayesianAttacker(noise_params=noise, baseline_pairs=0, prior=0.5)
        posterior = attacker.update(observed_m2=160)
        assert 0.5 < posterior < 0.53  # e^eps = e^0.1 ~ 1.105 caps the movement
        assert attacker.observations == 1
        assert attacker.belief_gain <= math.exp(0.1) * 1.001

    def test_little_noise_lets_belief_harden(self):
        noise = LaplaceParams(mu=1, b=0.2)
        attacker = BayesianAttacker(noise_params=noise, baseline_pairs=0, prior=0.5)
        for _ in range(5):
            attacker.update(observed_m2=2)
        assert attacker.posterior > 0.99

    def test_invalid_prior_rejected(self):
        with pytest.raises(ConfigurationError):
            BayesianAttacker(noise_params=LaplaceParams(10, 1), prior=0.0)
