"""End-to-end integration tests of the full Vuvuzela system.

These run the real protocol — real X25519, real onion encryption, real mixing
and real (small) noise — through the in-process network, exercising the same
code paths a deployment would, just at a small scale.
"""

from __future__ import annotations

import pytest

from repro import VuvuzelaConfig, VuvuzelaSystem
from repro.errors import ProtocolError
from repro.net import CLIENTS, LinkRule


@pytest.fixture
def system() -> VuvuzelaSystem:
    return VuvuzelaSystem(VuvuzelaConfig.small(seed=7))


class TestConversationRounds:
    def test_two_users_exchange_messages(self, system):
        alice, bob = system.add_client("alice"), system.add_client("bob")
        alice.start_conversation(bob.public_key)
        bob.start_conversation(alice.public_key)
        alice.send_message("hello Bob!")
        bob.send_message("hello Alice!")

        metrics = system.run_conversation_round()

        assert alice.messages_from(bob.public_key) == [b"hello Alice!"]
        assert bob.messages_from(alice.public_key) == [b"hello Bob!"]
        assert metrics.client_requests == 2
        assert metrics.delivered_responses == 2
        assert metrics.histogram is not None and metrics.histogram.pairs >= 1
        assert metrics.bytes_moved > 0

    def test_multi_round_conversation_queues_messages(self, system):
        alice, bob = system.add_client("alice"), system.add_client("bob")
        alice.start_conversation(bob.public_key)
        bob.start_conversation(alice.public_key)
        for i in range(3):
            alice.send_message(f"message {i}")
        for _ in range(4):
            system.run_conversation_round()
        assert bob.messages_from(alice.public_key) == [b"message 0", b"message 1", b"message 2"]

    def test_idle_clients_participate_without_receiving(self, system):
        system.add_client("alice")
        system.add_client("bob")
        idle = system.add_client("carol")
        metrics = system.run_conversation_round()
        assert metrics.client_requests == 3
        assert idle.received == []
        assert idle.rounds_participated == 1

    def test_unreciprocated_conversation_delivers_nothing(self, system):
        alice, bob = system.add_client("alice"), system.add_client("bob")
        alice.start_conversation(bob.public_key)  # Bob does not reciprocate
        alice.send_message("anyone there?")
        system.run_conversation_round()
        assert alice.received == []
        assert bob.received == []
        # Alice's message is retransmitted until the exchange really happens.
        assert alice.outbox.pending == 1

    def test_blocked_client_loses_round_and_retransmits(self, system):
        alice, bob = system.add_client("alice"), system.add_client("bob")
        alice.start_conversation(bob.public_key)
        bob.start_conversation(alice.public_key)
        alice.send_message("will be delayed")

        for match in ({"source": "alice"}, {"destination": "alice"}):
            system.add_link_rule(CLIENTS, LinkRule("drop", **match))
        metrics = system.run_conversation_round()
        assert metrics.lost_requests >= 1
        assert bob.messages_from(alice.public_key) == []
        assert alice.rounds_lost == 1

        system.heal_links(CLIENTS)
        system.run_conversation_round()
        assert bob.messages_from(alice.public_key) == [b"will be delayed"]

    def test_noise_is_added_by_mixing_servers(self):
        config = VuvuzelaConfig.small(seed=3, conversation_mu=20)
        system = VuvuzelaSystem(config)
        system.add_client("alice")
        metrics = system.run_conversation_round()
        # Two mixing servers, each adding about 2 * mu = 40 requests.
        assert metrics.noise_requests > 20
        assert metrics.total_requests == metrics.noise_requests + 1

    def test_round_numbers_advance(self, system):
        system.add_client("alice")
        assert system.next_conversation_round == 0
        first = system.run_conversation_round()
        second = system.run_conversation_round()
        assert (first.round_number, second.round_number) == (0, 1)
        assert system.next_conversation_round == 2

    def test_privacy_budget_is_spent_per_round(self, system):
        system.add_client("alice")
        before = system.conversation_accountant.rounds_used
        system.run_conversation_round()
        assert system.conversation_accountant.rounds_used == before + 1
        # The accumulated guarantee degrades monotonically with rounds spent.
        assert system.conversation_accountant.current_guarantee().epsilon > 0

    def test_duplicate_client_names_rejected(self, system):
        system.add_client("alice")
        with pytest.raises(ProtocolError):
            system.add_client("alice")


class TestDialingRounds:
    def test_dial_then_converse(self, system):
        alice, bob = system.add_client("alice"), system.add_client("bob")
        alice.dial(bob.public_key)
        dial_metrics = system.run_dialing_round()
        assert dial_metrics.real_invitations == 1
        assert dial_metrics.noise_invitations > 0

        assert len(bob.incoming_calls) == 1
        call = bob.incoming_calls[0]
        assert call.caller == alice.public_key

        # Both enter the conversation; Alice pre-emptively, Bob by accepting.
        alice.start_conversation(bob.public_key)
        bob.accept_call(call)
        alice.send_message("thanks for picking up")
        system.run_conversation_round()
        assert bob.messages_from(alice.public_key) == [b"thanks for picking up"]

    def test_non_dialing_clients_send_noop_requests(self, system):
        system.add_client("alice")
        system.add_client("bob")
        metrics = system.run_dialing_round()
        assert metrics.client_requests == 2
        assert metrics.real_invitations == 0
        # Nobody gets called.
        assert all(not c.incoming_calls for c in system.clients.values())

    def test_bucket_sizes_are_observable_and_noisy(self, system):
        alice, bob = system.add_client("alice"), system.add_client("bob")
        alice.dial(bob.public_key)
        metrics = system.run_dialing_round()
        sizes = metrics.bucket_sizes
        assert sum(sizes.values()) == metrics.total_invitations
        store = system.invitation_store(0)
        assert store.num_buckets == system.config.num_dialing_buckets

    def test_dialing_budget_is_spent(self, system):
        system.add_client("alice")
        system.run_dialing_round()
        assert system.dialing_accountant.rounds_used == 1
