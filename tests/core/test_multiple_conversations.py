"""Tests for the §9 "multiple conversations" extension.

A client configured with N conversation slots sends exactly N exchange
requests every round — real exchanges for active conversations, fakes for the
rest — so the number of active conversations is never observable, while each
conversation proceeds independently.
"""

from __future__ import annotations

import pytest

from repro import VuvuzelaConfig, VuvuzelaSystem
from repro.crypto import DeterministicRandom, KeyPair
from repro.client import VuvuzelaClient
from repro.errors import ProtocolError


def _multi_system(max_conversations: int = 2, seed: int = 31) -> VuvuzelaSystem:
    base = VuvuzelaConfig.small(seed=seed)
    return VuvuzelaSystem(
        VuvuzelaConfig(
            num_servers=base.num_servers,
            conversation_noise=base.conversation_noise,
            dialing_noise=base.dialing_noise,
            seed=seed,
            max_conversations_per_client=max_conversations,
        )
    )


class TestClientSlots:
    def _client(self, max_conversations: int) -> VuvuzelaClient:
        rng = DeterministicRandom(5)
        servers = [KeyPair.generate(rng).public for _ in range(3)]
        return VuvuzelaClient(
            name="alice",
            keys=KeyPair.generate(rng),
            server_public_keys=servers,
            rng=rng,
            max_conversations=max_conversations,
        )

    def test_request_count_is_fixed_regardless_of_activity(self):
        client = self._client(3)
        assert len(client.build_conversation_requests(0)) == 3
        client.handle_conversation_responses(0, [None, None, None])
        peer = KeyPair.generate(DeterministicRandom(6))
        client.start_conversation(peer.public)
        assert len(client.build_conversation_requests(1)) == 3
        client.handle_conversation_responses(1, [None, None, None])

    def test_all_requests_have_identical_size(self):
        client = self._client(2)
        peer = KeyPair.generate(DeterministicRandom(7))
        client.start_conversation(peer.public)
        client.send_message("only one real conversation")
        wires = client.build_conversation_requests(0)
        assert len({len(w) for w in wires}) == 1

    def test_oldest_conversation_evicted_when_full(self):
        client = self._client(2)
        rng = DeterministicRandom(8)
        peers = [KeyPair.generate(rng).public for _ in range(3)]
        for peer in peers:
            client.start_conversation(peer)
        assert client.active_conversations == peers[1:]

    def test_starting_same_conversation_twice_is_idempotent(self):
        client = self._client(2)
        peer = KeyPair.generate(DeterministicRandom(9)).public
        client.start_conversation(peer)
        client.start_conversation(peer)
        assert client.active_conversations == [peer]

    def test_end_specific_conversation(self):
        client = self._client(2)
        rng = DeterministicRandom(10)
        first, second = KeyPair.generate(rng).public, KeyPair.generate(rng).public
        client.start_conversation(first)
        client.start_conversation(second)
        client.end_conversation(first)
        assert client.active_conversations == [second]
        client.end_conversation()
        assert client.active_conversations == []

    def test_send_to_unknown_peer_rejected(self):
        client = self._client(2)
        rng = DeterministicRandom(11)
        known, unknown = KeyPair.generate(rng).public, KeyPair.generate(rng).public
        client.start_conversation(known)
        with pytest.raises(ProtocolError):
            client.send_message("hello", peer=unknown)

    def test_a_client_needs_a_slot(self):
        with pytest.raises(ProtocolError):
            VuvuzelaClient(
                name="x",
                keys=KeyPair.generate(DeterministicRandom(1)),
                server_public_keys=[],
                max_conversations=0,
            )

    def test_mismatched_response_count_rejected(self):
        client = self._client(2)
        client.build_conversation_requests(0)
        with pytest.raises(ProtocolError):
            client.handle_conversation_responses(0, [None])


class TestMultiConversationRounds:
    def test_client_converses_with_two_partners_concurrently(self):
        system = _multi_system(max_conversations=2)
        alice = system.add_client("alice")
        bob = system.add_client("bob")
        charlie = system.add_client("charlie")

        alice.start_conversation(bob.public_key)
        alice.start_conversation(charlie.public_key)
        bob.start_conversation(alice.public_key)
        charlie.start_conversation(alice.public_key)

        alice.send_message("hi bob", peer=bob.public_key)
        alice.send_message("hi charlie", peer=charlie.public_key)
        bob.send_message("hello alice")
        charlie.send_message("greetings alice")

        metrics = system.run_conversation_round()
        # Every client sends two requests regardless of how many conversations it has.
        assert metrics.client_requests == 6
        assert metrics.histogram is not None and metrics.histogram.pairs >= 2

        assert bob.messages_from(alice.public_key) == [b"hi bob"]
        assert charlie.messages_from(alice.public_key) == [b"hi charlie"]
        assert sorted(m.body for m in alice.received) == [b"greetings alice", b"hello alice"]

    def test_idle_slots_do_not_leak_into_metrics(self):
        system = _multi_system(max_conversations=3, seed=32)
        system.add_client("alice")
        system.add_client("bob")
        metrics = system.run_conversation_round()
        assert metrics.client_requests == 6
        # Nobody converses: every client request is a fake single access.
        assert metrics.histogram is not None
        assert metrics.messages_exchanged <= metrics.noise_requests

    def test_config_validates_slot_count(self):
        with pytest.raises(Exception):
            VuvuzelaConfig(max_conversations_per_client=0)
