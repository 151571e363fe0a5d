"""Tests for client-side state: outbox and client behaviour."""

from __future__ import annotations

import pytest

from repro.client import Outbox, VuvuzelaClient
from repro.client.client import build_dialing_round
from repro.crypto import DeterministicRandom, KeyPair
from repro.errors import ProtocolError
from repro.runtime.engine import RoundEngine


class TestOutbox:
    def test_messages_are_sent_in_order(self):
        outbox = Outbox()
        outbox.enqueue(b"first")
        outbox.enqueue(b"second")
        assert outbox.next_message() == b"first"
        outbox.mark_delivered()
        assert outbox.next_message() == b"second"
        outbox.mark_delivered()
        assert outbox.next_message() == b""

    def test_lost_round_retransmits_same_message(self):
        outbox = Outbox()
        outbox.enqueue(b"important")
        assert outbox.next_message() == b"important"
        outbox.mark_lost()
        assert outbox.next_message() == b"important"
        outbox.mark_delivered()
        assert outbox.next_message() == b""

    def test_pending_counts_queue_and_in_flight(self):
        outbox = Outbox()
        assert outbox.pending == 0
        outbox.enqueue(b"a")
        outbox.enqueue(b"b")
        assert outbox.pending == 2
        outbox.next_message()
        assert outbox.pending == 2
        outbox.mark_delivered()
        assert outbox.pending == 1

    def test_empty_outbox_sends_empty_message(self):
        assert Outbox().next_message() == b""


class TestVuvuzelaClientUnit:
    def _client(self, name: str = "alice") -> VuvuzelaClient:
        rng = DeterministicRandom(name)
        servers = [KeyPair.generate(rng).public for _ in range(3)]
        return VuvuzelaClient(
            name=name, keys=KeyPair.generate(rng), server_public_keys=servers, rng=rng
        )

    def test_send_message_requires_active_conversation(self):
        client = self._client()
        with pytest.raises(ProtocolError):
            client.send_message("hello")

    def test_send_message_accepts_str_and_bytes(self):
        client = self._client()
        peer = KeyPair.generate(DeterministicRandom(2))
        client.start_conversation(peer.public)
        client.send_message("text")
        client.send_message(b"bytes")
        assert client.outbox.pending == 2

    def test_idle_and_active_requests_have_same_size(self):
        client = self._client()
        idle_wire = client.build_conversation_requests(0)[0]
        client.handle_conversation_responses(0, [None])
        peer = KeyPair.generate(DeterministicRandom(3))
        client.start_conversation(peer.public)
        client.send_message("hello")
        active_wire = client.build_conversation_requests(1)[0]
        assert len(idle_wire) == len(active_wire)

    def test_response_for_wrong_round_rejected(self):
        client = self._client()
        client.build_conversation_requests(0)[0]
        with pytest.raises(ProtocolError):
            client.handle_conversation_responses(5, [None])

    def test_response_without_request_rejected(self):
        client = self._client()
        with pytest.raises(ProtocolError):
            client.handle_conversation_responses(0, [b"data"])
        with pytest.raises(ProtocolError):
            client.handle_dialing_response(0, b"data")

    def test_lost_round_is_counted_and_message_retransmitted(self):
        client = self._client()
        peer = KeyPair.generate(DeterministicRandom(4))
        client.start_conversation(peer.public)
        client.send_message("keep me")
        client.build_conversation_requests(0)[0]
        client.handle_conversation_responses(0, [None])
        assert client.rounds_lost == 1
        assert client.outbox.pending == 1  # still queued for retransmission

    def test_dial_is_one_shot(self):
        client = self._client()
        peer = KeyPair.generate(DeterministicRandom(5))
        client.dial(peer.public)
        client.build_dialing_request(0, num_buckets=1)
        assert client.dial_target is None
        client.handle_dialing_response(0, b"")
        # The next dialing round sends a no-op unless the user dials again.
        client.build_dialing_request(1, num_buckets=1)
        client.handle_dialing_response(1, b"")
        assert client.rounds_lost == 0

    def test_a_dial_made_while_the_round_builds_waits_for_the_next_round(self):
        """The crypto of a dialing build may run on the driver's pool after
        the draws; a dial() in that gap was not drawn, so it must survive."""
        client = self._client()
        first, second = (KeyPair.generate(DeterministicRandom(seed)) for seed in (5, 6))

        class DialsMidBuild(RoundEngine):
            def wrap_dial_chunks(self, *args):
                client.dial(second.public)
                return super().wrap_dial_chunks(*args)

        client.dial(first.public)
        build_dialing_round([client], 0, 1, DialsMidBuild(workers=1))
        assert client.dial_target == second.public
        build_dialing_round([client], 1, 1, RoundEngine(workers=1))
        assert client.dial_target is None
