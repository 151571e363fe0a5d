"""Tests for the conversation protocol: wire formats, client and server logic."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conversation import (
    ConversationProcessor,
    ConversationRows,
    ConversationSession,
    EMPTY_MESSAGE_BOX,
    EXCHANGE_REQUEST_SIZE,
    ExchangeRequest,
    MAX_MESSAGE_SIZE,
    MESSAGE_BOX_SIZE,
    build_noise_request,
    conversation_noise_builder,
    decrypt_message,
    directional_keys,
    encrypt_message,
    round_dead_drop,
)
from repro.crypto import DeterministicRandom, KeyPair, request_size
from repro.errors import ProtocolError
from repro.mixnet import CoverTrafficSpec, build_chain
from repro.privacy import LaplaceParams


class TestMessages:
    def test_exchange_request_encode_decode(self, rng):
        request = ExchangeRequest(
            dead_drop_id=b"\x01" * 16, message_box=b"\x02" * MESSAGE_BOX_SIZE
        )
        assert ExchangeRequest.decode(request.encode()) == request
        assert len(request.encode()) == EXCHANGE_REQUEST_SIZE

    def test_exchange_request_validation(self):
        with pytest.raises(ProtocolError):
            ExchangeRequest(dead_drop_id=b"short", message_box=b"\x00" * MESSAGE_BOX_SIZE)
        with pytest.raises(ProtocolError):
            ExchangeRequest(dead_drop_id=b"\x01" * 16, message_box=b"short")
        with pytest.raises(ProtocolError):
            ExchangeRequest.decode(b"\x00" * 10)

    def test_paper_sizes(self):
        """256-byte messages with 16 bytes of encryption overhead (§8.1)."""
        assert MESSAGE_BOX_SIZE == 256
        assert MAX_MESSAGE_SIZE == 240
        assert EXCHANGE_REQUEST_SIZE == 272

    def test_directional_encryption_roundtrip(self, alice, bob):
        shared = alice.exchange(bob.public)
        alice_send, alice_recv = directional_keys(shared, bytes(alice.public), bytes(bob.public))
        bob_send, bob_recv = directional_keys(shared, bytes(bob.public), bytes(alice.public))
        assert alice_send == bob_recv
        assert bob_send == alice_recv
        assert alice_send != alice_recv

        box = encrypt_message(alice_send, 3, b"hello Bob")
        assert len(box) == MESSAGE_BOX_SIZE
        assert decrypt_message(bob_recv, 3, box) == b"hello Bob"

    def test_decrypt_with_wrong_key_returns_none(self, alice, bob, rng):
        shared = alice.exchange(bob.public)
        send, _ = directional_keys(shared, bytes(alice.public), bytes(bob.public))
        box = encrypt_message(send, 1, b"secret")
        assert decrypt_message(rng.random_bytes(32), 1, box) is None
        assert decrypt_message(send, 2, box) is None  # wrong round
        assert decrypt_message(send, 1, EMPTY_MESSAGE_BOX) is None
        assert decrypt_message(send, 1, b"short") is None

    def test_empty_message_roundtrip(self, alice, bob):
        shared = alice.exchange(bob.public)
        send, recv = directional_keys(shared, bytes(alice.public), bytes(bob.public))
        box = encrypt_message(send, 9, b"")
        assert decrypt_message(send, 9, box) == b""

    def test_oversized_message_rejected(self, alice, bob):
        shared = alice.exchange(bob.public)
        send, _ = directional_keys(shared, bytes(alice.public), bytes(bob.public))
        with pytest.raises(ProtocolError):
            encrypt_message(send, 1, b"x" * MAX_MESSAGE_SIZE)

    def test_dead_drop_agreement_and_freshness(self, alice, bob):
        """Both partners derive the same dead drop; it changes every round."""
        drop_a = round_dead_drop(alice.exchange(bob.public), 5)
        drop_b = round_dead_drop(bob.exchange(alice.public), 5)
        assert drop_a == drop_b
        assert round_dead_drop(alice.exchange(bob.public), 6) != drop_a

    @given(st.binary(max_size=MAX_MESSAGE_SIZE - 1), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_message_roundtrip_property(self, message: bytes, round_number: int):
        key = b"\x11" * 32
        assert decrypt_message(key, round_number, encrypt_message(key, round_number, message)) == message


class TestClientRequests:
    def test_real_and_fake_requests_have_identical_size(self, rng, server_keys, alice, bob):
        rows = ConversationRows([k.public for k in server_keys], [rng, rng])
        rows.keys[0] = ConversationSession(own_keys=alice, peer_public_key=bob.public).keys
        real, fake = rows.build(1, [b"hi", b""])
        assert len(real) == len(fake) == request_size(EXCHANGE_REQUEST_SIZE, 3)

    def test_an_idle_row_never_yields_a_message(self, rng, server_keys):
        rows = ConversationRows([k.public for k in server_keys], [rng])
        rows.build(1, [b""])
        assert rows.decode(1, [b"\x00" * 100]) == [(None, None)]
        assert rows.pending == {}

    def test_session_state_is_symmetric(self, alice, bob):
        alice_session = ConversationSession(own_keys=alice, peer_public_key=bob.public)
        bob_session = ConversationSession(own_keys=bob, peer_public_key=alice.public)
        assert alice_session.shared_secret() == bob_session.shared_secret()
        assert alice_session.dead_drop_for_round(4) == bob_session.dead_drop_for_round(4)
        a_send, a_recv = alice_session.directional_keys()
        b_send, b_recv = bob_session.directional_keys()
        assert a_send == b_recv and b_send == a_recv


    def test_session_state_is_stable_across_rounds_and_per_peer(self, rng, alice, bob):
        """The secret and keys are computed once per session: every round sees
        the same values a fresh session derives, and two sessions with
        different peers share nothing."""
        carol = KeyPair.generate(rng)
        with_bob = ConversationSession(own_keys=alice, peer_public_key=bob.public)
        with_carol = ConversationSession(own_keys=alice, peer_public_key=carol.public)
        for round_number in range(4):
            fresh = ConversationSession(own_keys=alice, peer_public_key=bob.public)
            assert with_bob.shared_secret() == fresh.shared_secret() == alice.exchange(bob.public)
            assert with_bob.directional_keys() == fresh.directional_keys()
            assert with_bob.dead_drop_for_round(round_number) == round_dead_drop(
                alice.exchange(bob.public), round_number
            )
        assert with_carol.shared_secret() == alice.exchange(carol.public)
        assert with_carol.shared_secret() != with_bob.shared_secret()
        assert with_carol.directional_keys() != with_bob.directional_keys()
        assert with_carol.dead_drop_for_round(1) != with_bob.dead_drop_for_round(1)


class TestProcessorAndNoise:
    def test_processor_exchanges_paired_requests(self, rng, alice, bob):
        shared = alice.exchange(bob.public)
        a_send, a_recv = directional_keys(shared, bytes(alice.public), bytes(bob.public))
        b_send, b_recv = directional_keys(shared, bytes(bob.public), bytes(alice.public))
        drop = round_dead_drop(shared, 1)
        processor = ConversationProcessor()
        payloads = [
            ExchangeRequest(drop, encrypt_message(a_send, 1, b"hi bob")).encode(),
            ExchangeRequest(drop, encrypt_message(b_send, 1, b"hi alice")).encode(),
        ]
        responses = processor(1, payloads)
        assert decrypt_message(a_recv, 1, responses[0]) == b"hi alice"
        assert decrypt_message(b_recv, 1, responses[1]) == b"hi bob"
        histogram = processor.histogram(1)
        assert histogram.pairs == 1 and histogram.singles == 0

    def test_processor_returns_filler_for_lonely_requests(self, rng):
        processor = ConversationProcessor()
        payload = build_noise_request(rng)
        responses = processor(1, [payload])
        assert responses == [EMPTY_MESSAGE_BOX]
        assert processor.histogram(1).singles == 1

    def test_processor_handles_malformed_payloads(self):
        processor = ConversationProcessor()
        responses = processor(1, [b"way-too-short"])
        assert responses == [EMPTY_MESSAGE_BOX]
        strict = ConversationProcessor(strict=True)
        with pytest.raises(ProtocolError):
            strict(1, [b"way-too-short"])

    def test_processor_response_count_matches_request_count(self, rng):
        processor = ConversationProcessor()
        payloads = [build_noise_request(rng) for _ in range(25)]
        assert len(processor(2, payloads)) == 25

    def test_noise_requests_have_real_size_and_random_drops(self, rng):
        a, b = build_noise_request(rng), build_noise_request(rng)
        assert len(a) == len(b) == EXCHANGE_REQUEST_SIZE
        assert ExchangeRequest.decode(a).dead_drop_id != ExchangeRequest.decode(b).dead_drop_id

    def test_noise_builder_produces_singles_and_pairs(self, rng):
        spec = CoverTrafficSpec(params=LaplaceParams(mu=20, b=2), exact=True)
        builder = conversation_noise_builder(spec)
        requests = builder(1, rng)
        assert len(requests) == 20 + 2 * 10
        # Singles first, then each pair's two requests side by side.
        drops = [ExchangeRequest.decode(r).dead_drop_id for r in requests]
        assert len(set(drops[:20])) == 20
        assert all(drops[i] == drops[i + 1] for i in range(20, 40, 2))
        assert len(set(drops)) == 30
        # The paired requests share dead drops: the processor must see pairs.
        processor = ConversationProcessor()
        processor(1, requests)
        assert processor.histogram(1).pairs == 10
        assert processor.histogram(1).singles == 20

    def test_full_round_through_mix_chain(self, rng, server_keys, alice, bob):
        """Integration: two clients exchange messages through a noisy 3-server chain."""
        publics = [k.public for k in server_keys]
        spec = CoverTrafficSpec(params=LaplaceParams(mu=8, b=2), exact=False)
        processor = ConversationProcessor()
        chain = build_chain(
            server_keys,
            processor,
            rng=rng,
            noise_builder_factory=lambda i: (
                conversation_noise_builder(spec) if i < len(server_keys) - 1 else None
            ),
        )
        alice_session = ConversationSession(own_keys=alice, peer_public_key=bob.public)
        bob_session = ConversationSession(own_keys=bob, peer_public_key=alice.public)

        rows = ConversationRows(publics, [rng] * 3)
        rows.keys[:2] = [alice_session.keys, bob_session.keys]
        rows.owners[:2] = ["alice", "bob"]
        wires = rows.build(7, [b"hello bob", b"hello alice", b""])

        responses = chain.run_round(7, wires)
        assert rows.decode(7, responses) == [
            ("alice", b"hello alice"),
            ("bob", b"hello bob"),
            (None, None),
        ]

        histogram = processor.histogram(7)
        assert histogram.pairs >= 1  # Alice<->Bob plus possibly noise pairs
        assert histogram.singles >= 1  # the idle client plus noise singles
