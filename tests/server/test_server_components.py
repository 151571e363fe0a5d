"""Tests for batch framing, the entry server, chain endpoints and the last
server's per-round retention."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conversation import ConversationProcessor
from repro.crypto import DeterministicRandom, KeyPair, unwrap_response, wrap_request
from repro.dialing import DialingProcessor
from repro.errors import NetworkError, ProtocolError
from repro.mixnet import MixServer
from repro.net import LinkConditioner, LinkRule, MessageKind, Network
from repro.server import ChainServerEndpoint, EntryServer, decode_batch, encode_batch


class TestBatchFraming:
    def test_roundtrip(self):
        batch = [b"first", b"", b"third-request"]
        assert decode_batch(encode_batch(7, batch)) == (7, 1, batch)

    def test_roundtrip_carries_the_attempt(self):
        batch = [b"retry-me"]
        assert decode_batch(encode_batch(7, batch, 3)) == (7, 3, batch)

    def test_empty_batch(self):
        assert decode_batch(encode_batch(0, [])) == (0, 1, [])

    @given(
        st.lists(st.binary(max_size=64), max_size=20),
        st.integers(min_value=0, max_value=2**60),
        st.integers(min_value=1, max_value=2**31),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, batch: list[bytes], round_number: int, attempt: int):
        assert decode_batch(encode_batch(round_number, batch, attempt)) == (
            round_number,
            attempt,
            batch,
        )


def _build_two_server_chain(rng):
    """A network with an entry server and a two-server conversation chain."""
    network = Network()
    keypairs = [KeyPair.generate(rng) for _ in range(2)]
    publics = [k.public for k in keypairs]
    processed: dict[int, int] = {}

    def processor(round_number, payloads):
        processed[round_number] = len(payloads)
        return [payload.upper() for payload in payloads]

    endpoints = []
    for index, keypair in enumerate(keypairs):
        is_last = index == 1
        endpoints.append(
            ChainServerEndpoint(
                name=f"server-{index}/conversation",
                mix_server=MixServer(
                    index=index,
                    keypair=keypair,
                    chain_public_keys=publics,
                    rng=rng.fork(f"s{index}"),
                ),
                network=network,
                next_endpoint=None if is_last else "server-1/conversation",
                processor=processor if is_last else None,
            )
        )
    entry = EntryServer(
        network=network,
        first_server={MessageKind.CONVERSATION_REQUEST: "server-0/conversation"},
    )
    return network, entry, publics, processed


class TestEntryAndChainEndpoints:
    def test_round_through_network(self, rng):
        network, entry, publics, processed = _build_two_server_chain(rng)
        wire, ctx = wrap_request(b"hello", publics, 3, rng)
        ack = entry.admit(MessageKind.CONVERSATION_REQUEST, 3, "alice", wire)
        assert ack == b"ok"
        assert entry.pending_requests(MessageKind.CONVERSATION_REQUEST, 3) == 1
        responses = entry.run_round_grouped(MessageKind.CONVERSATION_REQUEST, 3)
        assert set(responses) == {"alice"}
        assert unwrap_response(responses["alice"][0], ctx) == b"HELLO"
        assert processed[3] == 1
        # The buffer is consumed by running the round.
        assert entry.pending_requests(MessageKind.CONVERSATION_REQUEST, 3) == 0

    def test_multiple_clients_keep_their_responses(self, rng):
        network, entry, publics, _ = _build_two_server_chain(rng)
        contexts = {}
        for name in ("alice", "bob", "charlie"):
            wire, ctx = wrap_request(name.encode(), publics, 1, rng)
            contexts[name] = ctx
            entry.admit(MessageKind.CONVERSATION_REQUEST, 1, name, wire)
        responses = entry.run_round_grouped(MessageKind.CONVERSATION_REQUEST, 1)
        for name, ctx in contexts.items():
            assert unwrap_response(responses[name][0], ctx) == name.encode().upper()

    def test_unknown_kind_rejected_by_entry(self, rng):
        network, entry, publics, _ = _build_two_server_chain(rng)
        with pytest.raises(ProtocolError):
            entry.admit(MessageKind.DIALING_REQUEST, 0, "alice", b"payload")

    def test_empty_round_is_fine(self, rng):
        _, entry, _, processed = _build_two_server_chain(rng)
        assert entry.run_round_grouped(MessageKind.CONVERSATION_REQUEST, 9) == {}
        assert processed[9] == 0

    def test_blocked_inter_server_link_fails_the_round(self, rng):
        network, entry, publics, _ = _build_two_server_chain(rng)
        wire, _ = wrap_request(b"x", publics, 2, rng)
        entry.admit(MessageKind.CONVERSATION_REQUEST, 2, "alice", wire)
        network.link_conditioner = LinkConditioner()
        network.link_conditioner.add_rule(LinkRule("drop", destination="server-1/conversation"))
        with pytest.raises(NetworkError):
            entry.run_round_grouped(MessageKind.CONVERSATION_REQUEST, 2)
        # The failed batch stays buffered for the coordinator's retry.
        assert entry.pending_requests(MessageKind.CONVERSATION_REQUEST, 2) == 1

    def test_last_server_requires_processor(self, rng):
        network = Network()
        keypair = KeyPair.generate(rng)
        with pytest.raises(ProtocolError):
            ChainServerEndpoint(
                name="server-0/conversation",
                mix_server=MixServer(
                    index=0, keypair=keypair, chain_public_keys=[keypair.public], rng=rng
                ),
                network=network,
                next_endpoint=None,
                processor=None,
            )


class TestLastServerRetention:
    @pytest.mark.parametrize(
        "make, table, lookup",
        [
            (lambda: ConversationProcessor(keep_rounds=2), "histograms", "histogram"),
            (
                lambda: DialingProcessor(num_buckets=2, keep_rounds=2),
                "stores",
                "store_for_round",
            ),
        ],
        ids=["conversation", "dialing"],
    )
    def test_only_the_newest_rounds_are_kept(self, make, table, lookup):
        """``keep_rounds`` bounds the per-round state a continuously running
        last server holds: rounds more than ``keep_rounds`` behind the newest
        are swept as each round lands."""
        processor = make()
        for round_number in range(6):
            assert processor(round_number, []) == []
        assert sorted(getattr(processor, table)) == [3, 4, 5]
        assert getattr(processor, lookup)(5) is getattr(processor, table)[5]
