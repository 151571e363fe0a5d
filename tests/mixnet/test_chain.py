"""End-to-end tests of the generic mix chain (peel, noise, mix, respond)."""

from __future__ import annotations

import pytest

from repro.crypto import DeterministicRandom, KeyPair, unwrap_response, wrap_request
from repro.errors import ProtocolError
from repro.mixnet import MixChain, MixServer, ServerRoundView, build_chain


def uppercase_processor(round_number: int, payloads: list[bytes]) -> list[bytes]:
    """A trivial last-server processor used to test the plumbing."""
    return [payload.upper() for payload in payloads]


def make_chain(num_servers: int, rng, processor=uppercase_processor, noise_factory=None):
    keypairs = [KeyPair.generate(rng) for _ in range(num_servers)]
    chain = build_chain(keypairs, processor, rng=rng, noise_builder_factory=noise_factory)
    return keypairs, chain


class TestMixChain:
    def test_single_request_roundtrip(self, rng):
        keypairs, chain = make_chain(3, rng)
        wire, ctx = wrap_request(b"hello", [k.public for k in keypairs], 1, rng)
        responses = chain.run_round(1, [wire])
        assert unwrap_response(responses[0], ctx) == b"HELLO"

    def test_many_requests_keep_their_alignment(self, rng):
        keypairs, chain = make_chain(3, rng)
        publics = [k.public for k in keypairs]
        wires, contexts, expected = [], [], []
        for i in range(40):
            payload = f"request-{i}".encode()
            wire, ctx = wrap_request(payload, publics, 2, rng)
            wires.append(wire)
            contexts.append(ctx)
            expected.append(payload.upper())
        responses = chain.run_round(2, wires)
        assert len(responses) == 40
        for response, ctx, want in zip(responses, contexts, expected):
            assert unwrap_response(response, ctx) == want

    def test_single_server_chain_works(self, rng):
        keypairs, chain = make_chain(1, rng)
        wire, ctx = wrap_request(b"solo", [keypairs[0].public], 3, rng)
        assert unwrap_response(chain.run_round(3, [wire])[0], ctx) == b"SOLO"

    def test_noise_is_added_and_stripped(self, rng):
        """Noise requests reach the processor but never reach the clients."""
        seen_batches: list[int] = []

        def counting_processor(round_number: int, payloads: list[bytes]) -> list[bytes]:
            seen_batches.append(len(payloads))
            return [b"resp" for _ in payloads]

        def noise_factory(index: int):
            if index == 2:  # last server adds no noise
                return None

            def build(round_number: int, noise_rng) -> list[bytes]:
                return [b"noise-a", b"noise-b", b"noise-c"]

            return build

        keypairs, chain = make_chain(3, rng, counting_processor, noise_factory)
        publics = [k.public for k in keypairs]
        wire, ctx = wrap_request(b"real", publics, 4, rng)
        responses = chain.run_round(4, [wire])
        # 1 real + 3 noise from server 0 + 3 noise from server 1.
        assert seen_batches == [7]
        assert len(responses) == 1
        assert unwrap_response(responses[0], ctx) == b"resp"

    def test_each_attempt_draws_fresh_noise_from_its_own_fork(self):
        """A §6 retry re-draws the round's noise: the batch a server adds is a
        pure function of (seed, round, attempt), identical when an attempt is
        re-run and different for the next attempt."""

        def noise_factory(index: int):
            def build(round_number: int, noise_rng) -> list[bytes]:
                return [noise_rng.random_bytes(16) for _ in range(4)]

            return None if index == 1 else build

        def noise_seen(attempt: int) -> list[bytes]:
            seen: list[bytes] = []

            def recording_processor(round_number: int, payloads: list[bytes]) -> list[bytes]:
                seen.extend(payloads)
                return [b"" for _ in payloads]

            _, chain = make_chain(
                2, DeterministicRandom(99), recording_processor, noise_factory
            )
            chain.run_round(5, [], attempt=attempt)
            return sorted(seen)

        first = noise_seen(1)
        assert len(first) == 4
        assert noise_seen(1) == first
        assert noise_seen(2) != first

    def test_malformed_request_gets_empty_response(self, rng):
        keypairs, chain = make_chain(2, rng)
        publics = [k.public for k in keypairs]
        good, ctx = wrap_request(b"fine", publics, 5, rng)
        responses = chain.run_round(5, [b"garbage-that-is-long-enough-to-parse-as-a-layer-0000000000", good])
        assert responses[0] == b""
        assert unwrap_response(responses[1], ctx) == b"FINE"

    def test_request_for_wrong_round_is_rejected(self, rng):
        keypairs, chain = make_chain(2, rng)
        publics = [k.public for k in keypairs]
        wire, _ = wrap_request(b"stale", publics, round_number=6, rng=rng)
        responses = chain.run_round(7, [wire])
        assert responses[0] == b""

    def test_observer_reports_round_view(self, rng):
        views: list[ServerRoundView] = []
        keypairs, chain = make_chain(2, rng)
        chain.servers[0].observer = views.append
        publics = [k.public for k in keypairs]
        wire, _ = wrap_request(b"x", publics, 8, rng)
        chain.run_round(8, [wire, b"malformed-but-long-enough-to-try-peeling-0123456789012345678901234567"])
        assert len(views) == 1
        view = views[0]
        assert view.server_index == 0
        assert view.incoming_requests == 2
        assert view.malformed_requests == 1
        assert view.forwarded_requests == 1

    def test_ingress_filter_can_discard_requests(self, rng):
        """Models a compromised first server discarding everyone but Alice."""
        seen: list[int] = []

        def processor(round_number, payloads):
            seen.append(len(payloads))
            return [b"" for _ in payloads]

        keypairs, chain = make_chain(2, rng, processor)
        chain.servers[0].ingress_filter = lambda rn, batch: batch[:1]
        publics = [k.public for k in keypairs]
        wires = [wrap_request(f"user-{i}".encode(), publics, 9, rng)[0] for i in range(5)]
        responses = chain.run_round(9, wires)
        assert seen == [1]
        assert len(responses) == 5

    def test_ingress_filter_dropping_middle_keeps_keys_aligned(self, rng):
        """Regression: dropping a *non-suffix* request must not shift the
        response keys of the survivors (they used to be paired with the
        wrong keys, producing undecryptable responses)."""
        keypairs, chain = make_chain(2, rng)
        publics = [k.public for k in keypairs]
        wires, contexts = [], []
        for i in range(6):
            wire, ctx = wrap_request(f"user-{i}".encode(), publics, 9, rng)
            wires.append(wire)
            contexts.append(ctx)
        # Drop requests 1 and 3 from the middle of the peeled batch.
        chain.servers[0].ingress_filter = lambda rn, batch: [
            batch[0], batch[2], batch[4], batch[5]
        ]
        responses = chain.run_round(9, wires)
        for position in (0, 2, 4, 5):
            assert unwrap_response(responses[position], contexts[position]) == (
                f"user-{position}".encode().upper()
            )
        for position in (1, 3):
            assert responses[position] == b""

    def test_ingress_filter_can_return_kept_indices(self, rng):
        keypairs, chain = make_chain(2, rng)
        publics = [k.public for k in keypairs]
        wires, contexts = [], []
        for i in range(5):
            wire, ctx = wrap_request(f"idx-{i}".encode(), publics, 9, rng)
            wires.append(wire)
            contexts.append(ctx)
        # Keep requests 4 and 1, reordered, plus one injected payload the
        # filter invented (forwarded, but owed no response slot).
        chain.servers[0].ingress_filter = lambda rn, batch: (
            [batch[4], b"injected-by-the-adversary", batch[1]],
            [4, None, 1],
        )
        responses = chain.run_round(9, wires)
        for position in (1, 4):
            assert unwrap_response(responses[position], contexts[position]) == (
                f"idx-{position}".encode().upper()
            )
        for position in (0, 2, 3):
            assert responses[position] == b""

    def test_ingress_filter_invalid_indices_rejected(self, rng):
        keypairs, chain = make_chain(2, rng)
        publics = [k.public for k in keypairs]
        wires = [wrap_request(b"a", publics, 9, rng)[0], wrap_request(b"b", publics, 9, rng)[0]]
        chain.servers[0].ingress_filter = lambda rn, batch: (batch, [0, 0])
        with pytest.raises(ProtocolError):
            chain.run_round(9, wires)
        chain.servers[0].ingress_filter = lambda rn, batch: (batch, [0])
        with pytest.raises(ProtocolError):
            chain.run_round(9, wires)

    def test_mismatched_downstream_response_count_raises(self, rng):
        def bad_processor(round_number, payloads):
            return [b"only-one"]

        keypairs, chain = make_chain(2, rng, bad_processor)
        publics = [k.public for k in keypairs]
        wires = [wrap_request(b"a", publics, 1, rng)[0], wrap_request(b"b", publics, 1, rng)[0]]
        with pytest.raises(ProtocolError):
            chain.run_round(1, wires)

    def test_chain_requires_servers_in_order(self, rng):
        keypairs = [KeyPair.generate(rng) for _ in range(2)]
        publics = [k.public for k in keypairs]
        servers = [
            MixServer(index=1, keypair=keypairs[1], chain_public_keys=publics, rng=rng),
            MixServer(index=0, keypair=keypairs[0], chain_public_keys=publics, rng=rng),
        ]
        with pytest.raises(ProtocolError):
            MixChain(servers=servers, processor=uppercase_processor)
        with pytest.raises(ProtocolError):
            MixChain(servers=[], processor=uppercase_processor)

    def test_empty_round_is_fine(self, rng):
        _, chain = make_chain(3, rng)
        assert chain.run_round(1, []) == []
