"""Cross-validation of the batched round pipeline against the sequential path.

The batched ``MixServer.process_round`` (and the onion batch primitives under
it) must be byte-identical to the per-message reference implementation —
including rounds with malformed wires mixed into the batch — on every
available backend.
"""

from __future__ import annotations

import pytest

from repro.crypto import (
    DeterministicRandom,
    KeyPair,
    peel_request,
    peel_request_batch,
    unwrap_response,
    wrap_request,
    wrap_request_batch,
    wrap_response,
    wrap_response_batch,
)
from repro.crypto.backend import available_backends, set_backend
from repro.mixnet.chain import MixServer
from repro.mixnet.shuffle import Permutation


@pytest.fixture(params=available_backends())
def backend_name(request):
    set_backend(request.param)
    yield request.param
    set_backend(available_backends()[-1])


def make_wires(rng, publics, round_number, count, payload_size=64):
    wires, contexts = [], []
    for i in range(count):
        payload = f"payload-{i}".encode().ljust(payload_size, b".")
        wire, ctx = wrap_request(payload, publics, round_number, rng)
        wires.append(wire)
        contexts.append(ctx)
    return wires, contexts


def sequential_process_round(server, round_number, requests, downstream):
    """The seed's per-message round loop, kept as the reference path."""
    peeled, layer_keys, valid_positions = [], [], []
    for position, wire in enumerate(requests):
        try:
            inner, layer_key = peel_request(
                wire, server.keypair.private, server.index, round_number
            )
        except Exception:
            continue
        peeled.append(inner)
        layer_keys.append(layer_key)
        valid_positions.append(position)
    combined = list(peeled)
    permutation = Permutation.random(
        len(combined), server.round_rng(round_number, attempt=1)
    )
    forwarded = permutation.apply(combined)
    downstream_responses = downstream(round_number, forwarded)
    unshuffled = permutation.invert(downstream_responses)
    responses = [b""] * len(requests)
    for layer_key, position, response in zip(
        layer_keys, valid_positions, unshuffled[: len(peeled)]
    ):
        responses[position] = wrap_response(response, layer_key, round_number)
    return responses


class TestBatchRoundPipeline:
    def test_process_round_identical_to_sequential_with_malformed_wires(self, backend_name):
        rng = DeterministicRandom(77)
        keypairs = [KeyPair.generate(rng) for _ in range(3)]
        publics = [kp.public for kp in keypairs]
        wires, _ = make_wires(rng, publics, 9, 24)
        # Malformed positions scattered through the batch: too short, random
        # garbage of the right length, truncated tail.
        wires[0] = b""
        wires[5] = b"tiny"
        wires[11] = bytes(len(wires[1]))
        wires[17] = wires[17][:-3]

        def echo(round_number, batch):
            return [bytes(item)[:16].ljust(16, b"#") for item in batch]

        batch_server = MixServer(
            index=0, keypair=keypairs[0], chain_public_keys=publics,
            rng=DeterministicRandom(5),
        )
        reference_server = MixServer(
            index=0, keypair=keypairs[0], chain_public_keys=publics,
            rng=DeterministicRandom(5),
        )
        batch_responses = batch_server.process_round(9, wires, echo)
        reference_responses = sequential_process_round(reference_server, 9, wires, echo)
        assert batch_responses == reference_responses
        for position in (0, 5, 11, 17):
            assert batch_responses[position] == b""

    def test_peel_batch_matches_scalar_peel(self, backend_name):
        rng = DeterministicRandom(13)
        keypairs = [KeyPair.generate(rng) for _ in range(2)]
        publics = [kp.public for kp in keypairs]
        wires, _ = make_wires(rng, publics, 3, 10)
        wires[4] = b"x" * 10
        inners, response_keys = peel_request_batch(wires, keypairs[0].private, 0, 3)
        for position, wire in enumerate(wires):
            if position == 4:
                assert inners[position] is None
                assert response_keys[position] is None
                continue
            inner, key = peel_request(wire, keypairs[0].private, 0, 3)
            assert inners[position] == inner
            assert response_keys[position] == key

    def test_wrap_response_batch_matches_scalar_wrap(self, backend_name):
        rng = DeterministicRandom(29)
        keys = [rng.random_bytes(32) for _ in range(8)]
        responses = [rng.random_bytes(48) for _ in range(8)]
        assert wrap_response_batch(responses, keys, 6) == [
            wrap_response(response, key, 6) for response, key in zip(responses, keys)
        ]

    def test_wrap_request_batch_single_payload_matches_scalar_wrap(self, backend_name):
        keypairs = [KeyPair.generate(DeterministicRandom(i)) for i in range(3)]
        publics = [kp.public for kp in keypairs]
        wire, ctx = wrap_request(b"solo" * 10, publics, 2, DeterministicRandom(55))
        wires, contexts = wrap_request_batch(
            [b"solo" * 10], publics, 2, DeterministicRandom(55)
        )
        assert wires == [wire]
        assert contexts == [ctx]

    def test_wrap_request_batch_roundtrips_through_chain(self, backend_name):
        rng = DeterministicRandom(91)
        keypairs = [KeyPair.generate(rng) for _ in range(3)]
        publics = [kp.public for kp in keypairs]
        payloads = [f"noise-{i}".encode().ljust(32, b"!") for i in range(7)]
        wires, contexts = wrap_request_batch(payloads, publics, 4, rng)
        for wire, context, payload in zip(wires, contexts, payloads):
            peeled = wire
            keys = []
            for index, keypair in enumerate(keypairs):
                peeled, key = peel_request(peeled, keypair.private, index, 4)
                keys.append(key)
            assert peeled == payload
            response = payload[::-1]
            for key in reversed(keys):
                response = wrap_response(response, key, 4)
            assert unwrap_response(response, context) == payload[::-1]

    def test_large_round_of_72_wires(self, backend_name):
        rng = DeterministicRandom(101)
        keypairs = [KeyPair.generate(rng) for _ in range(1)]
        publics = [kp.public for kp in keypairs]
        count = 72
        payloads = [bytes([i % 256]) * 32 for i in range(count)]
        wires, contexts = wrap_request_batch(payloads, publics, 12, rng)
        server = MixServer(
            index=0, keypair=keypairs[0], chain_public_keys=publics,
            rng=DeterministicRandom(3),
        )
        responses = server.process_round(
            12, wires, lambda rn, batch: [bytes(item) for item in batch]
        )
        for response, context, payload in zip(responses, contexts, payloads):
            assert unwrap_response(response, context) == payload
