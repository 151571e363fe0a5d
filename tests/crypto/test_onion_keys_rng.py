"""Tests for onion encryption, key pairs, dead-drop IDs and random sources."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    DeterministicRandom,
    KeyPair,
    LAYER_OVERHEAD,
    PublicKey,
    RESPONSE_LAYER_OVERHEAD,
    SecureRandom,
    available_backends,
    conversation_dead_drop,
    invitation_dead_drop,
    peel_request,
    peel_response_layer,
    random_dead_drop,
    request_size,
    response_size,
    set_backend,
    unwrap_response,
    wrap_request,
    wrap_response,
)
from repro.crypto.onion import wrap_request_batch
from repro.errors import OnionError

# Recorded from the commit before wrap_request became the one-payload case of
# wrap_request_batch (seed b"golden-wire", three servers, round 7): the wire
# and the response keys must never change, on either backend.
GOLDEN_WIRE = bytes.fromhex(
    "067e310fd7e74c2ca4f3d1be66eec481431b041f4bdfe613ac66c92232c6d010"
    "24684ea8916917220bb81814a5147486889e56c0e96852bd3fd66eff27d3a59b"
    "63e09630859f5b5d38c9c2032787536b9c3bb9837a5aaa1b8c067661119eb616"
    "c6675565c813cc0389dcee4837c1efcaa6f4c26af5c20216a64cee3655b849a9"
    "9b0ed573f2a7042cad966dae1a1139adc4606999fb2ff271fdcdbecc710e4116"
)
GOLDEN_LAYER_KEYS = (
    "753518e7f7b3a894354ff03ee3256533ce0248bc59e661f85f28d0e248da1936",
    "6dfd6a82bf980787c72571889db7947e84308973dce167ba00e2ca49d8d1caa6",
    "6ddfa561d0b5822a45a52ef7324ac44eec43a498979d9e8199019e2d5934999d",
)


class TestOnion:
    def test_roundtrip_through_three_servers(self, rng, server_keys):
        inner = b"exchange-request-payload"
        wire, ctx = wrap_request(inner, [k.public for k in server_keys], 5, rng)
        assert len(wire) == request_size(len(inner), 3)

        payload = wire
        layer_keys = []
        for index, server in enumerate(server_keys):
            payload, layer_key = peel_request(payload, server.private, index, 5)
            layer_keys.append(layer_key)
        assert payload == inner

        # Response path: last server answers, each server re-wraps.
        response = b"exchange-response"
        for layer_key in reversed(layer_keys):
            response = wrap_response(response, layer_key, 5)
        assert len(response) == response_size(len(b"exchange-response"), 3)
        assert unwrap_response(response, ctx) == b"exchange-response"

    def test_each_layer_adds_fixed_overhead(self, rng, server_keys):
        inner = b"\x00" * 100
        for chain_length in (1, 2, 3):
            wire, _ = wrap_request(
                inner, [k.public for k in server_keys[:chain_length]], 1, rng
            )
            assert len(wire) == 100 + chain_length * LAYER_OVERHEAD

    def test_requests_are_unlinkable_across_wraps(self, rng, server_keys):
        """Two wraps of the same inner payload produce different wires."""
        inner = b"same payload"
        keys = [k.public for k in server_keys]
        wire_a, _ = wrap_request(inner, keys, 1, rng)
        wire_b, _ = wrap_request(inner, keys, 1, rng)
        assert wire_a != wire_b

    def test_wrong_server_cannot_peel(self, rng, server_keys):
        wire, _ = wrap_request(b"data", [k.public for k in server_keys], 2, rng)
        wrong_server = KeyPair.generate(rng)
        with pytest.raises(OnionError):
            peel_request(wire, wrong_server.private, 0, 2)

    def test_wrong_round_number_cannot_peel(self, rng, server_keys):
        wire, _ = wrap_request(b"data", [k.public for k in server_keys], 2, rng)
        with pytest.raises(OnionError):
            peel_request(wire, server_keys[0].private, 0, 3)

    def test_empty_chain_rejected(self, rng):
        with pytest.raises(OnionError):
            wrap_request(b"data", [], 0, rng)

    def test_small_order_server_key_rejected_as_onion_error(self, rng, server_keys):
        keys = [server_keys[0].public, PublicKey(bytes(32))]
        with pytest.raises(OnionError, match="all-zero"):
            wrap_request(b"data", keys, 0, rng)

    @pytest.mark.parametrize("backend", available_backends())
    def test_single_wrap_is_the_batch_of_one_and_matches_the_golden_wire(self, backend):
        set_backend(backend)
        try:
            wires, contexts = [], []
            for wrap in (
                lambda *args: wrap_request(b"golden payload!!", *args),
                lambda *args: tuple(
                    out[0] for out in wrap_request_batch([b"golden payload!!"], *args)
                ),
            ):
                rng = DeterministicRandom(b"golden-wire")
                servers = [KeyPair.generate(rng) for _ in range(3)]
                wire, context = wrap([s.public for s in servers], 7, rng)
                wires.append(wire)
                contexts.append(context)
        finally:
            set_backend(available_backends()[-1])
        assert wires == [GOLDEN_WIRE, GOLDEN_WIRE]
        assert contexts[0] == contexts[1]
        assert tuple(key.hex() for key in contexts[0].layer_keys) == GOLDEN_LAYER_KEYS

    def test_short_wire_rejected(self, server_keys):
        with pytest.raises(OnionError):
            peel_request(b"tiny", server_keys[0].private, 0, 0)

    def test_response_layer_overhead_constant(self):
        assert RESPONSE_LAYER_OVERHEAD == 16

    def test_peel_response_layer_single(self, rng, server_keys):
        wire, ctx = wrap_request(b"req", [server_keys[0].public], 9, rng)
        _, layer_key = peel_request(wire, server_keys[0].private, 0, 9)
        wrapped = wrap_response(b"resp", layer_key, 9)
        assert peel_response_layer(wrapped, ctx.layer_keys[0], 9) == b"resp"

    @given(st.binary(min_size=1, max_size=300), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=10, deadline=None)
    def test_roundtrip_property(self, inner: bytes, round_number: int):
        rng = DeterministicRandom(99)
        servers = [KeyPair.generate(rng) for _ in range(2)]
        wire, ctx = wrap_request(inner, [s.public for s in servers], round_number, rng)
        payload = wire
        keys = []
        for index, server in enumerate(servers):
            payload, key = peel_request(payload, server.private, index, round_number)
            keys.append(key)
        assert payload == inner
        response = inner[::-1]
        for key in reversed(keys):
            response = wrap_response(response, key, round_number)
        assert unwrap_response(response, ctx) == inner[::-1]


class TestKeysAndIds:
    def test_keypair_exchange_is_symmetric(self, alice, bob):
        assert alice.exchange(bob.public) == bob.exchange(alice.public)

    def test_conversation_dead_drop_is_shared_and_round_dependent(self, alice, bob):
        secret_a = alice.exchange(bob.public)
        secret_b = bob.exchange(alice.public)
        assert conversation_dead_drop(secret_a, 10) == conversation_dead_drop(secret_b, 10)
        assert conversation_dead_drop(secret_a, 10) != conversation_dead_drop(secret_a, 11)
        assert len(conversation_dead_drop(secret_a, 10)) == 16

    def test_conversation_dead_drop_rejects_negative_round(self, alice, bob):
        with pytest.raises(ValueError):
            conversation_dead_drop(alice.exchange(bob.public), -1)

    def test_invitation_dead_drop_is_stable_and_bounded(self, alice):
        for m in (1, 7, 1000):
            index = invitation_dead_drop(alice.public, m)
            assert 0 <= index < m
            assert index == invitation_dead_drop(alice.public, m)

    def test_invitation_dead_drop_rejects_non_positive_m(self, alice):
        with pytest.raises(ValueError):
            invitation_dead_drop(alice.public, 0)

    def test_random_dead_drop_requires_enough_bytes(self):
        with pytest.raises(ValueError):
            random_dead_drop(b"\x00" * 8)
        assert len(random_dead_drop(b"\x01" * 32)) == 16

    def test_public_key_ordering_and_repr(self, alice, bob):
        keys = sorted([alice.public, bob.public])
        assert keys[0] <= keys[1]
        assert bytes(alice.public) == alice.public.data


class TestRandomSources:
    def test_deterministic_rng_reproducible(self):
        a, b = DeterministicRandom(7), DeterministicRandom(7)
        assert a.random_bytes(64) == b.random_bytes(64)
        assert a.random_uint(53) == b.random_uint(53)

    def test_deterministic_rng_fork_independence(self):
        root = DeterministicRandom(7)
        child_a, child_b = root.fork("noise"), root.fork("workload")
        assert child_a.random_bytes(32) != child_b.random_bytes(32)

    def test_fork_ignores_the_parent_stream_position(self):
        """Forks derive from the seed alone, so how much a component has drawn
        from its parent never perturbs a sibling component's stream."""
        fresh = DeterministicRandom(7).fork("noise").random_bytes(48)
        drawn = DeterministicRandom(7)
        drawn.random_bytes(13)  # leave the parent mid-block
        assert drawn.fork("noise").random_bytes(48) == fresh

    @given(st.lists(st.integers(min_value=0, max_value=100), max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_draws_do_not_depend_on_how_they_are_split(self, sizes):
        """Mid-block buffering is invisible: consecutive draws concatenate to
        one draw of their total length."""
        split = DeterministicRandom(8)
        pieces = b"".join(split.random_bytes(n) for n in sizes)
        assert pieces == DeterministicRandom(8).random_bytes(sum(sizes))
        assert split.random_bytes(32) == DeterministicRandom(8).random_bytes(
            sum(sizes) + 32
        )[sum(sizes) :]

    def test_different_seeds_differ(self):
        assert DeterministicRandom(1).random_bytes(32) != DeterministicRandom(2).random_bytes(32)

    def test_string_and_bytes_seeds(self):
        assert DeterministicRandom("seed").random_bytes(8) == DeterministicRandom("seed").random_bytes(8)
        assert DeterministicRandom(b"seed").random_bytes(8) == DeterministicRandom(b"seed").random_bytes(8)

    def test_random_float_in_unit_interval(self):
        rng = DeterministicRandom(3)
        for _ in range(100):
            value = rng.random_float()
            assert 0.0 <= value < 1.0

    def test_secure_random_basic(self):
        rng = SecureRandom()
        assert len(rng.random_bytes(16)) == 16
        assert 0 <= rng.random_uint(8) < 256
        assert 0.0 <= rng.random_float() < 1.0

    def test_negative_requests_rejected(self):
        with pytest.raises(ValueError):
            SecureRandom().random_bytes(-1)
        with pytest.raises(ValueError):
            DeterministicRandom(0).random_bytes(-1)
        with pytest.raises(ValueError):
            DeterministicRandom(0).random_uint(0)
