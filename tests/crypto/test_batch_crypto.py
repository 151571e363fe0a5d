"""Batch crypto entry points: RFC 8439 vectors, kernel equivalence, caching.

The batch path must be byte-identical to the per-message reference on every
backend and on every kernel (numpy-vectorized and pure-Python fallback), and
must mask failures positionally instead of raising.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import DeterministicRandom, derive_layer_keys, key_from_shared_secret
from repro.crypto import batch_kernels, chacha20, x25519
from repro.crypto.backend import CRYPTOGRAPHY, available_backends, set_backend
from repro.crypto.secretbox import derive_layer_key_schedule, open_box_batch, seal_batch

# RFC 8439 section 2.8.2 AEAD vector.
AEAD_KEY = bytes.fromhex(
    "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f"
)
AEAD_NONCE = bytes.fromhex("070000004041424344454647")
AEAD_AAD = bytes.fromhex("50515253c0c1c2c3c4c5c6c7")
AEAD_PLAINTEXT = (
    b"Ladies and Gentlemen of the class of '99: If I could offer you "
    b"only one tip for the future, sunscreen would be it."
)
AEAD_BOX = bytes.fromhex(
    "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
    "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
    "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
    "3ff4def08e4b7a9de576d26586cec64b6116"
    "1ae10b594f09e26a7e902ecbd0600691"
)


@pytest.fixture(params=available_backends())
def backend(request):
    backend = set_backend(request.param)
    yield backend
    set_backend(available_backends()[-1])


class TestBatchAead:
    def test_rfc8439_vector_through_batch_entry_points(self, backend):
        sealed = backend.aead_seal_batch([AEAD_KEY] * 3, AEAD_NONCE, [AEAD_PLAINTEXT] * 3, AEAD_AAD)
        assert sealed == [AEAD_BOX] * 3
        opened = backend.aead_open_batch([AEAD_KEY] * 3, AEAD_NONCE, sealed, AEAD_AAD)
        assert opened == [AEAD_PLAINTEXT] * 3

    def test_batch_matches_scalar_on_mixed_lengths(self, backend, rng):
        # Mixed lengths exercise the pure path's length grouping.
        lengths = [0, 1, 63, 64, 65, 272, 272, 1000]
        keys = [rng.random_bytes(32) for _ in lengths]
        messages = [rng.random_bytes(n) for n in lengths]
        nonce = rng.random_bytes(12)
        sealed = backend.aead_seal_batch(keys, nonce, messages, b"")
        assert sealed == [
            backend.aead_encrypt(key, nonce, message, b"")
            for key, message in zip(keys, messages)
        ]
        assert backend.aead_open_batch(keys, nonce, sealed, b"") == messages

    def test_failures_are_masked_positionally(self, backend, rng):
        keys = [rng.random_bytes(32) for _ in range(6)]
        messages = [rng.random_bytes(50) for _ in range(6)]
        nonce = rng.random_bytes(12)
        sealed = backend.aead_seal_batch(keys, nonce, messages, b"")
        sealed[1] = sealed[1][:-1] + bytes([sealed[1][-1] ^ 1])  # bad tag
        sealed[3] = b"\x01\x02"  # shorter than a tag
        sealed[4] = sealed[2]  # wrong key for this position
        opened = backend.aead_open_batch(keys, nonce, sealed, b"")
        assert opened[0] == messages[0]
        assert opened[1] is None
        assert opened[2] == messages[2]
        assert opened[3] is None
        assert opened[4] is None
        assert opened[5] == messages[5]

    def test_secretbox_batch_helpers_roundtrip(self, backend, rng):
        keys = [rng.random_bytes(32) for _ in range(4)]
        nonce = rng.random_bytes(12)
        messages = [rng.random_bytes(30) for _ in range(4)]
        sealed = seal_batch(keys, nonce, messages)
        assert open_box_batch(keys, nonce, sealed) == messages
        assert seal_batch([], nonce, []) == []
        assert open_box_batch([], nonce, []) == []

    def test_large_batch_without_numpy_uses_python_kernels(self, backend, rng, monkeypatch):
        # With numpy unavailable the batch entry points must produce the same
        # bytes from the pure-Python kernels, even above the numpy threshold.
        monkeypatch.setattr(batch_kernels, "HAVE_NUMPY", False)
        count = batch_kernels.MIN_NUMPY_BATCH + 5
        keys = [rng.random_bytes(32) for _ in range(count)]
        messages = [rng.random_bytes(96) for _ in range(count)]
        nonce = rng.random_bytes(12)
        sealed = backend.aead_seal_batch(keys, nonce, messages, b"")
        assert sealed == [
            backend.aead_encrypt(key, nonce, message, b"")
            for key, message in zip(keys, messages)
        ]
        assert backend.aead_open_batch(keys, nonce, sealed, b"") == messages
        k = rng.random_bytes(32)
        us = [rng.random_bytes(32) for _ in range(count)]
        assert backend.x25519_fixed_scalar_batch(k, us[:4]) == [
            x25519.scalar_mult(k, u) for u in us[:4]
        ]
        assert backend.x25519_fixed_point_batch(us[:4], k) == (
            [x25519.scalar_base_mult(u) for u in us[:4]],
            [x25519.scalar_mult(u, k) for u in us[:4]],
        )

    def test_numpy_batch_crosses_grouping_threshold(self, backend, rng):
        # Above MIN_NUMPY_BATCH the pure backend switches kernels; results
        # must not change.
        count = batch_kernels.MIN_NUMPY_BATCH + 10
        keys = [rng.random_bytes(32) for _ in range(count)]
        messages = [rng.random_bytes(272) for _ in range(count)]
        nonce = rng.random_bytes(12)
        sealed = backend.aead_seal_batch(keys, nonce, messages, b"")
        assert sealed[-1] == backend.aead_encrypt(keys[-1], nonce, messages[-1], b"")
        assert backend.aead_open_batch(keys, nonce, sealed, b"") == messages


class TestChaChaKernels:
    def test_unrolled_keystream_matches_block_function(self, rng):
        key, nonce = rng.random_bytes(32), rng.random_bytes(12)
        expected = b"".join(chacha20.chacha20_block(key, counter, nonce) for counter in range(5))
        assert batch_kernels.chacha20_keystream(key, nonce, 0, 5) == expected

    def test_vectorized_keystreams_match_block_function(self, rng):
        if not batch_kernels.HAVE_NUMPY:
            pytest.skip("numpy not installed")
        keys = [rng.random_bytes(32) for _ in range(batch_kernels.MIN_NUMPY_BATCH)]
        nonce = rng.random_bytes(12)
        streams = batch_kernels.chacha20_keystreams_batch(keys, nonce, 3, 2)
        for key, stream in zip(keys, streams):
            assert stream == chacha20.chacha20_block(key, 3, nonce) + chacha20.chacha20_block(
                key, 4, nonce
            )


    @pytest.mark.parametrize("count", [3, batch_kernels.MIN_NUMPY_BATCH])
    def test_keystreams_batch_matches_single_streams(self, rng, count):
        """Both kernels (below and at the numpy threshold) against the
        unrolled single-message kernel, for every block count the AEAD uses."""
        keys = [rng.random_bytes(32) for _ in range(count)]
        nonce = rng.random_bytes(12)
        for nblocks in (0, 1, 2, 5):
            streams = batch_kernels.chacha20_keystreams_batch(keys, nonce, 1, nblocks)
            assert streams == [
                batch_kernels.chacha20_keystream(key, nonce, 1, nblocks) for key in keys
            ]

    @pytest.mark.parametrize("count", [3, batch_kernels.MIN_NUMPY_BATCH])
    def test_xor_batch_matches_chacha20_xor(self, rng, count):
        keys = [rng.random_bytes(32) for _ in range(count)]
        nonce = rng.random_bytes(12)
        datas = [rng.random_bytes(100) for _ in range(count)]
        streams = batch_kernels.chacha20_keystreams_batch(keys, nonce, 1, 2)
        assert batch_kernels.xor_batch(datas, streams) == [
            chacha20.chacha20_xor(key, nonce, data, 1) for key, data in zip(keys, datas)
        ]

    def test_xor_batch_of_nothing_and_of_empty_messages(self):
        assert batch_kernels.xor_batch([], []) == []
        assert batch_kernels.xor_batch([b"", b""], [b"\x01" * 64, b"\x02" * 64]) == [b"", b""]


class TestX25519Kernels:
    def test_fixed_scalar_kernels_match_scalar_mult(self, rng):
        k = rng.random_bytes(32)
        us = [rng.random_bytes(32) for _ in range(batch_kernels.MIN_NUMPY_BATCH + 3)]
        expected = [x25519.scalar_mult(k, u) for u in us]
        assert batch_kernels._py_x25519_fixed_scalar(k, us[:6]) == expected[:6]
        assert batch_kernels.x25519_fixed_scalar_batch(k, us) == expected

    def test_fixed_point_kernels_match_scalar_mult(self, rng):
        u = rng.random_bytes(32)
        ks = [rng.random_bytes(32) for _ in range(batch_kernels.MIN_NUMPY_BATCH + 3)]
        expected = (
            [x25519.scalar_base_mult(k) for k in ks],
            [x25519.scalar_mult(k, u) for k in ks],
        )
        assert batch_kernels.x25519_fixed_point_batch(ks, u) == expected
        assert batch_kernels.x25519_fixed_point_batch(ks[:6], u) == (
            expected[0][:6],
            expected[1][:6],
        )

    def test_small_order_point_yields_all_zero_secret(self, rng):
        k = rng.random_bytes(32)
        zero_point = bytes(32)
        count = batch_kernels.MIN_NUMPY_BATCH
        results = batch_kernels.x25519_fixed_scalar_batch(k, [zero_point] * count)
        assert results == [x25519.scalar_mult(k, zero_point)] * count
        assert all(x25519.is_all_zero(result) for result in results)

    def test_backend_batch_exchanges_agree_across_backends(self, rng):
        if CRYPTOGRAPHY not in available_backends():
            pytest.skip("cryptography not installed")
        k = rng.random_bytes(32)
        us = [rng.random_bytes(32) for _ in range(5)]
        results = {}
        for name in available_backends():
            backend = set_backend(name)
            results[name] = (
                backend.x25519_fixed_scalar_batch(k, us),
                backend.x25519_fixed_point_batch(us, k),
            )
        set_backend(available_backends()[-1])
        values = list(results.values())
        assert all(value == values[0] for value in values[1:])

    @given(st.integers(min_value=0, max_value=2**255 - 1))
    @settings(max_examples=10, deadline=None)
    def test_fixed_scalar_property(self, point_int: int):
        rng = DeterministicRandom(point_int.to_bytes(32, "little"))
        k = rng.random_bytes(32)
        u = point_int.to_bytes(32, "little")
        assert batch_kernels._py_x25519_fixed_scalar(k, [u]) == [x25519.scalar_mult(k, u)]
        if batch_kernels.HAVE_NUMPY:
            assert batch_kernels._np_x25519_fixed_scalar(k, [u]) == [x25519.scalar_mult(k, u)]
            assert batch_kernels._np_x25519_fixed_point([k], u) == [x25519.scalar_mult(k, u)]


# RFC 7748 section 6.1: Alice's and Bob's private keys, public keys, shared secret.
RFC7748_ALICE_PRIVATE = bytes.fromhex(
    "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a"
)
RFC7748_ALICE_PUBLIC = bytes.fromhex(
    "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
)
RFC7748_BOB_PRIVATE = bytes.fromhex(
    "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb"
)
RFC7748_BOB_PUBLIC = bytes.fromhex(
    "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
)
RFC7748_SHARED = bytes.fromhex(
    "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
)


class TestFusedKeygenExchange:
    """``x25519_fixed_point_batch(ks, u)`` returns ``(publics, shareds)``:
    each scalar's public key *and* its shared secret with ``u``."""

    def test_rfc7748_vectors(self, backend):
        publics, shareds = backend.x25519_fixed_point_batch(
            [RFC7748_ALICE_PRIVATE], RFC7748_BOB_PUBLIC
        )
        assert publics == [RFC7748_ALICE_PUBLIC]
        assert shareds == [RFC7748_SHARED]
        publics, shareds = backend.x25519_fixed_point_batch(
            [RFC7748_BOB_PRIVATE], RFC7748_ALICE_PUBLIC
        )
        assert publics == [RFC7748_BOB_PUBLIC]
        assert shareds == [RFC7748_SHARED]

    @pytest.mark.parametrize("count", [5, batch_kernels.MIN_NUMPY_BATCH + 2])
    def test_unclamped_scalars_match_the_reference_ladder(self, backend, rng, count):
        # All-ones and all-zero scalars have every bit the clamp touches set
        # the "wrong" way; random ones cover the rest.
        ks = [b"\xff" * 32, bytes(32)] + [rng.random_bytes(32) for _ in range(count - 2)]
        u = x25519.scalar_base_mult(rng.random_bytes(32))
        publics, shareds = backend.x25519_fixed_point_batch(ks, u)
        assert publics == [x25519.scalar_base_mult(k) for k in ks]
        assert shareds == [x25519.scalar_mult(k, u) for k in ks]

    def test_memoryview_inputs(self, backend, rng):
        ks = [rng.random_bytes(32) for _ in range(3)]
        u = x25519.scalar_base_mult(rng.random_bytes(32))
        assert backend.x25519_fixed_point_batch(
            [memoryview(k) for k in ks], memoryview(u)
        ) == backend.x25519_fixed_point_batch(ks, u)

    def test_small_order_point_yields_all_zero_shared_without_raising(self, backend, rng):
        ks = [rng.random_bytes(32) for _ in range(3)]
        publics, shareds = backend.x25519_fixed_point_batch(ks, bytes(32))
        assert publics == [x25519.scalar_base_mult(k) for k in ks]
        assert shareds == [bytes(32)] * 3

    def test_empty_batch(self, backend, rng):
        assert backend.x25519_fixed_point_batch([], rng.random_bytes(32)) == ([], [])


class TestDerivedKeyCache:
    def test_layer_keys_split_is_prefix_consistent(self, rng):
        shared = rng.random_bytes(32)
        request_key, response_key = derive_layer_keys(shared)
        # The request key must be exactly what the seed derivation produced,
        # so request wire bytes are unchanged across versions.
        assert request_key == key_from_shared_secret(shared, "layer")
        assert len(response_key) == 32
        assert response_key != request_key

    def test_derivation_is_memoized(self, rng):
        from repro.crypto.secretbox import _derived_key_cached

        shared = rng.random_bytes(32)
        _derived_key_cached.cache_clear()
        derive_layer_keys(shared)
        hits_before = _derived_key_cached.cache_info().hits
        derive_layer_keys(shared)
        derive_layer_keys(bytearray(shared))  # bytes-like input hits the same entry
        assert _derived_key_cached.cache_info().hits >= hits_before + 2
        # uncached derivation: same bytes, no new cache entry
        _derived_key_cached.cache_clear()
        assert derive_layer_key_schedule([shared]) == [derive_layer_keys(shared)]
        assert _derived_key_cached.cache_info().currsize == 1

    def test_client_wrap_does_not_populate_the_cache(self, rng):
        # Clients have no round-end hook, so wrapping must not retain
        # ephemeral DH secrets in the derivation cache.
        from repro.crypto import KeyPair, clear_derived_key_cache, wrap_request
        from repro.crypto.onion import wrap_request_batch
        from repro.crypto.secretbox import _derived_key_cached

        servers = [KeyPair.generate(rng) for _ in range(2)]
        publics = [server.public for server in servers]
        clear_derived_key_cache()
        wrap_request(b"payload", publics, 1, rng)
        wrap_request_batch([b"a", b"b"], publics, 1, rng)
        assert _derived_key_cached.cache_info().currsize == 0

    def test_round_drivers_clear_the_cache(self, rng):
        from repro.crypto import KeyPair, wrap_request
        from repro.crypto.secretbox import _derived_key_cached
        from repro.mixnet import build_chain

        keypairs = [KeyPair.generate(rng) for _ in range(2)]
        chain = build_chain(keypairs, lambda rn, batch: [bytes(b) for b in batch], rng=rng)
        wire, _ = wrap_request(b"x" * 16, [kp.public for kp in keypairs], 3, rng)
        chain.run_round(3, [wire])
        assert _derived_key_cached.cache_info().currsize == 0

    def test_batch_helpers_reject_malformed_keys_anywhere(self, rng):
        nonce = rng.random_bytes(12)
        good = rng.random_bytes(32)
        with pytest.raises(ValueError):
            seal_batch([good, b"short"], nonce, [b"a", b"b"])
        with pytest.raises(ValueError):
            open_box_batch([good, b"short"], nonce, [b"a" * 20, b"b" * 20])

    def test_batch_helpers_reject_key_message_count_mismatch(self, rng):
        nonce = rng.random_bytes(12)
        keys = [rng.random_bytes(32) for _ in range(2)]
        with pytest.raises(ValueError):
            seal_batch(keys, nonce, [b"only-one"])
        with pytest.raises(ValueError):
            open_box_batch(keys, nonce, [b"x" * 20, b"y" * 20, b"z" * 20])
