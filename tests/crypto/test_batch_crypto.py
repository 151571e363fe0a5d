"""Batch crypto entry points: RFC 8439 vectors, reference equivalence, caching.

Every backend's four batch fields must be byte-identical to the per-message
reference at every batch size, and must mask failures positionally instead
of raising.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.crypto import DeterministicRandom, derive_layer_keys, key_from_shared_secret
from repro.crypto import x25519
from repro.crypto.backend import CRYPTOGRAPHY, available_backends, set_backend
from repro.crypto.secretbox import open_box_batch, seal_batch

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
        # Empty, sub-block, block-boundary and multi-block messages.
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

    def test_memoryview_inputs(self, backend, rng):
        keys = [rng.random_bytes(32) for _ in range(3)]
        messages = [rng.random_bytes(n) for n in (0, 40, 100)]
        nonce = rng.random_bytes(12)
        sealed = backend.aead_seal_batch(keys, nonce, messages, b"")
        assert backend.aead_seal_batch(
            [memoryview(key) for key in keys], nonce, [memoryview(m) for m in messages], b""
        ) == sealed
        assert backend.aead_open_batch(
            [memoryview(key) for key in keys], nonce, [memoryview(box) for box in sealed], b""
        ) == messages


#: Empty, one row, and two larger batches: 65 and 400 rows lie above the
#: 64-row and 384-row marks where earlier pure-Python batch paths changed
#: strategy, and 1 lies below both.
BATCH_SIZES = [0, 1, 65, 400]


@pytest.mark.parametrize("count", BATCH_SIZES)
class TestBatchMatchesReference:
    """Each batch field equals its per-message reference, row by row."""

    def test_aead_seal_and_open(self, backend, rng, count):
        lengths = [(0, 1, 63, 64, 65, 272)[i % 6] for i in range(count)]
        keys = [rng.random_bytes(32) for _ in lengths]
        messages = [rng.random_bytes(n) for n in lengths]
        nonce = rng.random_bytes(12)
        sealed = backend.aead_seal_batch(keys, nonce, messages, b"aad")
        assert sealed == [
            backend.aead_encrypt(key, nonce, message, b"aad")
            for key, message in zip(keys, messages)
        ]
        assert backend.aead_open_batch(keys, nonce, sealed, b"aad") == messages

    def test_x25519_fixed_scalar(self, backend, rng, count):
        k = rng.random_bytes(32)
        us = [rng.random_bytes(32) for _ in range(count)]
        assert backend.x25519_fixed_scalar_batch(k, us) == [x25519.scalar_mult(k, u) for u in us]

    def test_x25519_fixed_point(self, backend, rng, count):
        u = rng.random_bytes(32)
        ks = [rng.random_bytes(32) for _ in range(count)]
        assert backend.x25519_fixed_point_batch(ks, u) == (
            [x25519.scalar_base_mult(k) for k in ks],
            [x25519.scalar_mult(k, u) for k in ks],
        )


class TestX25519Batch:
    def test_small_order_points_yield_all_zero_secrets_without_raising(self, backend, rng):
        k = rng.random_bytes(32)
        good = x25519.scalar_base_mult(rng.random_bytes(32))
        small_order = [bytes(32), (1).to_bytes(32, "little")]
        results = backend.x25519_fixed_scalar_batch(k, [good, *small_order, good])
        assert results == [x25519.scalar_mult(k, good), bytes(32), bytes(32), results[0]]
        assert not x25519.is_all_zero(results[0])

    def test_memoryview_inputs(self, backend, rng):
        k = rng.random_bytes(32)
        us = [rng.random_bytes(32) for _ in range(3)]
        assert backend.x25519_fixed_scalar_batch(
            memoryview(k), [memoryview(u) for u in us]
        ) == backend.x25519_fixed_scalar_batch(k, us)

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
    @settings(
        max_examples=10, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_fixed_scalar_property(self, backend, point_int: int):
        rng = DeterministicRandom(point_int.to_bytes(32, "little"))
        k = rng.random_bytes(32)
        u = point_int.to_bytes(32, "little")
        assert backend.x25519_fixed_scalar_batch(k, [u]) == [x25519.scalar_mult(k, u)]
        assert backend.x25519_fixed_point_batch([k], u)[1] == [x25519.scalar_mult(k, u)]


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

    def test_unclamped_scalars_match_the_reference_ladder(self, backend, rng):
        # All-ones and all-zero scalars have every bit the clamp touches set
        # the "wrong" way; random ones cover the rest.
        ks = [b"\xff" * 32, bytes(32)] + [rng.random_bytes(32) for _ in range(3)]
        u = x25519.scalar_base_mult(rng.random_bytes(32))
        publics, shareds = backend.x25519_fixed_point_batch(ks, u)
        assert publics == [x25519.scalar_base_mult(k) for k in ks]
        assert shareds == [x25519.scalar_mult(k, u) for k in ks]
        for k in ks[:2]:
            assert backend.x25519_fixed_scalar_batch(k, [u]) == [x25519.scalar_mult(k, u)]

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


def test_server_processes_do_not_import_numpy():
    """The library and both server mains start without numpy: every process
    of a deployment pays for what it imports, once."""
    source = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    code = (
        "import sys, repro, repro.server.entry_main, repro.server.chain_main; "
        "print('numpy' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
