"""RFC 5869 vectors and properties for HKDF-SHA256."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hkdf import derive_key, derive_key_schedule, hkdf, hkdf_expand, hkdf_extract
from repro.crypto.rng import DeterministicRandom

# RFC 5869 test case 1.
IKM = bytes.fromhex("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b")
SALT = bytes.fromhex("000102030405060708090a0b0c")
INFO = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
PRK = bytes.fromhex(
    "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
)
OKM = bytes.fromhex(
    "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
)


def test_rfc5869_case_1():
    prk = hkdf_extract(SALT, IKM)
    assert prk == PRK
    assert hkdf_expand(prk, INFO, 42) == OKM
    assert hkdf(IKM, salt=SALT, info=INFO, length=42) == OKM


def test_rfc5869_case_3_no_salt_no_info():
    ikm = bytes.fromhex("0b" * 22)
    okm = bytes.fromhex(
        "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
    )
    assert hkdf(ikm, length=42) == okm


def test_expand_rejects_bad_lengths():
    prk = hkdf_extract(b"salt", b"ikm")
    with pytest.raises(ValueError):
        hkdf_expand(prk, b"", 0)
    with pytest.raises(ValueError):
        hkdf_expand(prk, b"", 255 * 32 + 1)


def test_derive_key_labels_are_independent():
    shared = b"\x11" * 32
    assert derive_key(shared, "conversation") != derive_key(shared, "deaddrop")
    assert len(derive_key(shared, "conversation", 32)) == 32
    assert len(derive_key(shared, "conversation", 64)) == 64


def test_derive_key_schedule_matches_derive_key():
    rng = DeterministicRandom(5)
    secrets = [rng.random_bytes(32) for _ in range(8)]
    assert derive_key_schedule(secrets, "onion-layer") == [
        derive_key(secret, "onion-layer") for secret in secrets
    ]


def test_derive_key_schedule_honours_length_and_empty_input():
    rng = DeterministicRandom(6)
    secrets = [rng.random_bytes(32) for _ in range(3)]
    assert derive_key_schedule([], "onion-layer") == []
    assert derive_key_schedule(secrets, "onion-layer", 64) == [
        derive_key(secret, "onion-layer", 64) for secret in secrets
    ]


@given(st.binary(min_size=1, max_size=64), st.integers(min_value=1, max_value=128))
@settings(max_examples=50, deadline=None)
def test_hkdf_output_length_and_determinism(ikm: bytes, length: int):
    first = hkdf(ikm, info=b"label", length=length)
    second = hkdf(ikm, info=b"label", length=length)
    assert first == second
    assert len(first) == length
