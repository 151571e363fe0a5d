"""RFC 5869 vectors and properties for HKDF-SHA256."""

from __future__ import annotations

import hmac

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


def reference_expand(prk: bytes, info: bytes, length: int) -> bytes:
    """RFC 5869's expand, one ``hmac.digest`` per block."""
    okm = block = b""
    for counter in range(1, -(-length // 32) + 1):
        block = hmac.digest(prk, block + info + bytes([counter]), "sha256")
        okm += block
    return okm[:length]


#: Keys either side of SHA-256's 64-byte block (a longer one is hashed
#: first; an empty salt stands for 32 zero bytes), and output lengths at
#: HKDF's bounds and block edges.
KEYS = st.binary(max_size=64) | st.binary(min_size=65, max_size=200)
LENGTHS = st.integers(min_value=1, max_value=100) | st.sampled_from([255 * 32 - 1, 255 * 32])


@given(ikm=st.binary(max_size=200), salt=KEYS, prk=KEYS, info=st.binary(max_size=80), length=LENGTHS)
@settings(max_examples=200, deadline=None)
def test_matches_the_hmac_module(ikm, salt, prk, info, length):
    extracted = hmac.digest(salt or bytes(32), ikm, "sha256")
    assert hkdf_extract(salt, ikm) == extracted
    assert hkdf_expand(prk, info, length) == reference_expand(prk, info, length)
    assert hkdf(ikm, salt=salt, info=info, length=length) == reference_expand(extracted, info, length)
    label = info.decode("latin-1")
    expected = reference_expand(
        hmac.digest(b"vuvuzela-v1", ikm, "sha256"), label.encode("utf-8"), length
    )
    assert derive_key(ikm, label, length) == expected
    assert derive_key_schedule([ikm, ikm], label, length) == [expected, expected]

