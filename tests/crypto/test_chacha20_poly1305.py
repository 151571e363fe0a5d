"""RFC 8439 vectors for ChaCha20, Poly1305 and the combined AEAD."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import chacha20, poly1305
from repro.crypto.backend import (
    CRYPTOGRAPHY,
    _pure_aead_decrypt,
    _pure_aead_encrypt,
    available_backends,
)
from repro.crypto.rng import DeterministicRandom
from repro.errors import DecryptionError

# RFC 8439 section 2.3.2 block function vector.
BLOCK_KEY = bytes(range(32))
BLOCK_NONCE = bytes.fromhex("000000090000004a00000000")
BLOCK_OUT = bytes.fromhex(
    "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
    "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
)

# RFC 8439 section 2.4.2 encryption vector.
ENC_KEY = bytes(range(32))
ENC_NONCE = bytes.fromhex("000000000000004a00000000")
ENC_PLAINTEXT = (
    b"Ladies and Gentlemen of the class of '99: If I could offer you "
    b"only one tip for the future, sunscreen would be it."
)
ENC_CIPHERTEXT = bytes.fromhex(
    "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
    "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
    "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
    "5af90bbf74a35be6b40b8eedf2785e42874d"
)

# RFC 8439 section 2.5.2 Poly1305 vector.
POLY_KEY = bytes.fromhex(
    "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b"
)
POLY_MESSAGE = b"Cryptographic Forum Research Group"
POLY_TAG = bytes.fromhex("a8061dc1305136c6c22b8baf0c0127a9")

# RFC 8439 section 2.8.2 AEAD vector.
AEAD_KEY = bytes.fromhex(
    "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f"
)
AEAD_NONCE = bytes.fromhex("070000004041424344454647")
AEAD_AAD = bytes.fromhex("50515253c0c1c2c3c4c5c6c7")
AEAD_CIPHERTEXT = bytes.fromhex(
    "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
    "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
    "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
    "3ff4def08e4b7a9de576d26586cec64b6116"
)
AEAD_TAG = bytes.fromhex("1ae10b594f09e26a7e902ecbd0600691")


def test_chacha20_block_vector():
    assert chacha20.chacha20_block(BLOCK_KEY, 1, BLOCK_NONCE) == BLOCK_OUT


def test_chacha20_encryption_vector():
    out = chacha20.chacha20_xor(ENC_KEY, ENC_NONCE, ENC_PLAINTEXT, initial_counter=1)
    assert out == ENC_CIPHERTEXT


def test_chacha20_is_an_involution():
    data = b"vuvuzela" * 20
    key, nonce = b"\x07" * 32, b"\x01" * 12
    once = chacha20.chacha20_xor(key, nonce, data)
    assert chacha20.chacha20_xor(key, nonce, once) == data


def test_keystream_matches_xor_of_zeros():
    rng = DeterministicRandom(1)
    key, nonce = rng.random_bytes(32), rng.random_bytes(12)
    stream = chacha20.chacha20_keystream(key, nonce, 200, 3)
    assert stream == chacha20.chacha20_xor(key, nonce, bytes(200), 3)


def test_keystream_length_is_exact_and_prefix_consistent():
    """A keystream cut mid-block is the prefix of the longer stream, so a
    message of any length sees the same key bytes it would inside a longer one."""
    rng = DeterministicRandom(2)
    key, nonce = rng.random_bytes(32), rng.random_bytes(12)
    full = chacha20.chacha20_keystream(key, nonce, 300, 5)
    for length in (0, 1, 63, 64, 65, 128, 299):
        stream = chacha20.chacha20_keystream(key, nonce, length, 5)
        assert len(stream) == length
        assert stream == full[:length]
    with pytest.raises(ValueError):
        chacha20.chacha20_keystream(key, nonce, -1)


def test_initial_counter_continues_the_stream():
    """Starting at block ``c`` is the same as skipping ``c`` blocks of the
    counter-0 stream: the AEAD's payload (counter 1) relies on it."""
    rng = DeterministicRandom(3)
    key, nonce = rng.random_bytes(32), rng.random_bytes(12)
    data = rng.random_bytes(391)
    skipped = chacha20.chacha20_xor(key, nonce, bytes(2 * 64) + data, 0)[2 * 64 :]
    assert chacha20.chacha20_xor(key, nonce, data, 2) == skipped


def test_chacha20_rejects_bad_key_and_nonce_sizes():
    with pytest.raises(ValueError):
        chacha20.chacha20_block(b"short", 0, b"\x00" * 12)
    with pytest.raises(ValueError):
        chacha20.chacha20_block(b"\x00" * 32, 0, b"short")


def test_poly1305_vector():
    assert poly1305.poly1305_mac(POLY_KEY, POLY_MESSAGE) == POLY_TAG


def test_poly1305_rejects_short_key():
    with pytest.raises(ValueError):
        poly1305.poly1305_mac(b"short", b"message")


def test_aead_rfc8439_vector():
    out = _pure_aead_encrypt(AEAD_KEY, AEAD_NONCE, ENC_PLAINTEXT, AEAD_AAD)
    assert out == AEAD_CIPHERTEXT + AEAD_TAG
    back = _pure_aead_decrypt(AEAD_KEY, AEAD_NONCE, AEAD_CIPHERTEXT + AEAD_TAG, AEAD_AAD)
    assert back == ENC_PLAINTEXT


def test_aead_detects_tampering():
    box = _pure_aead_encrypt(AEAD_KEY, AEAD_NONCE, b"secret", b"")
    corrupted = bytes([box[0] ^ 1]) + box[1:]
    with pytest.raises(DecryptionError):
        _pure_aead_decrypt(AEAD_KEY, AEAD_NONCE, corrupted, b"")


def test_aead_detects_wrong_aad():
    box = _pure_aead_encrypt(AEAD_KEY, AEAD_NONCE, b"secret", b"aad-one")
    with pytest.raises(DecryptionError):
        _pure_aead_decrypt(AEAD_KEY, AEAD_NONCE, box, b"aad-two")


@pytest.mark.skipif(
    CRYPTOGRAPHY not in available_backends(), reason="cryptography not installed"
)
@given(st.binary(max_size=600), st.binary(max_size=64))
@settings(max_examples=25, deadline=None)
def test_pure_aead_matches_cryptography(plaintext: bytes, aad: bytes):
    from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

    key, nonce = b"\x42" * 32, b"\x13" * 12
    ours = _pure_aead_encrypt(key, nonce, plaintext, aad)
    theirs = ChaCha20Poly1305(key).encrypt(nonce, plaintext, aad or None)
    assert ours == theirs
