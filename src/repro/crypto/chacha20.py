"""Pure-Python ChaCha20 stream cipher (RFC 8439 §2).

This is the reference keystream generator used by the portable secretbox
implementation.  The accelerated backend (when the ``cryptography`` package is
installed) bypasses this module entirely; tests cross-check both against the
RFC 8439 vectors.
"""

from __future__ import annotations

import struct

KEY_SIZE = 32
NONCE_SIZE = 12
BLOCK_SIZE = 64

_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)
_MASK = 0xFFFFFFFF


def _rotl32(v: int, c: int) -> int:
    return ((v << c) & _MASK) | (v >> (32 - c))


def _quarter_round(state: list[int], a: int, b: int, c: int, d: int) -> None:
    state[a] = (state[a] + state[b]) & _MASK
    state[d] = _rotl32(state[d] ^ state[a], 16)
    state[c] = (state[c] + state[d]) & _MASK
    state[b] = _rotl32(state[b] ^ state[c], 12)
    state[a] = (state[a] + state[b]) & _MASK
    state[d] = _rotl32(state[d] ^ state[a], 8)
    state[c] = (state[c] + state[d]) & _MASK
    state[b] = _rotl32(state[b] ^ state[c], 7)


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """Produce one 64-byte keystream block."""
    if len(key) != KEY_SIZE:
        raise ValueError("ChaCha20 key must be 32 bytes")
    if len(nonce) != NONCE_SIZE:
        raise ValueError("ChaCha20 nonce must be 12 bytes")

    state = list(_CONSTANTS)
    state.extend(struct.unpack("<8L", key))
    state.append(counter & _MASK)
    state.extend(struct.unpack("<3L", nonce))

    working = list(state)
    for _ in range(10):
        _quarter_round(working, 0, 4, 8, 12)
        _quarter_round(working, 1, 5, 9, 13)
        _quarter_round(working, 2, 6, 10, 14)
        _quarter_round(working, 3, 7, 11, 15)
        _quarter_round(working, 0, 5, 10, 15)
        _quarter_round(working, 1, 6, 11, 12)
        _quarter_round(working, 2, 7, 8, 13)
        _quarter_round(working, 3, 4, 9, 14)

    out = [(working[i] + state[i]) & _MASK for i in range(16)]
    return struct.pack("<16L", *out)


def chacha20_keystream(
    key: bytes, nonce: bytes, length: int, initial_counter: int = 0
) -> bytes:
    """``length`` bytes of raw keystream, starting at block ``initial_counter``."""
    if length < 0:
        raise ValueError("keystream length must be non-negative")
    blocks = [
        chacha20_block(key, initial_counter + block_index, nonce)
        for block_index in range((length + BLOCK_SIZE - 1) // BLOCK_SIZE)
    ]
    return b"".join(blocks)[:length]


def chacha20_xor(key: bytes, nonce: bytes, data: bytes, initial_counter: int = 0) -> bytes:
    """Encrypt or decrypt ``data`` with the ChaCha20 keystream.

    The operation is an involution: applying it twice with the same key,
    nonce and counter returns the original data.
    """
    length = len(data)
    keystream = chacha20_keystream(key, nonce, length, initial_counter)
    return (
        int.from_bytes(data, "little") ^ int.from_bytes(keystream, "little")
    ).to_bytes(length, "little")
