"""Vectorized batch kernels for round-scale crypto.

Vuvuzela servers never handle one message at a time: a round is ~1M requests
plus cover traffic, all peeled with the *same* server private key and all
sealed under the *same* per-round nonce.  That shape admits two batch
optimisations the per-message code path cannot express:

* **Fixed-scalar X25519** — every wire in a round is peeled with the server's
  one private scalar, so the Montgomery-ladder swap schedule is identical for
  the whole batch.  The ladder runs *once*, each field operation applied
  across the batch, and the conditional swaps collapse into O(1) list swaps.
  The final projective-to-affine division uses Montgomery's batch-inversion
  trick: one modular exponentiation for the whole round instead of one per
  message.
* **Shared-nonce ChaCha20** — all boxes of a round use the round nonce, so
  the keystream schedule (counter layout, block count) is shared and the
  block function can run across the batch.

When :mod:`numpy` is importable the batch runs on vectorized limb arithmetic:
field elements mod 2^255-19 are ten signed 64-bit limbs in the mixed 26/25-bit
radix of curve25519-donna (products of reduced limbs stay below 2^63), and
ChaCha20 state is sixteen uint32 lanes.  Without numpy the same entry points
fall back to tight pure-Python loops (an unrolled ChaCha20 block and a
list-based ladder) that remain dependency-free.  Every path is byte-identical
to the reference implementations in :mod:`repro.crypto.x25519` and
:mod:`repro.crypto.chacha20`; the test suite cross-validates them.
"""

from __future__ import annotations

import struct
from typing import Sequence

from .x25519 import A24, BASE_POINT, P, clamp_scalar, scalar_mult

try:  # numpy is an optional accelerator, never a hard dependency
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on minimal installs
    _np = None

HAVE_NUMPY = _np is not None

#: Below this batch size the numpy ChaCha20 and XOR kernels lose to their
#: fixed per-call overhead; the pure-Python paths are used instead.
MIN_NUMPY_BATCH = 64

#: The same crossover for the two X25519 ladders, whose 255 vectorized
#: steps cost a near-fixed 0.6-0.8 s a batch at these sizes.  Per wire, best
#: of 5, numpy against pure Python on a 2-core Xeon with numpy 2.4: the
#: fixed-scalar peel loses at 256 wires (2.9 vs 2.5 ms) and breaks even at
#: 384 (1.5 vs 1.6 ms); the fixed-point wrap loses at 256 (5.5 vs 4.3 ms)
#: and wins at 384 (3.1 vs 4.2 ms).
MIN_NUMPY_LADDER_BATCH = 384

#: Sweet-spot kernel batch width for round-scale work.  The vectorized
#: ladder allocates a few dozen int64 limb arrays per step; past ~10k
#: messages those temporaries outgrow the cache hierarchy and throughput
#: *drops* (measured: 100k-wide batches run ~40% slower per message than
#: 10k-wide ones), while far below it the 255-step Python loop's fixed
#: overhead dominates.  The round engine shards batches into chunks of this
#: size by default so working-set size stays bounded regardless of round
#: size.
PREFERRED_CHUNK = 8192

_MASK32 = 0xFFFFFFFF
_MASK255 = (1 << 255) - 1

# ---------------------------------------------------------------------------
# Field representation: 10 signed limbs, radix 2^25.5 (curve25519-donna).
# Limb i carries bits [e(i), e(i+1)) of the value with e(i) = ceil(25.5 * i);
# even limbs hold 26 bits, odd limbs 25.
# ---------------------------------------------------------------------------

_LIMB_SHIFTS = tuple((51 * i + 1) // 2 for i in range(10))  # e(i)
_LIMB_BITS = tuple(26 if i % 2 == 0 else 25 for i in range(10))
# Reduction factor: 2^255 = 19 (mod P); a product limb landing at position
# k >= 10 folds back to k - 10 with a factor of 19, and products of two odd
# limbs sit one bit above their target position, contributing a factor of 2.
_MUL_COEF = tuple(
    tuple((2 if (i % 2 and j % 2) else 1) * (19 if i + j >= 10 else 1) for j in range(10))
    for i in range(10)
)


def _int_to_limbs(value: int) -> list[int]:
    return [(value >> _LIMB_SHIFTS[i]) & ((1 << _LIMB_BITS[i]) - 1) for i in range(10)]


def _limbs_to_int(limbs: Sequence[int]) -> int:
    return sum(int(limb) << _LIMB_SHIFTS[i] for i, limb in enumerate(limbs)) % P


def _np_carry(h: list) -> list:
    """Propagate carries so every limb fits its 26/25-bit window.

    Inputs may be signed and as large as ~2^62; numpy's right shift on signed
    integers is arithmetic (floor), matching Python's ``>>`` semantics.
    """
    for i in range(9):
        c = h[i] >> _LIMB_BITS[i]
        h[i] = h[i] - (c << _LIMB_BITS[i])
        h[i + 1] = h[i + 1] + c
    c = h[9] >> 25
    h[9] = h[9] - (c << 25)
    h[0] = h[0] + 19 * c
    c = h[0] >> 26
    h[0] = h[0] - (c << 26)
    h[1] = h[1] + c
    return h


def _np_mul(f: list, g: list) -> list:
    """Batched field multiplication on limb arrays (shape ``(n,)`` each)."""
    h = [None] * 10
    for i in range(10):
        fi = f[i]
        coefs = _MUL_COEF[i]
        for j in range(10):
            k = i + j
            if k >= 10:
                k -= 10
            coef = coefs[j]
            term = fi * g[j] if coef == 1 else (coef * fi) * g[j]
            h[k] = term if h[k] is None else h[k] + term
    return _np_carry(h)


def _np_sq(f: list) -> list:
    """Batched field squaring (symmetric products computed once)."""
    h = [None] * 10
    for i in range(10):
        fi = f[i]
        for j in range(i, 10):
            coef = _MUL_COEF[i][j] * (1 if i == j else 2)
            k = i + j
            if k >= 10:
                k -= 10
            term = fi * f[j] if coef == 1 else (coef * fi) * f[j]
            h[k] = term if h[k] is None else h[k] + term
    return _np_carry(h)


def _np_add(f: list, g: list) -> list:
    return [f[i] + g[i] for i in range(10)]


def _np_sub(f: list, g: list) -> list:
    return [f[i] - g[i] for i in range(10)]


def _np_decode_points(us: Sequence[bytes]) -> list:
    """Decode 32-byte u-coordinates into limb arrays of shape ``(n,)``."""
    raw = _np.frombuffer(b"".join(bytes(u) for u in us), dtype="<u4").reshape(-1, 8)
    words = raw.astype(_np.int64)
    value_limbs = []
    for i in range(10):
        shift = _LIMB_SHIFTS[i]
        lo_word, lo_bit = divmod(shift, 32)
        limb = words[:, lo_word] >> lo_bit
        taken = 32 - lo_bit
        while taken < _LIMB_BITS[i]:
            lo_word += 1
            if lo_word < 8:
                limb = limb | (words[:, lo_word] << taken)
            taken += 32
        value_limbs.append(limb & ((1 << _LIMB_BITS[i]) - 1))
    # RFC 7748: mask the top bit of the u-coordinate before use.
    value_limbs[9] = value_limbs[9] & ((1 << 25) - 1)
    return value_limbs


def _np_ladder_outputs(x2, z2, n: int) -> list[bytes]:
    """Convert projective results to affine bytes with one batched inversion."""
    x_ints = [_limbs_to_int([x2[i][m] for i in range(10)]) for m in range(n)]
    z_ints = [_limbs_to_int([z2[i][m] for i in range(10)]) for m in range(n)]
    return _batch_affine(x_ints, z_ints)


def _batch_affine(x_ints: Sequence[int], z_ints: Sequence[int]) -> list[bytes]:
    """Montgomery's trick: all z inversions for one modular exponentiation.

    A zero z (small-order input point) yields the all-zero output, exactly as
    the per-message ladder does.
    """
    n = len(z_ints)
    nonzero = [z if z else 1 for z in z_ints]
    prefix = [1] * (n + 1)
    for i, z in enumerate(nonzero):
        prefix[i + 1] = prefix[i] * z % P
    inv = pow(prefix[n], P - 2, P)
    out = [b""] * n
    for i in range(n - 1, -1, -1):
        z_inv = inv * prefix[i] % P
        inv = inv * nonzero[i] % P
        result = x_ints[i] * z_inv % P if z_ints[i] else 0
        out[i] = result.to_bytes(32, "little")
    return out


def _np_ladder_step(x1, x2, z2, x3, z3):
    """One Montgomery ladder step applied across the batch (RFC 7748 §5)."""
    a = _np_add(x2, z2)
    b = _np_sub(x2, z2)
    aa = _np_sq(a)
    bb = _np_sq(b)
    e = _np_sub(aa, bb)
    c = _np_add(x3, z3)
    d = _np_sub(x3, z3)
    da = _np_mul(d, a)
    cb = _np_mul(c, b)
    x3 = _np_sq(_np_add(da, cb))
    z3 = _np_mul(x1, _np_sq(_np_sub(da, cb)))
    x2 = _np_mul(aa, bb)
    # aa + A24 * e can reach ~2^43 per limb; carry before multiplying so the
    # products stay inside int64.
    z2 = _np_mul(e, _np_carry([aa[i] + A24 * e[i] for i in range(10)]))
    return x2, z2, x3, z3


def _np_x25519_fixed_scalar(k: bytes, us: Sequence[bytes]) -> list[bytes]:
    """Batched X25519 with one scalar and many points (server-side peel)."""
    scalar = clamp_scalar(bytes(k))
    n = len(us)
    x1 = _np_decode_points(us)
    zeros = _np.zeros(n, dtype=_np.int64)
    ones = zeros + 1
    x2 = [ones] + [zeros] * 9
    z2 = [zeros] * 10
    x3 = [limb.copy() for limb in x1]
    z3 = [ones] + [zeros] * 9
    swap = 0
    for t in reversed(range(255)):
        k_t = (scalar >> t) & 1
        if swap ^ k_t:
            x2, x3 = x3, x2
            z2, z3 = z3, z2
        swap = k_t
        x2, z2, x3, z3 = _np_ladder_step(x1, x2, z2, x3, z3)
    if swap:
        x2, x3 = x3, x2
        z2, z3 = z3, z2
    return _np_ladder_outputs(x2, z2, n)


def _np_x25519_fixed_point(ks: Sequence[bytes], u: bytes) -> list[bytes]:
    """Batched X25519 with many scalars and one point (client/noise wrap)."""
    n = len(ks)
    scalars = [clamp_scalar(bytes(k)) for k in ks]
    point = int.from_bytes(bytes(u), "little") & _MASK255
    x1 = [_np.full(n, limb, dtype=_np.int64) for limb in _int_to_limbs(point)]
    zeros = _np.zeros(n, dtype=_np.int64)
    ones = zeros + 1
    x2 = [ones.copy()] + [zeros.copy() for _ in range(9)]
    z2 = [zeros.copy() for _ in range(10)]
    x3 = [limb.copy() for limb in x1]
    z3 = [ones.copy()] + [zeros.copy() for _ in range(9)]
    swap = zeros  # per-message accumulated swap state
    for t in reversed(range(255)):
        bits = _np.fromiter(((s >> t) & 1 for s in scalars), dtype=_np.int64, count=n)
        do_swap = (swap ^ bits).astype(bool)
        for i in range(10):
            x2[i], x3[i] = _np.where(do_swap, x3[i], x2[i]), _np.where(do_swap, x2[i], x3[i])
            z2[i], z3[i] = _np.where(do_swap, z3[i], z2[i]), _np.where(do_swap, z2[i], z3[i])
        swap = bits
        x2, z2, x3, z3 = _np_ladder_step(x1, x2, z2, x3, z3)
    final = swap.astype(bool)
    for i in range(10):
        x2[i] = _np.where(final, x3[i], x2[i])
        z2[i] = _np.where(final, z3[i], z2[i])
    return _np_ladder_outputs(x2, z2, n)


# ---------------------------------------------------------------------------
# Pure-Python fallbacks: shared swap schedule + batch inversion, big-int field
# arithmetic applied with list comprehensions.
# ---------------------------------------------------------------------------


def _py_x25519_fixed_scalar(k: bytes, us: Sequence[bytes]) -> list[bytes]:
    scalar = clamp_scalar(bytes(k))
    n = len(us)
    x1 = [int.from_bytes(bytes(u), "little") & _MASK255 for u in us]
    x2 = [1] * n
    z2 = [0] * n
    x3 = list(x1)
    z3 = [1] * n
    swap = 0
    for t in reversed(range(255)):
        k_t = (scalar >> t) & 1
        if swap ^ k_t:
            x2, x3 = x3, x2
            z2, z3 = z3, z2
        swap = k_t
        a = [(p + q) % P for p, q in zip(x2, z2)]
        b = [(p - q) % P for p, q in zip(x2, z2)]
        aa = [p * p % P for p in a]
        bb = [p * p % P for p in b]
        e = [(p - q) % P for p, q in zip(aa, bb)]
        c = [(p + q) % P for p, q in zip(x3, z3)]
        d = [(p - q) % P for p, q in zip(x3, z3)]
        da = [p * q % P for p, q in zip(d, a)]
        cb = [p * q % P for p, q in zip(c, b)]
        x3 = [(p + q) ** 2 % P for p, q in zip(da, cb)]
        z3 = [r * ((p - q) ** 2 % P) % P for r, p, q in zip(x1, da, cb)]
        x2 = [p * q % P for p, q in zip(aa, bb)]
        z2 = [p * (q + A24 * p) % P for p, q in zip(e, aa)]
    if swap:
        x2, x3 = x3, x2
        z2, z3 = z3, z2
    return _batch_affine(x2, z2)


# ---------------------------------------------------------------------------
# ChaCha20 batch keystream.
# ---------------------------------------------------------------------------


def chacha20_keystream(key: bytes, nonce: bytes, counter: int, nblocks: int) -> bytes:
    """``nblocks`` consecutive keystream blocks as one byte string.

    Fully unrolled single-message kernel used by the no-numpy batch AEAD
    path; byte-identical to :func:`repro.crypto.chacha20.chacha20_block`.
    """
    k0, k1, k2, k3, k4, k5, k6, k7 = struct.unpack("<8L", key)
    n0, n1, n2 = struct.unpack("<3L", nonce)
    out = []
    mask = _MASK32
    for block in range(nblocks):
        ctr = (counter + block) & mask
        x0, x1, x2, x3 = 0x61707865, 0x3320646E, 0x79622D32, 0x6B206574
        x4, x5, x6, x7, x8, x9, x10, x11 = k0, k1, k2, k3, k4, k5, k6, k7
        x12, x13, x14, x15 = ctr, n0, n1, n2
        for _ in range(10):
            x0 = (x0 + x4) & mask; t = x12 ^ x0; x12 = ((t << 16) & mask) | (t >> 16)
            x8 = (x8 + x12) & mask; t = x4 ^ x8; x4 = ((t << 12) & mask) | (t >> 20)
            x0 = (x0 + x4) & mask; t = x12 ^ x0; x12 = ((t << 8) & mask) | (t >> 24)
            x8 = (x8 + x12) & mask; t = x4 ^ x8; x4 = ((t << 7) & mask) | (t >> 25)
            x1 = (x1 + x5) & mask; t = x13 ^ x1; x13 = ((t << 16) & mask) | (t >> 16)
            x9 = (x9 + x13) & mask; t = x5 ^ x9; x5 = ((t << 12) & mask) | (t >> 20)
            x1 = (x1 + x5) & mask; t = x13 ^ x1; x13 = ((t << 8) & mask) | (t >> 24)
            x9 = (x9 + x13) & mask; t = x5 ^ x9; x5 = ((t << 7) & mask) | (t >> 25)
            x2 = (x2 + x6) & mask; t = x14 ^ x2; x14 = ((t << 16) & mask) | (t >> 16)
            x10 = (x10 + x14) & mask; t = x6 ^ x10; x6 = ((t << 12) & mask) | (t >> 20)
            x2 = (x2 + x6) & mask; t = x14 ^ x2; x14 = ((t << 8) & mask) | (t >> 24)
            x10 = (x10 + x14) & mask; t = x6 ^ x10; x6 = ((t << 7) & mask) | (t >> 25)
            x3 = (x3 + x7) & mask; t = x15 ^ x3; x15 = ((t << 16) & mask) | (t >> 16)
            x11 = (x11 + x15) & mask; t = x7 ^ x11; x7 = ((t << 12) & mask) | (t >> 20)
            x3 = (x3 + x7) & mask; t = x15 ^ x3; x15 = ((t << 8) & mask) | (t >> 24)
            x11 = (x11 + x15) & mask; t = x7 ^ x11; x7 = ((t << 7) & mask) | (t >> 25)
            x0 = (x0 + x5) & mask; t = x15 ^ x0; x15 = ((t << 16) & mask) | (t >> 16)
            x10 = (x10 + x15) & mask; t = x5 ^ x10; x5 = ((t << 12) & mask) | (t >> 20)
            x0 = (x0 + x5) & mask; t = x15 ^ x0; x15 = ((t << 8) & mask) | (t >> 24)
            x10 = (x10 + x15) & mask; t = x5 ^ x10; x5 = ((t << 7) & mask) | (t >> 25)
            x1 = (x1 + x6) & mask; t = x12 ^ x1; x12 = ((t << 16) & mask) | (t >> 16)
            x11 = (x11 + x12) & mask; t = x6 ^ x11; x6 = ((t << 12) & mask) | (t >> 20)
            x1 = (x1 + x6) & mask; t = x12 ^ x1; x12 = ((t << 8) & mask) | (t >> 24)
            x11 = (x11 + x12) & mask; t = x6 ^ x11; x6 = ((t << 7) & mask) | (t >> 25)
            x2 = (x2 + x7) & mask; t = x13 ^ x2; x13 = ((t << 16) & mask) | (t >> 16)
            x8 = (x8 + x13) & mask; t = x7 ^ x8; x7 = ((t << 12) & mask) | (t >> 20)
            x2 = (x2 + x7) & mask; t = x13 ^ x2; x13 = ((t << 8) & mask) | (t >> 24)
            x8 = (x8 + x13) & mask; t = x7 ^ x8; x7 = ((t << 7) & mask) | (t >> 25)
            x3 = (x3 + x4) & mask; t = x14 ^ x3; x14 = ((t << 16) & mask) | (t >> 16)
            x9 = (x9 + x14) & mask; t = x4 ^ x9; x4 = ((t << 12) & mask) | (t >> 20)
            x3 = (x3 + x4) & mask; t = x14 ^ x3; x14 = ((t << 8) & mask) | (t >> 24)
            x9 = (x9 + x14) & mask; t = x4 ^ x9; x4 = ((t << 7) & mask) | (t >> 25)
        out.append(
            struct.pack(
                "<16L",
                (x0 + 0x61707865) & mask, (x1 + 0x3320646E) & mask,
                (x2 + 0x79622D32) & mask, (x3 + 0x6B206574) & mask,
                (x4 + k0) & mask, (x5 + k1) & mask, (x6 + k2) & mask, (x7 + k3) & mask,
                (x8 + k4) & mask, (x9 + k5) & mask, (x10 + k6) & mask, (x11 + k7) & mask,
                (x12 + ctr) & mask, (x13 + n0) & mask, (x14 + n1) & mask, (x15 + n2) & mask,
            )
        )
    return b"".join(out)


def _np_rotl(x, bits: int):
    return (x << _np.uint32(bits)) | (x >> _np.uint32(32 - bits))


def _np_quarter(state, ia: int, ib: int, ic: int, id_: int) -> None:
    state[ia] = state[ia] + state[ib]
    state[id_] = _np_rotl(state[id_] ^ state[ia], 16)
    state[ic] = state[ic] + state[id_]
    state[ib] = _np_rotl(state[ib] ^ state[ic], 12)
    state[ia] = state[ia] + state[ib]
    state[id_] = _np_rotl(state[id_] ^ state[ia], 8)
    state[ic] = state[ic] + state[id_]
    state[ib] = _np_rotl(state[ib] ^ state[ic], 7)


def _np_chacha20_keystreams(keys: Sequence[bytes], nonce: bytes, counter: int, nblocks: int):
    """Keystreams for many keys under one nonce: uint8 array ``(n, 64*nblocks)``.

    uint32 arithmetic wraps modulo 2^32 exactly as the scalar kernel's masked
    arithmetic does.
    """
    n = len(keys)
    key_words = _np.frombuffer(b"".join(bytes(k) for k in keys), dtype="<u4").reshape(n, 8)
    nonce_words = struct.unpack("<3L", nonce)
    constants = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)
    blocks = _np.empty((n, nblocks * 16), dtype="<u4")
    for block in range(nblocks):
        initial = [
            *(_np.full(n, c, dtype=_np.uint32) for c in constants),
            *(key_words[:, w].astype(_np.uint32) for w in range(8)),
            _np.full(n, (counter + block) & _MASK32, dtype=_np.uint32),
            *(_np.full(n, w, dtype=_np.uint32) for w in nonce_words),
        ]
        state = [lane.copy() for lane in initial]
        for _ in range(10):
            _np_quarter(state, 0, 4, 8, 12)
            _np_quarter(state, 1, 5, 9, 13)
            _np_quarter(state, 2, 6, 10, 14)
            _np_quarter(state, 3, 7, 11, 15)
            _np_quarter(state, 0, 5, 10, 15)
            _np_quarter(state, 1, 6, 11, 12)
            _np_quarter(state, 2, 7, 8, 13)
            _np_quarter(state, 3, 4, 9, 14)
        for w in range(16):
            blocks[:, block * 16 + w] = state[w] + initial[w]
    return blocks.view(_np.uint8).reshape(n, nblocks * 64)


def chacha20_keystreams_batch(
    keys: Sequence[bytes], nonce: bytes, counter: int, nblocks: int
) -> list[bytes]:
    """Per-message keystreams (``nblocks`` blocks each) under a shared nonce."""
    if HAVE_NUMPY and len(keys) >= MIN_NUMPY_BATCH:
        flat = _np_chacha20_keystreams(keys, nonce, counter, nblocks)
        raw = flat.tobytes()
        span = nblocks * 64
        return [raw[i * span : (i + 1) * span] for i in range(len(keys))]
    return [chacha20_keystream(bytes(k), nonce, counter, nblocks) for k in keys]


def xor_bytes(data: bytes, keystream: bytes) -> bytes:
    """XOR ``data`` with the prefix of ``keystream`` via one big-int operation."""
    length = len(data)
    return (
        int.from_bytes(data, "little") ^ int.from_bytes(keystream[:length], "little")
    ).to_bytes(length, "little")


def xor_batch(datas: Sequence[bytes], keystreams: Sequence[bytes]) -> list[bytes]:
    """Element-wise XOR of equal-length messages against their keystreams."""
    if not datas:
        return []
    length = len(datas[0])
    if length == 0:
        return [b""] * len(datas)
    if HAVE_NUMPY and len(datas) >= MIN_NUMPY_BATCH:
        arr = _np.frombuffer(b"".join(bytes(d) for d in datas), dtype=_np.uint8).reshape(-1, length)
        ks = _np.frombuffer(b"".join(k[:length] for k in keystreams), dtype=_np.uint8).reshape(
            -1, length
        )
        raw = (arr ^ ks).tobytes()
        return [raw[i * length : (i + 1) * length] for i in range(len(datas))]
    return [xor_bytes(bytes(d), k) for d, k in zip(datas, keystreams)]


def x25519_fixed_scalar_batch(k: bytes, us: Sequence[bytes]) -> list[bytes]:
    """``[X25519(k, u) for u in us]`` with one shared ladder schedule."""
    if not us:
        return []
    if HAVE_NUMPY and len(us) >= MIN_NUMPY_LADDER_BATCH:
        return _np_x25519_fixed_scalar(k, us)
    return _py_x25519_fixed_scalar(k, us)


def x25519_fixed_point_batch(ks: Sequence[bytes], u: bytes) -> tuple[list[bytes], list[bytes]]:
    """``([X25519(k, 9) for k in ks], [X25519(k, u) for k in ks])``: each scalar's
    public key and its shared secret with ``u``, vectorized over the scalars."""
    if HAVE_NUMPY and len(ks) >= MIN_NUMPY_LADDER_BATCH:
        return _np_x25519_fixed_point(ks, BASE_POINT), _np_x25519_fixed_point(ks, u)
    return (
        [scalar_mult(bytes(k), BASE_POINT) for k in ks],
        [scalar_mult(bytes(k), bytes(u)) for k in ks],
    )
