"""Random number generation used throughout the library.

Vuvuzela needs two flavours of randomness:

* **Secret randomness** for key generation, nonces and dead-drop IDs.  In a
  real deployment this must come from the operating system CSPRNG
  (:func:`os.urandom`).
* **Reproducible randomness** for tests, simulations and benchmarks, where the
  same seed must yield the same mix permutations, noise counts and workloads.

:class:`SecureRandom` wraps ``os.urandom``; :class:`DeterministicRandom` is a
drop-in replacement backed by ChaCha20 run in counter mode over a seed, so it
is both fast and statistically well behaved.  All library code accepts any
object implementing the small :class:`RandomSource` interface.
"""

from __future__ import annotations

import hashlib
import os
import struct
from typing import Protocol, runtime_checkable


@runtime_checkable
class RandomSource(Protocol):
    """Minimal interface for byte/integer randomness used by this library."""

    def random_bytes(self, n: int) -> bytes:
        """Return ``n`` uniformly random bytes."""
        ...

    def random_uint(self, bits: int) -> int:
        """Return a uniformly random unsigned integer with ``bits`` bits."""
        ...

    def random_float(self) -> float:
        """Return a uniform float in ``[0, 1)`` with 53 bits of precision."""
        ...


class SecureRandom:
    """Cryptographically secure randomness backed by ``os.urandom``."""

    def random_bytes(self, n: int) -> bytes:
        if n < 0:
            raise ValueError("cannot request a negative number of bytes")
        return os.urandom(n)

    def random_uint(self, bits: int) -> int:
        if bits <= 0:
            raise ValueError("bits must be positive")
        nbytes = (bits + 7) // 8
        value = int.from_bytes(self.random_bytes(nbytes), "big")
        return value >> (nbytes * 8 - bits)

    def random_float(self) -> float:
        return self.random_uint(53) / float(1 << 53)


class DeterministicRandom:
    """Seeded, reproducible randomness with a CSPRNG-like construction.

    The stream is SHA-256 in counter mode over ``(seed, counter)``.  This is
    not meant to protect real secrets; it exists so simulations, tests and
    benchmarks are exactly reproducible from a seed while still producing
    high-quality, unbiased bytes.
    """

    def __init__(self, seed: int | bytes | str = 0) -> None:
        if isinstance(seed, int):
            seed_bytes = seed.to_bytes(16, "big", signed=False) if seed >= 0 else (
                (-seed).to_bytes(16, "big") + b"-"
            )
        elif isinstance(seed, str):
            seed_bytes = seed.encode("utf-8")
        else:
            seed_bytes = bytes(seed)
        self._seed = hashlib.sha256(b"repro-drng:" + seed_bytes).digest()
        self._counter = 0
        self._buffer = b""

    def random_bytes(self, n: int) -> bytes:
        if n < 0:
            raise ValueError("cannot request a negative number of bytes")
        if len(self._buffer) < n:
            # One join, not one concatenation per block: a bulk draw (a whole
            # round's noise payloads, ~400 KB) must not re-copy the buffer
            # for every 32 bytes it gains.
            blocks = [self._buffer]
            for _ in range((n - len(self._buffer) + 31) // 32):
                blocks.append(
                    hashlib.sha256(self._seed + struct.pack(">Q", self._counter)).digest()
                )
                self._counter += 1
            self._buffer = b"".join(blocks)
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        return out

    def random_uint(self, bits: int) -> int:
        if bits <= 0:
            raise ValueError("bits must be positive")
        nbytes = (bits + 7) // 8
        value = int.from_bytes(self.random_bytes(nbytes), "big")
        return value >> (nbytes * 8 - bits)

    def random_float(self) -> float:
        return self.random_uint(53) / float(1 << 53)

    def fork(self, label: str) -> "DeterministicRandom":
        """Derive an independent child stream identified by ``label``.

        Forking lets a simulation hand each component (noise generation,
        workload, shuffling) its own stream so adding randomness consumption
        in one component does not perturb the others.
        """
        child = DeterministicRandom.__new__(DeterministicRandom)
        child._seed = hashlib.sha256(self._seed + b"/fork:" + label.encode("utf-8")).digest()
        child._counter = 0
        child._buffer = b""
        return child


_DEFAULT = SecureRandom()


def default_random() -> SecureRandom:
    """Return the process-wide secure random source."""
    return _DEFAULT
