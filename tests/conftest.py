"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.crypto import DeterministicRandom, KeyPair
from repro.runtime import engine as round_engine


@pytest.fixture
def rng() -> DeterministicRandom:
    """A reproducible random source so tests are deterministic."""
    return DeterministicRandom(seed=1234)


@pytest.fixture
def server_keys(rng) -> list[KeyPair]:
    """Key pairs for a three-server chain (the paper's default)."""
    return [KeyPair.generate(rng) for _ in range(3)]


@pytest.fixture
def alice(rng) -> KeyPair:
    return KeyPair.generate(rng)


@pytest.fixture
def bob(rng) -> KeyPair:
    return KeyPair.generate(rng)


@pytest.fixture
def forced_pool(monkeypatch):
    """Every batch op of a multi-worker engine goes to its pool."""
    monkeypatch.setattr(round_engine, "POOL_CURVE_OPS", 0)
    monkeypatch.setattr(round_engine, "SCAN_PARALLEL_TRIALS", 0)
