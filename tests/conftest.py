"""Shared fixtures for the test suite."""

from __future__ import annotations

import threading

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
    """Every batch op of a multi-worker engine that may pool goes to its
    pool: each threshold in the engine's op table drops to zero."""
    monkeypatch.setattr(round_engine, "POOL_OPS", {
        op: (work, None if threshold is None else 0)
        for op, (work, threshold) in round_engine.POOL_OPS.items()
    })


@pytest.fixture
def two_cores(monkeypatch):
    """Drivers built in the test get a two-worker engine, whatever the host."""
    monkeypatch.setattr(round_engine, "_usable_cores", lambda: 2)


#: Long enough for a hung round to be a hang, short of the CI step timeout.
ROUND_TIMEOUT = 120


@pytest.fixture
def in_time():
    """``in_time(call)`` runs ``call()`` on a helper thread and returns its
    result; a call still running after ``ROUND_TIMEOUT`` seconds fails the
    test instead of hanging it."""

    def run_in_time(call):
        outcome: dict = {}

        def run() -> None:
            try:
                outcome["value"] = call()
            except BaseException as exc:  # re-raised in the test's thread
                outcome["error"] = exc

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(ROUND_TIMEOUT)
        assert not thread.is_alive(), f"still running after {ROUND_TIMEOUT} s"
        if "error" in outcome:
            raise outcome["error"]
        return outcome["value"]

    return run_in_time
