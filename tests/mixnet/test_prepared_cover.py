"""Cover traffic prepared one round ahead, inline and on a forced two-worker pool.

A mixing server draws round ``r + 1``'s noise and starts its wrap when its
pass of round ``r`` is done.  These tests pin what that may not change: the
bytes every round forwards are the bytes a fresh server draws for the same
``(round, attempt)``; a retry draws fresh noise and keeps the next round's;
a stale or lost wrap is given up and redrawn; no worker outlives the engine;
and a serial engine spends no curve operation on a wrap it never takes.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
from collections import Counter

import pytest

from repro.crypto import DeterministicRandom, KeyPair, wrap_request
from repro.crypto import backend as crypto_backend
from repro.errors import ProtocolError
from repro.mixnet.chain import build_chain
from repro.runtime import RoundEngine, default_engine
from repro.runtime import worker as engine_worker

KEYPAIRS = [KeyPair.generate(DeterministicRandom(f"ahead-{i}")) for i in range(3)]
PUBLICS = [kp.public for kp in KEYPAIRS]
NOISE = 4
WIRES = 6


def wires_for(round_number: int) -> list[bytes]:
    rng = DeterministicRandom(f"ahead-wires-{round_number}")
    return [
        wrap_request(f"msg-{i}".encode().ljust(32, b"."), PUBLICS, round_number, rng)[0]
        for i in range(WIRES)
    ]


class Recorder:
    """A 3-server chain whose mixing servers add ``NOISE`` payloads: it
    records each batch the last server hands on and each noise draw."""

    def __init__(self, engine: RoundEngine | None) -> None:
        self.batches: list[list[bytes]] = []
        self.draws: list[tuple[int, int]] = []

        def noise_factory(index):
            if index == len(KEYPAIRS) - 1:
                return None

            def build(round_number, rng):
                self.draws.append((index, round_number))
                return [rng.random_bytes(40) for _ in range(NOISE)]

            return build

        def echo(round_number, payloads):
            self.batches.append([bytes(p) for p in payloads])
            return [bytes(p)[:16] for p in payloads]

        self.chain = build_chain(
            KEYPAIRS,
            echo,
            rng=DeterministicRandom("ahead-chain"),
            noise_builder_factory=noise_factory,
            engine=engine,
        )

    def run(self, round_number: int, attempt: int = 1) -> list[bytes]:
        """The batch the chain hands its processor in this round attempt."""
        self.chain.run_round(round_number, wires_for(round_number), attempt=attempt)
        return self.batches[-1]

    def prepared(self) -> list:
        return [server._prepared for server in self.chain.servers[:2]]


def fresh(round_number: int, attempt: int = 1) -> list[bytes]:
    """What a server that never ran another round forwards for this attempt."""
    return Recorder(None).run(round_number, attempt)


@pytest.fixture(params=[1, 2], ids=["inline", "pool"])
def engine(request, forced_pool):
    with RoundEngine(workers=request.param) as engine:
        yield engine
    assert multiprocessing.active_children() == []


def test_every_round_forwards_what_a_fresh_server_draws(engine):
    chain = Recorder(engine)
    for round_number in (5, 6, 7):
        assert chain.run(round_number) == fresh(round_number)
    # Each round drawn once, by the pass before it (round 5 by its own).
    assert Counter(chain.draws) == {(i, r): 1 for i in (0, 1) for r in (5, 6, 7, 8)}


def test_a_retry_draws_fresh_noise_and_keeps_the_next_round(engine):
    chain = Recorder(engine)
    first = chain.run(5)
    ahead = chain.prepared()
    assert [cover.key for cover in ahead] == [(6, 1)] * 2
    retried = chain.run(5, attempt=2)
    assert retried == fresh(5, attempt=2) and retried != first
    assert all(now is then for now, then in zip(chain.prepared(), ahead))
    chain.draws.clear()
    assert chain.run(6) == fresh(6)
    assert sorted(chain.draws) == [(0, 7), (1, 7)]  # round 6 was taken as prepared


def test_a_wrap_prepared_for_an_older_round_is_cancelled(engine):
    chain = Recorder(engine)
    chain.run(5)
    stale = [cover.wrap for cover in chain.prepared()]
    chain.draws.clear()
    assert chain.run(8) == fresh(8)
    assert sorted(chain.draws) == [(0, 8), (0, 9), (1, 8), (1, 9)]
    for wrap in stale:
        with pytest.raises(ProtocolError):
            wrap.result()
    assert chain.run(9) == fresh(9)


@pytest.mark.parametrize("how", ["aborted", "closed"])
def test_a_wrap_prepared_on_a_lost_pool_is_redrawn(forced_pool, how):
    with RoundEngine(workers=2) as engine:
        chain = Recorder(engine)
        chain.run(5)
        lost = engine._pool
        if how == "closed":
            engine.close()
        else:
            with pytest.raises(Exception):
                lost.submit(engine_worker.crash).result(timeout=30)
            # The next op finds the pool broken and aborts it.
            with pytest.raises(ProtocolError):
                engine.run(engine_worker.peel_rows, [[b""] * 4], KEYPAIRS[0].private, 0, 5)
        assert multiprocessing.active_children() == []
        assert all(cover.lost for cover in chain.prepared())
        chain.draws.clear()
        assert chain.run(6) == fresh(6)
        assert sorted(chain.draws) == [(0, 6), (0, 7), (1, 6), (1, 7)]
        assert engine._pool is not None and engine._pool is not lost
        assert chain.run(7) == fresh(7)
    assert multiprocessing.active_children() == []


def test_closing_the_engine_with_a_wrap_in_flight_leaves_no_worker(forced_pool):
    engine = RoundEngine(workers=2)
    chain = Recorder(engine)
    chain.run(5)
    assert all(cover.wrap is not None for cover in chain.prepared())
    engine.close()
    assert multiprocessing.active_children() == []


@pytest.fixture
def curve_ops(monkeypatch):
    """Curve operations spent through the active backend's batch calls, by
    field: one unit per key pair made or exchange done."""
    backend = crypto_backend.active_backend()
    counts: Counter = Counter()

    def counting(field, batch_arg):
        fn = getattr(backend, field)

        def counted(*args):
            counts[field] += len(args[batch_arg])
            return fn(*args)

        return counted

    monkeypatch.setattr(crypto_backend, "_active", dataclasses.replace(
        backend,
        x25519_fixed_point_batch=counting("x25519_fixed_point_batch", 0),
        x25519_fixed_scalar_batch=counting("x25519_fixed_scalar_batch", 1),
    ))
    return counts


def test_a_prepared_wrap_costs_a_serial_engine_nothing_until_taken(curve_ops):
    assert default_engine().workers == 1
    chain = Recorder(None)
    # Each round: three peels (the clients' wires, plus the noise the
    # servers before added) and its own noise wraps (two layers from server
    # 0, one from server 1) — none for the round its pass prepares.
    one_round = {
        "x25519_fixed_scalar_batch": 3 * WIRES + NOISE + 2 * NOISE,
        "x25519_fixed_point_batch": 2 * NOISE + NOISE,
    }
    for round_number in (5, 6):
        wires = wires_for(round_number)
        curve_ops.clear()
        chain.chain.run_round(round_number, wires)
        assert curve_ops == one_round
        assert [cover.key for cover in chain.prepared()] == [(round_number + 1, 1)] * 2
