"""The swarm's client build on the driver engine's worker pool.

A driver builds a swarm round's wires on its :class:`RoundEngine`: every rng
draw stays in the calling thread, and the pure part — the idle clients' fake
exchange, the message boxes and the onion layers — runs in chunks, on the
pool once a chunk's curve work crosses its threshold.  The contract pinned
here: pooled wires are byte-identical to inline ones and to per-client
reference wires, a pooled round decodes every plaintext, a worker that dies
mid-build fails that round without wedging the next one, and no worker
outlives its engine.  The tests lower the engine's thresholds (the
``forced_pool`` fixture) so small swarms reach the pool on any host.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import warnings

import pytest

from repro import DeploymentLauncher, VuvuzelaConfig, VuvuzelaSystem
from repro.crypto.backend import available_backends, set_backend
from repro.errors import ProtocolError
from repro.runtime import RoundEngine
from repro.runtime import engine as round_engine
from repro.runtime import worker as engine_worker
from repro.simulation import ClientSwarm, WorkloadSpec
from swarm_oracle import reference_wires

SEED = 424


def scenario(num_users: int):
    config = VuvuzelaConfig.small(seed=SEED)
    spec = WorkloadSpec(num_users=num_users, conversing_fraction=0.5, dialing_fraction=0.0)
    return config, ClientSwarm.from_spec(config, spec)


def queue_messages(swarm: ClientSwarm, round_number: int) -> dict[str, bytes]:
    """A distinct plaintext from every paired client; ``{receiver: text}``."""
    expected = {}
    for a, b in swarm.population.pairs:
        for sender, receiver in ((a, b), (b, a)):
            text = f"round {round_number} from {sender}".encode()
            swarm.set_message(sender, text)
            expected[receiver] = text
    return expected


@pytest.fixture(params=available_backends())
def backend_name(request):
    set_backend(request.param)
    yield request.param
    set_backend(available_backends()[-1])


class TestPooledBuild:
    @pytest.mark.parametrize("chunk_size", [1, 7, 0])
    def test_pooled_wires_match_inline_and_reference_wires(
        self, backend_name, forced_pool, monkeypatch, chunk_size
    ):
        """Three rounds with queued messages: pooled == inline == the
        straight-line per-client reference, every wire.  Chunks of one
        client are ops of one row, which never pool."""
        monkeypatch.setattr(round_engine, "PREFERRED_CHUNK", 3)
        _, pooled = scenario(12)
        _, inline = scenario(12)
        messages, built = {}, {}
        with RoundEngine(workers=2) as engine:
            for round_number in range(3):
                for swarm in (pooled, inline):
                    queue_messages(swarm, round_number)
                messages[round_number] = dict(pooled._messages)
                wires = pooled.build_round(round_number, chunk_size=chunk_size, engine=engine)
                assert (engine._pool is not None) == (chunk_size != 1)
                assert wires == inline.build_round(round_number, chunk_size=chunk_size)
                built[round_number] = wires
        assert multiprocessing.active_children() == []
        assert built == reference_wires(pooled, range(3), messages)

    def test_pooled_in_process_round_decodes_every_plaintext(self, forced_pool, two_cores):
        _, swarm = scenario(16)
        with VuvuzelaSystem(VuvuzelaConfig.small(seed=SEED)) as system:
            for round_number in range(2):
                expected = queue_messages(swarm, round_number)
                report = system.run_swarm_round(swarm, chunk_size=5)
                assert system.engine._pool is not None
                assert report.ingest.accepted == len(swarm)
                assert report.outcome.delivered == len(swarm)
                assert report.outcome.messages == expected
        assert multiprocessing.active_children() == []

    def test_multi_chunk_round_forks_with_no_other_thread(self, forced_pool, two_cores, monkeypatch):
        """The pool forks inside the first chunk's build, before the ingest
        pipeline starts its submit thread: no fork-with-threads
        ``DeprecationWarning`` on Python 3.12+."""
        started_with: list[int] = []
        executor = round_engine.RoundEngine._executor

        def spy(engine):
            if engine._pool is None:
                started_with.append(threading.active_count())
            return executor(engine)

        monkeypatch.setattr(round_engine.RoundEngine, "_executor", spy)
        _, swarm = scenario(16)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with VuvuzelaSystem(VuvuzelaConfig.small(seed=SEED)) as system:
                report = system.run_swarm_round(swarm, chunk_size=4)
                assert report.ingest.chunks == 4
        assert started_with == [1]
        assert not [w for w in caught if "fork" in str(w.message)]
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("shape", ["in-process", "tcp"])
def test_worker_crash_mid_build_fails_the_round_and_not_the_next(
    shape, forced_pool, two_cores, in_time, monkeypatch, tmp_path
):
    """A worker dies building the round's second chunk, after the first was
    admitted: the round fails with ``ProtocolError``, its window is
    discarded, and the next round completes and delivers every message —
    the one queued for the failed round included."""
    parent = os.getpid()
    crashed = tmp_path / "crashed"
    build = engine_worker.build_exchange_batch
    marker = b"queued before the crash"

    def crash_once(round_number, public_keys, fakes, send_keys, dead_drops, plaintexts, scalars):
        if os.getpid() != parent and marker in plaintexts:
            try:
                os.close(os.open(crashed, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                os._exit(1)
        return build(round_number, public_keys, fakes, send_keys, dead_drops, plaintexts, scalars)

    monkeypatch.setattr(engine_worker, "build_exchange_batch", crash_once)
    config, swarm = scenario(16)
    partners = {a: b for a, b in swarm.population.pairs} | {b: a for a, b in swarm.population.pairs}
    # The marker rides the second chunk of eight.
    sender = next(name for name in swarm.names[8:] if name in partners)
    swarm.set_message(sender, marker)
    driver = VuvuzelaSystem(config) if shape == "in-process" else DeploymentLauncher(config)
    with driver:
        with pytest.raises(ProtocolError):
            in_time(lambda: driver.run_swarm_round(swarm, chunk_size=8))
        assert crashed.exists()
        report = in_time(lambda: driver.run_swarm_round(swarm, chunk_size=8))
        metrics, ingest, outcome = report
        assert ingest.accepted == len(swarm) and ingest.refused == 0 and ingest.late == 0
        assert outcome.delivered == len(swarm) and outcome.lost == 0
        assert outcome.messages[partners[sender]] == marker
        assert outcome.undelivered == []
    assert multiprocessing.active_children() == []
