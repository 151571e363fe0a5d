"""The dialing poll's trial decryption as one engine scan per dead drop.

Every client of a dialing round trial-decrypts its whole invitation dead
drop.  :meth:`~repro.core.driver.RoundDriver.scan_invitations` runs those
scans for every client at once, on the driver engine's worker processes
once a dead drop's scan has
:data:`~repro.runtime.engine.SCAN_PARALLEL_TRIALS` trials.  The contract: which
engine ran changes nothing a client records, a dead worker fails one scan
and never hangs it, and no worker process outlives its driver.
"""

from __future__ import annotations

import multiprocessing
import threading
import warnings

import pytest

from repro import DeploymentLauncher, VuvuzelaConfig, VuvuzelaSystem
from repro.client import VuvuzelaClient
from repro.crypto import DeterministicRandom, KeyPair
from repro.crypto.invitation import INVITATION_SIZE, open_invitations, seal_invitation
from repro.deaddrop import InvitationDropStore
from repro.errors import ProtocolError
from repro.runtime import RoundEngine
from repro.runtime import engine as round_engine
from repro.runtime import worker as engine_worker
from repro.simulation import ClientSwarm, WorkloadSpec

ROUND = 4


def force_scan_pool(monkeypatch) -> None:
    """Every dialing scan goes to a two-worker pool, whatever the host."""
    work, _ = round_engine.POOL_OPS[engine_worker.scan_rows]
    monkeypatch.setitem(round_engine.POOL_OPS, engine_worker.scan_rows, (work, 0))
    monkeypatch.setattr(round_engine, "_usable_cores", lambda: 2)


@pytest.fixture
def parallel_scan(monkeypatch):
    force_scan_pool(monkeypatch)


def hostile_bucket(recipients: list[KeyPair], strangers: list[KeyPair]) -> list[bytes]:
    """Real, foreign, noise, short and small-order invitations, in download order."""
    rng = DeterministicRandom("hostile-bucket")
    bucket = [
        # real: every recipient is dialed by the next one, the first twice
        *(seal_invitation(recipients[(i + 1) % len(recipients)], r.public, ROUND, rng)
          for i, r in enumerate(recipients)),
        seal_invitation(strangers[0], recipients[0].public, ROUND, rng),
        # foreign: addressed to users outside the scan
        *(seal_invitation(recipients[0], s.public, ROUND, rng) for s in strangers),
        # a self-dial, which the client-side filter drops
        seal_invitation(recipients[1], recipients[1].public, ROUND, rng),
        # noise, short, and small-order ephemeral keys (u = 0 and u = 1)
        *(rng.random_bytes(INVITATION_SIZE) for _ in range(6)),
        rng.random_bytes(INVITATION_SIZE - 1),
        b"",
        bytes(32) + rng.random_bytes(INVITATION_SIZE - 32),
        (1).to_bytes(32, "little") + rng.random_bytes(INVITATION_SIZE - 32),
    ]
    return sorted(bucket)


class TestEngineScan:
    def test_process_scan_matches_open_invitations(self, parallel_scan):
        rng = DeterministicRandom("scan-keys")
        recipients = [KeyPair.generate(rng) for _ in range(5)]
        strangers = [KeyPair.generate(rng) for _ in range(2)]
        bucket = hostile_bucket(recipients, strangers)
        keys = [r.private for r in recipients]
        expected = [open_invitations(key, bucket, ROUND) for key in keys]
        assert sorted(expected[0]) == sorted([recipients[1].public, strangers[0].public])
        assert RoundEngine(workers=1).scan_invitation_chunks(keys, bucket, ROUND) == expected
        with RoundEngine(workers=2) as engine:
            assert engine.scan_invitation_chunks(keys, bucket, ROUND) == expected
            assert engine.scan_invitation_chunks(keys[:1], bucket, ROUND) == expected[:1]
            assert engine.scan_invitation_chunks([], bucket, ROUND) == []
        assert multiprocessing.active_children() == []

    def test_killed_worker_fails_the_scan_then_a_fresh_pool_scans(self, parallel_scan):
        rng = DeterministicRandom("scan-crash")
        recipients = [KeyPair.generate(rng) for _ in range(4)]
        bucket = hostile_bucket(recipients, [KeyPair.generate(rng)])
        keys = [r.private for r in recipients]
        expected = RoundEngine(workers=1).scan_invitation_chunks(keys, bucket, ROUND)
        with RoundEngine(workers=2) as engine:
            broken = engine._executor()
            with pytest.raises(Exception):
                broken.submit(engine_worker.crash).result(timeout=30)
            with pytest.raises(ProtocolError):
                engine.scan_invitation_chunks(keys, bucket, ROUND)
            assert engine.scan_invitation_chunks(keys, bucket, ROUND) == expected
            assert engine._pool is not broken
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("shape", [VuvuzelaSystem, DeploymentLauncher], ids=["in-process", "tcp"])
def test_driver_scan_records_the_same_calls_on_either_engine(shape, monkeypatch):
    """One poll step for both shapes; the launcher needs no processes for it."""
    config = VuvuzelaConfig.small(seed=21)

    def calls_after_scan(parallel: bool) -> dict:
        if parallel:
            force_scan_pool(monkeypatch)
        driver = shape(config)
        try:
            rng = DeterministicRandom("driver-scan")
            recipients = [KeyPair.generate(rng) for _ in range(6)]
            clients = [
                VuvuzelaClient(f"c{i}", keys, driver.server_public_keys)
                for i, keys in enumerate(recipients)
            ]
            store = InvitationDropStore(num_buckets=1)
            store.deposit_many(0, hostile_bucket(recipients, [KeyPair.generate(rng)]))
            store.close()
            # TCP connections each download their own copy of the snapshot.
            copies = [InvitationDropStore.restore(store.snapshot()) for _ in clients]
            driver.scan_invitations(ROUND, list(zip(clients, copies)))
            assert (driver.engine._pool is not None) == parallel
            return {c.name: [(call.dialing_round, call.caller) for call in c.incoming_calls] for c in clients}
        finally:
            if isinstance(driver, VuvuzelaSystem):
                driver.close()
            else:
                driver.stop()

    serial = calls_after_scan(parallel=False)
    assert serial == calls_after_scan(parallel=True)
    assert len(serial["c0"]) == 2  # dialed by c1 and by a stranger
    assert len(serial["c1"]) == 1  # its self-dial is not a call
    assert all(len(calls) == 1 for name, calls in serial.items() if name not in ("c0", "c1"))
    assert multiprocessing.active_children() == []


def dial_in_a_ring(driver, names: list[str]) -> None:
    handles = [driver.add_client(name) for name in names]
    clients = [getattr(handle, "client", handle) for handle in handles]
    for caller, callee in zip(clients, clients[1:] + clients[:1]):
        caller.dial(callee.public_key)


def test_parallel_session_forks_with_no_round_thread_running(parallel_scan, monkeypatch):
    """A session's first dialing round runs in the caller's thread, so the
    scan pool forks from a single-threaded process (no fork-with-threads
    ``DeprecationWarning`` on Python 3.12+), and later overlapped dialing
    rounds reuse it."""
    session_forks_once_with_one_thread(monkeypatch)


def test_pooled_session_forks_with_no_round_thread_running(forced_pool, parallel_scan, monkeypatch):
    """The same with every curve op on the pool: the pool forks in the first
    dialing round's batched client build, still in the caller's thread."""
    builds: list[int] = []
    run = round_engine.RoundEngine.run

    def spy(engine, op, *args):
        if op is engine_worker.wrap_dial_rows:
            builds.append(engine._pool is None)
        return run(engine, op, *args)

    monkeypatch.setattr(round_engine.RoundEngine, "run", spy)
    session_forks_once_with_one_thread(monkeypatch)
    assert builds[0] is True  # the first pooled op of the session is the build


def session_forks_once_with_one_thread(monkeypatch) -> None:
    """A depth-2 dialing ring session forks its driver's pool once, from a
    process running one thread, and never warns about forking."""
    started_with: list[int] = []
    executor = round_engine.RoundEngine._executor

    def spy(engine):
        if engine._pool is None:
            started_with.append(threading.active_count())
        return executor(engine)

    monkeypatch.setattr(round_engine.RoundEngine, "_executor", spy)
    config = VuvuzelaConfig.small(seed=5)
    names = [f"u{i}" for i in range(6)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with VuvuzelaSystem(config) as system:
            sessions = [system.add_session(name) for name in names]
            # A standing dial around the ring: every dialing round re-dials.
            for caller, callee in zip(sessions, sessions[1:] + sessions[:1]):
                caller.flood_target = callee.client.public_key
            report = system.run_continuous(4, dialing_interval=2, pipeline_depth=2)
            assert len(report.dialing) == 2
            for caller, callee in zip(names, names[1:] + names[:1]):
                callers = [call.caller for call in system.client(callee).incoming_calls]
                assert callers == [system.client(caller).public_key] * 2
    assert started_with == [1]
    assert not [w for w in caught if "fork" in str(w.message)]
    assert multiprocessing.active_children() == []


def test_tcp_dialing_round_scans_in_parallel_like_in_process(parallel_scan, monkeypatch):
    config = VuvuzelaConfig.small(seed=9)
    names = ["ann", "ben", "cal", "dee"]
    # The reference scans serially: the fixture sends every scan to the
    # pool, so build this driver as if on a one-core host.
    monkeypatch.setattr(round_engine, "_usable_cores", lambda: 1)
    with VuvuzelaSystem(VuvuzelaConfig.small(seed=9)) as system:
        assert system.engine.workers == 1
        dial_in_a_ring(system, names)
        system.run_dialing_round()
        expected = {n: [c.caller for c in system.client(n).incoming_calls] for n in names}
    monkeypatch.setattr(round_engine, "_usable_cores", lambda: 2)
    with DeploymentLauncher(config) as deployment:
        dial_in_a_ring(deployment, names)
        deployment.run_dialing_round()
        assert deployment.engine._pool is not None
        got = {n: [c.caller for c in deployment.client(n).incoming_calls] for n in names}
    assert got == expected
    assert all(len(callers) == 1 for callers in got.values())
    assert multiprocessing.active_children() == []


def test_a_swarm_round_starts_no_child_process():
    config = VuvuzelaConfig.small(seed=3)
    swarm = ClientSwarm.from_spec(config, WorkloadSpec(num_users=40, conversing_fraction=0.5, dialing_fraction=0.0))
    with VuvuzelaSystem(config) as system:
        system.run_swarm_round(swarm)
        assert multiprocessing.active_children() == []
        assert system.engine._pool is None
