"""Determinism and failure-mode coverage of the round engine.

The hard contract: inline and pooled execution of a round are byte-identical
on every backend — malformed wires, cover traffic and multi-chunk batches
included — a dead worker surfaces as :class:`ProtocolError`, never as a
hang, and leaves no live worker behind.  Tests send small batches to the
pool by lowering the engine's thresholds.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
from multiprocessing import resource_tracker

import pytest

from repro.crypto import (
    DeterministicRandom,
    KeyPair,
    unwrap_response,
    wrap_request,
    wrap_request_batch,
)
from repro.crypto.backend import available_backends, set_backend
from repro.crypto.invitation import seal_invitation
from repro.crypto.onion import draw_request_scalars
from repro.errors import ProtocolError
from repro.mixnet.chain import build_chain
from repro.runtime import RoundEngine, default_engine
from repro.runtime import engine as round_engine
from repro.runtime import worker as engine_worker
from repro.net.packed import pack, unpack_owned


def _echo_rows(columns: list) -> list:
    """A row op that hands its columns straight back."""
    return columns


@pytest.fixture(params=available_backends())
def backend_name(request):
    set_backend(request.param)
    yield request.param
    set_backend(available_backends()[-1])


def build_test_chain(engine, keypairs, noise_per_server=4):
    """A 3-server chain with noise on the mixing servers and an echo processor."""

    def noise_factory(index):
        if index == len(keypairs) - 1:
            return None

        def build(round_number, rng):
            return [rng.random_bytes(48) for _ in range(noise_per_server)]

        return build

    def echo(round_number, payloads):
        return [bytes(p)[:24].ljust(24, b"#") for p in payloads]

    return build_chain(
        keypairs,
        echo,
        rng=DeterministicRandom("engine-chain"),
        noise_builder_factory=noise_factory,
        engine=engine,
    )


def make_round(publics, round_number=5, count=45):
    rng = DeterministicRandom("engine-wires")
    wires, contexts = [], []
    for i in range(count):
        wire, ctx = wrap_request(f"req-{i}".encode().ljust(40, b"."), publics, round_number, rng)
        wires.append(wire)
        contexts.append(ctx)
    # Malformed wires scattered through the batch: empty, too short to hold a
    # layer, right-length garbage, truncated tail.
    wires[0] = b""
    wires[7] = b"tiny"
    wires[13] = bytes(len(wires[1]))
    wires[29] = wires[29][:-2]
    return wires, contexts


class Decided(Exception):
    """Raised by the ``decisions`` spy once an op has decided where to run."""


@pytest.fixture
def decisions(monkeypatch):
    """``[(op, pooled)]`` for every op started in the test, each stopped
    with :class:`Decided` before it runs."""
    seen: list[tuple] = []
    pooled = RoundEngine._pooled

    def spy(engine, op, columns, static):
        seen.append((op, pooled(engine, op, columns, static)))
        raise Decided

    monkeypatch.setattr(RoundEngine, "_pooled", spy)
    return seen


@pytest.fixture
def submissions(monkeypatch):
    """``[(function, op)]`` for every task the engines built in the test
    submit to their pools."""
    seen: list[tuple] = []

    class Recording(round_engine.ProcessPoolExecutor):
        def submit(self, fn, task):
            seen.append((fn, task[0]))
            return super().submit(fn, task)

    monkeypatch.setattr(round_engine, "ProcessPoolExecutor", Recording)
    return seen


CHAIN = [KeyPair.generate(DeterministicRandom(f"threshold-{i}")) for i in range(3)]
PUBLICS = [kp.public for kp in CHAIN]
ANY = b"\x01" * 32


def peel(wires):
    return lambda engine: engine.run(
        engine_worker.peel_rows, [[b""] * wires], CHAIN[0].private, 0, 5
    )


def noise(wires, depth):
    return lambda engine: engine.wrap_noise_chunks(
        [b"noise"] * wires, PUBLICS[:depth], 5, DeterministicRandom("noise")
    )


def client_build(wires, idle):
    """``wires`` rows over the three-server chain, the first ``idle`` of them
    idle (a fake exchange to compute)."""
    fakes = [ANY + ANY] * idle + [None] * (wires - idle)
    scalars = [[ANY] * wires for _ in PUBLICS]
    columns = [fakes, [ANY] * wires, [ANY] * wires, [b""] * wires, *scalars]
    return lambda engine: engine.wrap_client_chunks(columns, PUBLICS, 5)


def dial_build(wires, dialers):
    """``wires`` rows over the three-server chain, the first ``dialers`` of
    them dialing (an invitation to seal)."""
    from repro.dialing.client import wrap_dial_requests

    rows = [
        [ANY, ANY if i < dialers else None, ANY, ANY, *[ANY] * len(PUBLICS)] for i in range(wires)
    ]
    return lambda engine: wrap_dial_requests(5, PUBLICS, rows, engine)


def scan(recipients, invitations):
    keys = [CHAIN[0].private] * recipients
    return lambda engine: engine.scan_invitation_chunks(keys, [ANY] * invitations, 5)


#: ``(op, threshold, one unit below it, at it)``.
THRESHOLD_CASES = [
    (engine_worker.peel_rows, 256, peel(255), peel(256)),
    (engine_worker.wrap_noise_rows, 256, noise(85, 3), noise(128, 2)),
    (engine_worker.wrap_client_rows, 256, client_build(85, 0), client_build(85, 1)),
    (engine_worker.wrap_dial_rows, 256, dial_build(85, 0), dial_build(85, 1)),
    (engine_worker.scan_rows, 1024, scan(3, 341), scan(2, 512)),
]


class TestEntryBlocks:
    def test_pack_unpack_roundtrip(self):
        entries = [b"alpha", None, b"", b"x" * 300, None, b"tail"]
        assert unpack_owned(pack(b"", entries)) == entries
        assert unpack_owned(pack(b"", [])) == []
        # Malformed blocks are refused, never decoded short: a cut tail, an
        # offset past the end, a buffer too short for its count.
        block = pack(b"", [b"abc", None])
        past_end = block[:4] + (5).to_bytes(4, "big") * 2 + block[12:]
        for malformed in (block[:-2], past_end, b"\x00"):
            with pytest.raises(ProtocolError):
                unpack_owned(malformed)

    def test_pipe_roundtrip(self, monkeypatch, submissions):
        """Packed blocks cross the task pipe to the workers and back intact."""
        monkeypatch.setitem(round_engine.POOL_OPS, _echo_rows, (lambda columns: len(columns[0]), 0))
        entries = [b"wire-one", None, b"", b"wire-three" * 50]
        with RoundEngine(workers=2) as engine:
            assert engine.run(_echo_rows, [entries]) == [entries]
        assert submissions == [(engine_worker.run, _echo_rows)] * 2
        assert multiprocessing.active_children() == []


class TestEngineDeterminism:
    @pytest.mark.parametrize("workers", [1, 2], ids=["inline", "pool"])
    def test_mode_byte_identical_to_default_path(self, backend_name, workers, forced_pool, monkeypatch):
        """Inline and pooled engines reproduce the default round byte for byte.

        A chunk cap of 7 forces a 45-wire round through 7 chunks, so the test
        exercises chunk reassembly, cross-chunk noise scalars and the
        malformed-wire masks, not just the trivial single-chunk case.
        """
        monkeypatch.setattr(round_engine, "PREFERRED_CHUNK", 7)
        keypairs = [KeyPair.generate(DeterministicRandom(f"srv-{i}")) for i in range(3)]
        publics = [kp.public for kp in keypairs]
        wires, contexts = make_round(publics)

        reference = build_test_chain(None, keypairs).run_round(5, wires)
        with RoundEngine(workers=workers) as engine:
            responses = build_test_chain(engine, keypairs).run_round(5, wires)
            assert (engine._pool is not None) == (workers > 1)

        assert responses == reference
        for position in (0, 7, 13, 29):
            assert responses[position] == b""
        # And the rounds are not just equal garbage: clients can unwrap them.
        for position in (1, 20, 44):
            assert unwrap_response(responses[position], contexts[position]) == (
                f"req-{position}".encode().ljust(40, b".")[:24].ljust(24, b"#")
            )

    def test_serial_chunking_invariant_under_chunk_size(self, backend_name, monkeypatch):
        keypairs = [KeyPair.generate(DeterministicRandom("solo"))]
        publics = [kp.public for kp in keypairs]
        wires, _ = make_round(publics, count=33)
        results = []
        for chunk_size in (1, 5, 64, 10_000):
            monkeypatch.setattr(round_engine, "PREFERRED_CHUNK", chunk_size)
            engine = RoundEngine(workers=1)
            results.append(build_test_chain(engine, keypairs).run_round(5, wires))
        assert all(result == results[0] for result in results)

    @pytest.mark.parametrize("workers", [1, 2], ids=["inline", "pool"])
    def test_noise_wrap_chunks_match_unchunked_wrap(self, backend_name, workers, forced_pool, monkeypatch):
        monkeypatch.setattr(round_engine, "PREFERRED_CHUNK", 6)
        keypairs = [KeyPair.generate(DeterministicRandom(f"n-{i}")) for i in range(2)]
        publics = [kp.public for kp in keypairs]
        payloads = [bytes([i]) * 32 for i in range(20)]
        unchunked, _ = wrap_request_batch(payloads, publics, 9, DeterministicRandom(3))
        with RoundEngine(workers=workers) as engine:
            (chunked,) = engine.wrap_noise_chunks(payloads, publics, 9, DeterministicRandom(3)).result()
        assert chunked == unchunked

    def test_draw_request_scalars_matches_internal_draws(self):
        payloads = [b"p" * 16] * 5
        keypairs = [KeyPair.generate(DeterministicRandom(i)) for i in range(3)]
        publics = [kp.public for kp in keypairs]
        scalars = draw_request_scalars(5, 3, DeterministicRandom(77))
        pre_drawn, _ = wrap_request_batch(payloads, publics, 2, scalars=scalars)
        internal, _ = wrap_request_batch(payloads, publics, 2, DeterministicRandom(77))
        assert pre_drawn == internal

    @pytest.mark.parametrize("count, depth", [(0, 3), (1, 1), (7, 3)])
    def test_draw_request_scalars_is_the_per_scalar_loop(self, count, depth):
        """One ``random_bytes`` call per layer, sliced, draws the bytes one
        call per scalar drew, and leaves the rng where that loop left it."""
        bulk_rng, loop_rng = DeterministicRandom(78), DeterministicRandom(78)
        loop = [[] for _ in range(depth)]
        for index in range(depth - 1, -1, -1):
            loop[index] = [loop_rng.random_bytes(32) for _ in range(count)]
        assert draw_request_scalars(count, depth, bulk_rng) == loop
        assert bulk_rng.random_bytes(40) == loop_rng.random_bytes(40)


class TestEnginePolicy:
    def test_pool_split_is_one_chunk_per_worker_capped(self):
        engine = RoundEngine(workers=2)
        assert engine._bounds(1_100, True) == [(0, 550), (550, 1_100)]
        assert engine._bounds(1_100, False) == [(0, 1_100)]
        chunk = round_engine.PREFERRED_CHUNK
        assert engine._bounds(4 * chunk, True) == [(i * chunk, (i + 1) * chunk) for i in range(4)]

    @pytest.mark.parametrize(
        "op, threshold, below, at", THRESHOLD_CASES, ids=[case[0].__name__ for case in THRESHOLD_CASES],
    )
    def test_each_op_pools_from_its_threshold(self, decisions, op, threshold, below, at):
        """Each op, through the call its callers make, counts its work the
        way the module docstring's table says: one unit below its threshold
        it runs inline, at the threshold it pools."""
        assert round_engine.POOL_OPS[op][1] == threshold
        engine = RoundEngine(workers=2)
        for call in (below, at):
            with pytest.raises(Decided):
                call(engine)
        assert decisions == [(op, False), (op, True)]

    def test_no_pool_for_one_worker_one_row_no_work_or_the_response_wrap(self, forced_pool, decisions):
        """With every threshold at zero: a one-worker engine, an op of one
        row, an op of no work (two recipients against an empty dead drop)
        and the AEAD-only response wrap still run inline."""
        for workers, call in (
            (1, peel(2)),
            (2, peel(1)),
            (2, scan(2, 0)),
            (2, lambda engine: engine.run(engine_worker.wrap_response_rows, [[b""] * 9_999] * 2, 5)),
        ):
            with pytest.raises(Decided):
                call(RoundEngine(workers=workers))
        assert [pooled for _, pooled in decisions] == [False, False, False, False]

    def test_response_wrap_never_reaches_the_pool(self, forced_pool, submissions):
        """With every threshold at zero, the pool sees peels and noise wraps
        only: the AEAD-only response wrap stays inline."""
        keypairs = [KeyPair.generate(DeterministicRandom(f"resp-{i}")) for i in range(3)]
        wires, _ = make_round([kp.public for kp in keypairs])
        reference = build_test_chain(None, keypairs).run_round(5, wires)
        with RoundEngine(workers=2) as engine:
            assert build_test_chain(engine, keypairs).run_round(5, wires) == reference
        ops = {op for _, op in submissions}
        assert ops == {engine_worker.peel_rows, engine_worker.wrap_noise_rows}

    def test_one_trampoline_runs_every_pooled_op(self, forced_pool, two_cores, submissions):
        """A pool-forced depth-2 continuous session, conversation and dialing
        rounds: every task submitted is :func:`worker.run`, and every op the
        table may pool is among them."""
        from repro import VuvuzelaConfig, VuvuzelaSystem

        with VuvuzelaSystem(VuvuzelaConfig.small(seed=41)) as system:
            sessions = {name: system.add_session(name) for name in ("alice", "bob", "carol", "dave")}
            sessions["carol"].dial(system.client("dave").public_key)
            report = system.run_continuous(2, dialing_interval=2, pipeline_depth=2)
            assert len(report.conversation) == 2 and len(report.dialing) == 1
        assert [call.caller for call in system.client("dave").incoming_calls] == [
            system.client("carol").public_key
        ]
        assert {fn for fn, _ in submissions} == {engine_worker.run}
        poolable = {op for op, (_, threshold) in round_engine.POOL_OPS.items() if threshold is not None}
        assert {op for _, op in submissions} == poolable
        assert multiprocessing.active_children() == []

    def test_engine_is_sized_by_the_host(self):
        assert RoundEngine().workers == len(os.sched_getaffinity(0))


class TestSharedEngine:
    def test_two_threads_share_one_pool(self, forced_pool, monkeypatch):
        """The conversation and dialing threads of a depth-2 session share
        the driver's engine: one pool, results byte-identical to inline.
        Two threads of each kind and a short switch interval make the lazy
        pool creation race."""
        created: list[object] = []
        executor_class = round_engine.ProcessPoolExecutor

        def counting(*args, **kwargs):
            created.append(None)
            return executor_class(*args, **kwargs)

        monkeypatch.setattr(round_engine, "ProcessPoolExecutor", counting)
        keypairs = [KeyPair.generate(DeterministicRandom(f"two-{i}")) for i in range(3)]
        wires, _ = make_round([kp.public for kp in keypairs])
        rng = DeterministicRandom("two-scan")
        recipients = [KeyPair.generate(rng) for _ in range(4)]
        bucket = sorted(
            seal_invitation(recipients[(i + 1) % 4], r.public, 3, rng) for i, r in enumerate(recipients)
        )
        keys = [r.private for r in recipients]
        serial = default_engine()
        expected = {
            "mix": build_test_chain(serial, keypairs).run_round(5, wires),
            "scan": serial.scan_invitation_chunks(keys, bucket, 3),
        }

        engine = RoundEngine(workers=2)
        start = threading.Barrier(4)
        results: dict[str, list] = {"mix": [], "scan": []}

        def mix() -> None:
            start.wait()
            for _ in range(3):
                results["mix"].append(build_test_chain(engine, keypairs).run_round(5, wires))

        def scan() -> None:
            start.wait()
            for _ in range(3):
                results["scan"].append(engine.scan_invitation_chunks(keys, bucket, 3))

        threads = [threading.Thread(target=target) for target in (mix, scan, mix, scan)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            engine.close()
        assert not any(thread.is_alive() for thread in threads)
        assert len(created) == 1
        assert results["mix"] == [expected["mix"]] * 6
        assert results["scan"] == [expected["scan"]] * 6
        assert multiprocessing.active_children() == []

    def test_pool_forked_before_any_block_starts_no_resource_tracker(self, forced_pool):
        """Scan first (a task with no block), then peel and noise wrap: the
        packed blocks ride the task pipe, so no ``resource_tracker`` starts
        in this process or in a worker."""
        keypairs = [KeyPair.generate(DeterministicRandom(f"rt-{i}")) for i in range(3)]
        wires, _ = make_round([kp.public for kp in keypairs])
        rng = DeterministicRandom("rt-scan")
        recipients = [KeyPair.generate(rng) for _ in range(2)]
        bucket = [seal_invitation(recipients[0], recipients[1].public, 3, rng)]
        with RoundEngine(workers=2) as engine:
            engine.scan_invitation_chunks([r.private for r in recipients], bucket, 3)
            assert engine._pool is not None
            build_test_chain(engine, keypairs).run_round(5, wires)
        assert resource_tracker._resource_tracker._pid is None
        assert multiprocessing.active_children() == []


class TestEngineFailureModes:
    def test_worker_crash_surfaces_as_protocol_error(self, forced_pool, monkeypatch):
        """A worker killed mid-pool must fail the round, not hang it, and the
        failed pool's workers are joined before the error propagates."""
        monkeypatch.setattr(round_engine, "PREFERRED_CHUNK", 2)
        keypairs = [KeyPair.generate(DeterministicRandom("crash"))]
        publics = [kp.public for kp in keypairs]
        wires = [wrap_request(b"x" * 32, publics, 1, DeterministicRandom(1))[0] for _ in range(6)]
        with RoundEngine(workers=2) as engine:
            # Break the pool: the task kills its worker process outright.
            pool = engine._executor()
            future = pool.submit(engine_worker.crash)
            with pytest.raises(Exception):
                future.result(timeout=30)
            chain = build_test_chain(engine, keypairs, noise_per_server=0)
            with pytest.raises(ProtocolError):
                chain.run_round(1, wires)
            assert multiprocessing.active_children() == []
            # The broken pool was discarded: a fresh round succeeds.
            responses = chain.run_round(1, wires)
            assert all(response != b"" for response in responses)
            assert engine._pool is not pool
        assert multiprocessing.active_children() == []

    def test_invalid_engine_config_rejected(self):
        with pytest.raises(ProtocolError):
            RoundEngine(workers=0)
        # The knobs of the old per-deployment engine are gone.
        for knob in ("mode", "chunk_size", "max_inflight", "mp_start_method"):
            with pytest.raises(TypeError):
                RoundEngine(**{knob: 1})

    def test_default_engine_is_serial_and_shared(self):
        assert default_engine() is default_engine()
        assert default_engine().workers == 1


class TestSystemEngineConfig:
    def test_pooled_system_matches_inline_system(self, forced_pool, monkeypatch):
        """A host-sized engine with every op on its pool runs the same
        dialing and conversation rounds as a one-core host."""
        from repro import VuvuzelaConfig, VuvuzelaSystem

        monkeypatch.setattr(round_engine, "PREFERRED_CHUNK", 3)

        def run(cores: int):
            monkeypatch.setattr(round_engine, "_usable_cores", lambda: cores)
            with VuvuzelaSystem(VuvuzelaConfig.small(seed=7)) as system:
                alice = system.add_client("alice")
                bob = system.add_client("bob")
                alice.dial(bob.public_key)
                system.run_dialing_round()
                bob.accept_call(bob.incoming_calls[0])
                alice.start_conversation(bob.public_key)
                alice.send_message("hello across engines")
                metrics = system.run_conversation_round()
                assert system.engine.workers == cores
                assert (system.engine._pool is not None) == (cores > 1)
                received = bob.messages_from(alice.public_key)
                return metrics.histogram, received

        inline_histogram, inline_received = run(1)
        pooled_histogram, pooled_received = run(2)
        assert inline_received == pooled_received == [b"hello across engines"]
        assert pooled_histogram == inline_histogram
        assert multiprocessing.active_children() == []

    def test_config_with_a_deleted_engine_field_is_refused(self):
        from repro import VuvuzelaConfig
        from repro.errors import ConfigurationError

        data = VuvuzelaConfig.small().to_dict()
        for knob, value in (("engine_mode", "process"), ("engine_workers", 2), ("engine_chunk_size", 64)):
            assert knob not in data
            with pytest.raises(ConfigurationError, match=knob):
                VuvuzelaConfig.from_dict({**data, knob: value})
