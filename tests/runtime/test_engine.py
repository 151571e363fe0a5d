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
from repro.runtime.shm import pack_entries, unpack_entries


def _echo_block(block: bytes) -> bytes:
    """A worker task that unpacks its block and packs it straight back."""
    return pack_entries(unpack_entries(block))


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


class TestEntryBlocks:
    def test_pack_unpack_roundtrip(self):
        entries = [b"alpha", None, b"", b"x" * 300, None, b"tail"]
        assert unpack_entries(pack_entries(entries)) == entries
        assert unpack_entries(pack_entries([])) == []

    def test_pipe_roundtrip(self):
        """A packed block crosses the task pipe to a worker and back intact."""
        entries = [b"wire-one", None, b"", b"wire-three" * 50]
        with RoundEngine(workers=2) as engine:
            (packed,) = engine._pipelined(_echo_block, [pack_entries(entries)])
        assert unpack_entries(packed) == entries
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
            chunked = engine.wrap_noise_chunks(payloads, publics, 9, DeterministicRandom(3))
        assert chunked == unchunked

    def test_draw_request_scalars_matches_internal_draws(self):
        payloads = [b"p" * 16] * 5
        keypairs = [KeyPair.generate(DeterministicRandom(i)) for i in range(3)]
        publics = [kp.public for kp in keypairs]
        scalars = draw_request_scalars(5, 3, DeterministicRandom(77))
        pre_drawn, _ = wrap_request_batch(payloads, publics, 2, scalars=scalars)
        internal, _ = wrap_request_batch(payloads, publics, 2, DeterministicRandom(77))
        assert pre_drawn == internal


class TestEnginePolicy:
    def test_pool_split_is_one_chunk_per_worker_capped(self):
        engine = RoundEngine(workers=2)
        assert engine._bounds(1_100, True) == [(0, 550), (550, 1_100)]
        assert engine._bounds(1_100, False) == [(0, 1_100)]
        chunk = round_engine.PREFERRED_CHUNK
        assert engine._bounds(4 * chunk, True) == [(i * chunk, (i + 1) * chunk) for i in range(4)]

    def test_ops_below_their_threshold_run_inline(self):
        engine = RoundEngine(workers=2)
        threshold = round_engine.POOL_CURVE_OPS
        assert not engine._pooled(threshold - 1, threshold)
        assert engine._pooled(threshold, threshold)
        assert not RoundEngine(workers=1)._pooled(10**6, threshold)
        assert not engine._pooled(0, 0)

    def test_response_wrap_never_reaches_the_pool(self, forced_pool, monkeypatch):
        """With every threshold at zero, the pool sees peels and noise wraps
        only: the AEAD-only response wrap stays inline."""
        submitted: list[str] = []
        pipelined = RoundEngine._pipelined

        def spy(engine, fn, tasks):
            submitted.append(fn.__name__)
            return pipelined(engine, fn, tasks)

        monkeypatch.setattr(RoundEngine, "_pipelined", spy)
        keypairs = [KeyPair.generate(DeterministicRandom(f"resp-{i}")) for i in range(3)]
        wires, _ = make_round([kp.public for kp in keypairs])
        reference = build_test_chain(None, keypairs).run_round(5, wires)
        with RoundEngine(workers=2) as engine:
            assert build_test_chain(engine, keypairs).run_round(5, wires) == reference
        assert set(submitted) == {"peel_chunk", "wrap_noise_chunk"}

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
