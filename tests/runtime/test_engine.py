"""Determinism and failure-mode coverage of the parallel round engine.

The hard contract: serial and process-sharded execution of a round are
byte-identical on every backend — malformed wires, cover traffic and
multi-chunk batches included — and a dead worker surfaces as
:class:`ProtocolError`, never as a hang.
"""

from __future__ import annotations

import pytest

from repro.crypto import (
    DeterministicRandom,
    KeyPair,
    unwrap_response,
    wrap_request,
    wrap_request_batch,
)
from repro.crypto.backend import available_backends, set_backend
from repro.crypto.onion import draw_request_scalars
from repro.errors import ProtocolError
from repro.mixnet.chain import build_chain
from repro.runtime import PROCESS, SERIAL, RoundEngine, default_engine
from repro.runtime import worker as engine_worker
from repro.runtime.shm import pack_entries, read_shared_entries, release_shared, share_entries, unpack_entries


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

    def test_shared_memory_roundtrip(self):
        entries = [b"wire-one", None, b"wire-three" * 50]
        block = share_entries(entries)
        try:
            assert read_shared_entries(block.name, unlink=False) == entries
        finally:
            release_shared(block)


class TestEngineDeterminism:
    @pytest.mark.parametrize(
        "engine_factory",
        [
            lambda: RoundEngine(mode=SERIAL, chunk_size=7),
            lambda: RoundEngine(mode=PROCESS, workers=2, chunk_size=7),
        ],
        ids=["serial", "process"],
    )
    def test_mode_byte_identical_to_default_path(self, backend_name, engine_factory):
        """Each mode reproduces the default serial round byte for byte.

        chunk_size=7 forces a 45-wire round through 7 chunks, so the test
        exercises chunk reassembly, cross-chunk noise scalars and the
        malformed-wire masks, not just the trivial single-chunk case.
        """
        keypairs = [KeyPair.generate(DeterministicRandom(f"srv-{i}")) for i in range(3)]
        publics = [kp.public for kp in keypairs]
        wires, contexts = make_round(publics)

        reference = build_test_chain(None, keypairs).run_round(5, wires)
        with engine_factory() as engine:
            responses = build_test_chain(engine, keypairs).run_round(5, wires)

        assert responses == reference
        for position in (0, 7, 13, 29):
            assert responses[position] == b""
        # And the rounds are not just equal garbage: clients can unwrap them.
        for position in (1, 20, 44):
            assert unwrap_response(responses[position], contexts[position]) == (
                f"req-{position}".encode().ljust(40, b".")[:24].ljust(24, b"#")
            )

    def test_serial_chunking_invariant_under_chunk_size(self, backend_name):
        keypairs = [KeyPair.generate(DeterministicRandom("solo"))]
        publics = [kp.public for kp in keypairs]
        wires, _ = make_round(publics, count=33)
        results = []
        for chunk_size in (1, 5, 64, 10_000):
            engine = RoundEngine(mode=SERIAL, chunk_size=chunk_size)
            results.append(build_test_chain(engine, keypairs).run_round(5, wires))
        assert all(result == results[0] for result in results)

    def test_noise_wrap_chunks_match_unchunked_wrap(self, backend_name):
        keypairs = [KeyPair.generate(DeterministicRandom(f"n-{i}")) for i in range(2)]
        publics = [kp.public for kp in keypairs]
        payloads = [bytes([i]) * 32 for i in range(20)]
        unchunked, _ = wrap_request_batch(payloads, publics, 9, DeterministicRandom(3))
        engine = RoundEngine(mode=SERIAL, chunk_size=6)
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


class TestEngineFailureModes:
    def test_worker_crash_surfaces_as_protocol_error(self):
        """A worker killed mid-pool must fail the round, not hang it."""
        keypairs = [KeyPair.generate(DeterministicRandom("crash"))]
        publics = [kp.public for kp in keypairs]
        wires = [wrap_request(b"x" * 32, publics, 1, DeterministicRandom(1))[0] for _ in range(6)]
        with RoundEngine(mode=PROCESS, workers=1, chunk_size=2) as engine:
            # Break the pool: the task kills its worker process outright.
            pool = engine._executor()
            future = pool.submit(engine_worker.crash)
            with pytest.raises(Exception):
                future.result(timeout=30)
            chain = build_test_chain(engine, keypairs, noise_per_server=0)
            with pytest.raises(ProtocolError):
                chain.run_round(1, wires)
            # The broken pool was discarded: a fresh round succeeds.
            responses = chain.run_round(1, wires)
            assert all(response != b"" for response in responses)

    def test_invalid_engine_config_rejected(self):
        with pytest.raises(ProtocolError):
            RoundEngine(mode="gpu")
        with pytest.raises(ProtocolError):
            RoundEngine(workers=0)
        with pytest.raises(ProtocolError):
            RoundEngine(chunk_size=-1)

    def test_default_engine_is_serial_and_shared(self):
        assert default_engine() is default_engine()
        assert default_engine().mode == SERIAL


class TestSystemEngineConfig:
    def test_process_system_matches_serial_system(self):
        from repro import VuvuzelaConfig, VuvuzelaSystem
        from dataclasses import replace

        def run(config):
            with VuvuzelaSystem(config) as system:
                alice = system.add_client("alice")
                bob = system.add_client("bob")
                alice.dial(bob.public_key)
                system.run_dialing_round()
                bob.accept_call(bob.incoming_calls[0])
                alice.start_conversation(bob.public_key)
                alice.send_message("hello across engines")
                metrics = system.run_conversation_round()
                received = bob.messages_from(alice.public_key)
                return metrics.histogram, received

        base = VuvuzelaConfig.small(seed=7)
        serial_histogram, serial_received = run(base)
        process_histogram, process_received = run(
            replace(base, engine_mode="process", engine_workers=2, engine_chunk_size=3)
        )
        assert serial_received == process_received == [b"hello across engines"]
        assert process_histogram == serial_histogram

    def test_engine_config_validation(self):
        from repro import VuvuzelaConfig
        from repro.errors import ConfigurationError
        from dataclasses import replace

        base = VuvuzelaConfig.small()
        with pytest.raises(ConfigurationError):
            replace(base, engine_mode="quantum")
        with pytest.raises(ConfigurationError):
            replace(base, engine_mode="threaded")  # threads never beat the GIL here
        with pytest.raises(ConfigurationError):
            replace(base, engine_workers=0)
