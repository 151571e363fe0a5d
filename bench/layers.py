"""Which calls belong to which layer: the traced run's patch table.

Layers are this repo's packages.  ``install(tracer)`` wraps the calls *into*
each layer (from outside the program — nothing under ``src/`` knows it is
being timed) so every such call becomes a span, or, for the per-wire crypto
primitives, a leaf charge.  The span name is the layer metric's stem:

====================  =====================================================
span / leaf           wrapped calls
====================  =====================================================
``core``              ``run_swarm_round`` / ``run_continuous`` (roots, opened
                      by the workload) and ``drive_scheduled_round``
``swarm.wrap``        each chunk pulled from ``ClientSwarm.iter_round_chunks``
``swarm.decode``      ``ClientSwarm.handle_round_responses``
``admission``         ``RoundCoordinator.open_round`` / ``handle`` /
                      ``close_round`` (the entry server's buffer work runs
                      inside them)
``wire.encode|decode``  every ``repro.server.wire`` codec function
``net.rpc``           ``Network.send`` and ``TcpTransport.send``
``mixnet.hop<i>``     ``MixServer.process_round`` at chain position *i*
``mixnet.noise``      the servers' noise builders + ``RoundEngine.wrap_noise_chunks``
``mixnet.shuffle``    ``Permutation.random`` / ``apply`` / ``invert``
``deaddrop.exchange`` ``ConversationProcessor()`` and ``DialingProcessor()``
``deaddrop.download`` ``VuvuzelaSystem.download_invitations``
``client.build``      ``RoundProtocol.build_wires`` (per-client path)
``client.handle``     ``RoundProtocol.handle_responses``
``dialing.scan``      ``VuvuzelaClient.poll_invitations``
``ledger.append``     ``LedgerWriter.append``
``crypto.curve``      the ``Backend``'s four X25519 callables (leaf)
``crypto.aead``       the ``Backend``'s four AEAD callables (leaf)
``crypto.kdf``        ``hkdf.derive_key`` / ``derive_key_schedule`` (leaf)
====================  =====================================================
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from contextlib import contextmanager
from time import perf_counter

from repro.client.client import VuvuzelaClient
from repro.conversation.server import ConversationProcessor
from repro.core.system import VuvuzelaSystem
from repro.crypto import backend as crypto_backend
from repro.crypto.hkdf import derive_key, derive_key_schedule
from repro.dialing.client import own_invitation_bucket
from repro.dialing.server import DialingProcessor
from repro.ledger.writer import LedgerWriter
from repro.mixnet.chain import MixServer
from repro.mixnet.shuffle import Permutation
from repro.net import MessageKind, Network, TcpTransport
from repro.runtime.coordinator import RoundCoordinator
from repro.runtime.engine import RoundEngine
from repro.runtime.protocols import ConversationProtocol, DialingProtocol
from repro.server import wire
from repro.simulation.swarm import ClientSwarm

from spans import Tracer

WIRE_CODECS = {
    "wire.encode": (
        "encode_batch",
        "encode_download_request",
        "encode_submission_batch",
        "encode_batch_verdicts",
        "encode_collect_request",
        "encode_collect_reply",
    ),
    "wire.decode": (
        "decode_batch",
        "decode_download_request",
        "decode_submission_batch",
        "decode_batch_verdicts",
        "decode_collect_request",
        "decode_collect_reply",
    ),
}

CURVE = {
    "x25519_scalar_mult": None,
    "x25519_scalar_base_mult": None,
    "x25519_fixed_scalar_batch": 1,
    "x25519_fixed_point_batch": 0,
}
AEAD = {
    "aead_encrypt": None,
    "aead_decrypt": None,
    "aead_seal_batch": 0,
    "aead_open_batch": 0,
}


class Instrumentation:
    """The installed patch set plus the counts taken at the same boundaries."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.counts: dict[str, int] = {}

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    @contextmanager
    def root(self, *, round_id=None, tag=None):
        """The root span of one measured unit; recording happens only inside it."""
        span = self.tracer.begin("core", round_id=round_id, tag=tag, root=True)
        try:
            yield span
        finally:
            self.tracer.finish(span)

    def reset(self) -> None:
        """Forget what set-up and the warm-up round recorded."""
        self.tracer.spans.clear()
        self.tracer.leaves.clear()
        self.counts.clear()

    # ------------------------------------------------------------- wrappers

    def spanned(self, fn, name, *, after=None):
        """``fn`` as a span; ``after(result, *args)`` counts at the boundary."""
        tracer = self.tracer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(name(*args) if callable(name) else name)
            if span is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(span)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def leaf(self, fn, name, batch_arg=None):
        """``fn`` as a leaf charge; a batch counts one unit per element."""
        charge = self.tracer.charge

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            begin = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                charge(
                    name,
                    perf_counter() - begin,
                    1 if batch_arg is None else len(args[batch_arg]),
                )

        return timed

    # -------------------------------------------------------------- install

    def install(self) -> None:
        spanned = self.spanned

        # crypto: a timing proxy over the active Backend's callables, and the
        # one KDF every key derivation goes through.
        backend = crypto_backend.active_backend()
        crypto_backend._active = dataclasses.replace(
            backend,
            **{field: self.leaf(getattr(backend, field), "crypto.curve", arg) for field, arg in CURVE.items()},
            **{field: self.leaf(getattr(backend, field), "crypto.aead", arg) for field, arg in AEAD.items()},
        )
        _rebind(derive_key, self.leaf(derive_key, "crypto.kdf"))
        _rebind(derive_key_schedule, self.leaf(derive_key_schedule, "crypto.kdf", 0))

        # simulation.swarm
        ClientSwarm.iter_round_chunks = self._spanned_generator(
            ClientSwarm.iter_round_chunks, "swarm.wrap"
        )
        ClientSwarm.handle_round_responses = spanned(
            ClientSwarm.handle_round_responses, "swarm.decode"
        )

        # runtime.coordinator + server.entry
        for method in ("open_round", "handle", "close_round"):
            setattr(RoundCoordinator, method, spanned(getattr(RoundCoordinator, method), "admission"))

        # server.wire
        for name, functions in WIRE_CODECS.items():
            for function in functions:
                original = getattr(wire, function)
                after = None
                if name == "wire.encode":
                    after = lambda frame, *_a, **_k: self.count("wire.bytes", len(frame))  # noqa: E731
                _rebind(original, spanned(original, name, after=after))

        # net
        def count_rpc(reply, _transport, _source, _destination, payload, *rest, **kwargs):
            self.count("net.frames")
            self.count("net.bytes", len(payload) + len(reply or b""))
            kind = kwargs.get("kind", rest[0] if rest else MessageKind.CONTROL)
            if kind is MessageKind.CONTROL:
                self.count("net.control_rpcs")

        Network.send = spanned(Network.send, "net.rpc", after=count_rpc)
        TcpTransport.send = spanned(TcpTransport.send, "net.rpc", after=count_rpc)

        # mixnet
        MixServer.process_round = spanned(
            MixServer.process_round, lambda server, *_a: f"mixnet.hop{server.index}"
        )
        RoundEngine.wrap_noise_chunks = spanned(RoundEngine.wrap_noise_chunks, "mixnet.noise")
        Permutation.random = classmethod(spanned(Permutation.random.__func__, "mixnet.shuffle"))
        Permutation.apply = spanned(Permutation.apply, "mixnet.shuffle")
        Permutation.invert = spanned(Permutation.invert, "mixnet.shuffle")

        # conversation / dialing processors over the deaddrop stores
        def count_requests(_responses, _processor, _round, payloads):
            self.count("deaddrop.requests", len(payloads))

        for processor in (ConversationProcessor, DialingProcessor):
            processor.__call__ = spanned(processor.__call__, "deaddrop.exchange", after=count_requests)
        VuvuzelaSystem.download_invitations = spanned(
            VuvuzelaSystem.download_invitations, "deaddrop.download"
        )

        # client + dialing (the per-client path)
        for protocol in (ConversationProtocol, DialingProtocol):
            protocol.build_wires = spanned(protocol.build_wires, "client.build")
            protocol.handle_responses = spanned(protocol.handle_responses, "client.handle")

        def count_scan(calls, client, _round, store):
            bucket = own_invitation_bucket(client.keys, store.num_buckets)
            self.count("dialing.invitations_scanned", store.bucket_size(bucket))
            self.count("dialing.calls_found", len(calls))

        VuvuzelaClient.poll_invitations = spanned(
            VuvuzelaClient.poll_invitations, "dialing.scan", after=count_scan
        )

        # core: a scheduled round is the program's own glue, tagged so that
        # the split inside conversation and dialing rounds can be read apart.
        tracer = self.tracer
        drive = VuvuzelaSystem.drive_scheduled_round

        @functools.wraps(drive)
        def drive_traced(system, protocol, opened):
            span = tracer.begin("core", round_id=opened.round_number, tag=protocol.name)
            if span is None:
                return drive(system, protocol, opened)
            try:
                return drive(system, protocol, opened)
            finally:
                tracer.finish(span)

        VuvuzelaSystem.drive_scheduled_round = drive_traced

        # ledger
        LedgerWriter.append = spanned(LedgerWriter.append, "ledger.append")

    def trace_noise_builders(self, system: VuvuzelaSystem) -> None:
        """Noise builders are per-server closures, so they are wrapped per system."""
        for endpoint in system.conversation_endpoints + system.dialing_endpoints:
            server = endpoint.mix_server
            if server.noise_builder is not None:
                server.noise_builder = self.spanned(
                    server.noise_builder,
                    "mixnet.noise",
                    after=lambda payloads, *_a: self.count("mixnet.noise_wires", len(payloads)),
                )

    def _spanned_generator(self, generator_fn, name):
        tracer = self.tracer

        @functools.wraps(generator_fn)
        def traced(*args, **kwargs):
            iterator = generator_fn(*args, **kwargs)
            while True:
                span = tracer.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    if span is not None:
                        tracer.finish(span)
                yield item

        return traced


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module attribute that is ``original`` at ``replacement``.

    The program imports its helpers by name (``from .wire import encode_batch``),
    so patching the defining module alone would miss every caller.
    """
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)
