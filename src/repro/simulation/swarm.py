"""Vectorized client swarm: a whole round's client population in columns.

Driving the paper's operating point (§8: hundreds of thousands to a million
users per round) through one :class:`~repro.client.VuvuzelaClient` object per
user is hopeless in Python — a million clients means a million object graphs,
a million tiny rng streams touched one draw at a time, and a million
per-request onion wraps.  The swarm flips the layout: one
:class:`ClientSwarm` holds the *population* as columnar state (partner
indices, each pair's round-independent message and dead-drop keys, derived
once, per-client rng streams, per-round onion contexts and receive keys) and
builds an entire round's request wires in bulk.  Each chunk's crypto — the
idle clients' fake exchanges, one batched seal for every message box and
:func:`~repro.crypto.wrap_request_batch` for the onion layers — is one
:meth:`~repro.runtime.engine.RoundEngine.wrap_client_chunks` op on the
engine the caller passes (a driver passes its own, which takes large chunks
to its worker pool, one per core), inline without one.  Responses come back
in bulk too, through :func:`~repro.crypto.unwrap_response_batch` and one
batched box open.

The speed changes nothing observable: every per-client draw is made in the
calling thread, from the exact fork
(``root.fork(f"client-rng-{name}").fork("conversation")``) in the exact order
:meth:`VuvuzelaClient.build_conversation_requests` would make it, and only
pure functions of those bytes reach the engine, so a swarm round is
**byte-identical** to the same scenario driven through individual clients,
wherever the engine ran it — :meth:`ClientSwarm.reference_wires` rebuilds
any built round through real ``VuvuzelaClient`` objects for exactly that
assertion.

Rounds are generated and submitted in bounded chunks
(:meth:`ClientSwarm.submit_round`): at most one chunk is in flight while the
next one is being generated, and the synchronous wait on each chunk's
admission verdicts is the ingest backpressure, so a 100k–1M-wire round runs
in O(chunk) client-side memory above the per-round decode state.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

from .workload import GeneratedPopulation, WorkloadSpec, generate_population
from ..conversation.messages import (
    MAX_MESSAGE_SIZE,
    MESSAGE_BOX_SIZE,
    directional_keys,
    message_nonce,
)
from ..core import topology
from ..core.config import VuvuzelaConfig
from ..crypto import (
    KEY_SIZE,
    KeyPair,
    OnionContext,
    open_box_batch,
    unpad,
    unwrap_response_batch,
)
from ..crypto.deaddrop_id import dead_drop_for_round, dead_drop_prf_key
from ..crypto.rng import DeterministicRandom
from ..errors import PaddingError, ProtocolError
from ..runtime.engine import RoundEngine, default_engine
from ..server.wire import VERDICT_ACCEPTED, VERDICT_LATE, VERDICT_REFUSED

#: Default generation/submission chunk, matching the server-side round
#: engine's preferred shard so one ingest chunk feeds one crypto chunk.
DEFAULT_CHUNK = 8192


@dataclass
class SwarmChunk:
    """One contiguous slice of a round's population, wires built."""

    round_number: int
    start: int
    names: list[str]
    wires: list[bytes]

    @property
    def entries(self) -> list[tuple[str, bytes]]:
        """``(client, wire)`` pairs, the shape the submission frame packs."""
        return list(zip(self.names, self.wires))

    @property
    def wire_bytes(self) -> int:
        return sum(len(wire) for wire in self.wires)


@dataclass
class SwarmIngestStats:
    """What the chunked ingest of one round observed (backpressure included)."""

    round_number: int
    wires: int = 0
    chunks: int = 0
    chunk_size: int = 0
    accepted: int = 0
    refused: int = 0
    late: int = 0
    max_chunk_bytes: int = 0
    #: Largest number of submissions buffered server-side after a chunk, when
    #: the driver can observe it (the in-process driver can; over TCP the
    #: entry's buffer is remote and this stays 0).
    peak_server_buffer: int = 0
    #: Wall-clock of the generate+submit loop; with pipelining the two
    #: overlap, so this is close to max(generate, submit), not their sum.
    ingest_seconds: float = 0.0
    #: Time the driving thread spent *generating* wires (pulling chunks out
    #: of :meth:`ClientSwarm.iter_round_chunks`).
    wrap_seconds: float = 0.0
    #: Time the driving thread spent blocked on admission (submitting chunks
    #: and waiting for their verdicts — the ingest backpressure).
    admission_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "round_number": self.round_number,
            "wires": self.wires,
            "chunks": self.chunks,
            "chunk_size": self.chunk_size,
            "accepted": self.accepted,
            "refused": self.refused,
            "late": self.late,
            "max_chunk_bytes": self.max_chunk_bytes,
            "peak_server_buffer": self.peak_server_buffer,
            "ingest_seconds": self.ingest_seconds,
            "wrap_seconds": self.wrap_seconds,
            "admission_seconds": self.admission_seconds,
        }


@dataclass
class SwarmRoundOutcome:
    """The bulk-decoded results of one resolved swarm round."""

    round_number: int
    #: Responses that arrived (and authenticated through every onion layer).
    delivered: int
    #: Requests whose response never arrived or failed to unwrap.
    lost: int
    #: Conversing clients whose partner's box authenticated this round —
    #: ``name -> plaintext`` (``b""`` for the default empty message).
    messages: dict[str, bytes]
    #: Conversing clients whose partner did not take part in the exchange.
    undelivered: list[str]


@dataclass
class _PendingRound:
    """Per-round decode state, accumulated chunk by chunk."""

    contexts: list[OnionContext | None] = field(default_factory=list)
    receive_keys: list[bytes | None] = field(default_factory=list)


class ClientSwarm:
    """An entire client population, laid out for bulk round crypto.

    The swarm mirrors what ``VuvuzelaSystem.add_client`` +
    ``build_conversation_requests`` would do for every user of a generated
    population, with the per-object work hoisted into columns:

    * long-term key pairs are derived lazily and only for *paired* clients
      (an idle client's long-term key never touches the conversation wire);
    * each conversation pair's Diffie-Hellman secret is computed once and
      shared by both endpoints (X25519 is symmetric), and so are the keys it
      derives — the directional message keys and the dead-drop PRF key;
    * each client's conversation rng stream is the same deployment fork an
      individual client would own, so draw order per client — idle fake-peer
      scalars first, then onion scalars innermost-layer-first — matches the
      reference path exactly.

    Only single-slot clients are supported (``max_conversations_per_client
    == 1``, the paper's prototype setting): one wire per client per round.
    """

    def __init__(
        self,
        config: VuvuzelaConfig,
        population: GeneratedPopulation,
    ) -> None:
        if config.max_conversations_per_client != 1:
            raise ProtocolError(
                "the client swarm models single-slot clients "
                "(max_conversations_per_client == 1)"
            )
        # The swarm re-derives the deployment's key material from the config
        # seed (exactly like a standalone server process does); an unseeded
        # config would hand the swarm and the system different chains.
        topology.require_seed(config)
        self.config = config
        self.population = population
        self.names: list[str] = list(population.names)
        root = topology.root_rng(config)
        self._root = root
        self.server_keypairs = topology.server_keypairs(config, root)
        self.server_public_keys = [kp.public for kp in self.server_keypairs]

        index_of = {name: i for i, name in enumerate(self.names)}
        count = len(self.names)
        #: Partner index per client, ``None`` for idle clients.
        self._partners: list[int | None] = [None] * count
        for a, b in population.pairs:
            ia, ib = index_of[a], index_of[b]
            self._partners[ia] = ib
            self._partners[ib] = ia
        #: Dialing intents as index columns (who would dial whom), ready for
        #: a future bulk dialing round; the conversation path ignores them.
        self.dial_callers: list[int] = [index_of[caller] for caller, _ in population.dialers]
        self.dial_callees: list[int] = [index_of[callee] for _, callee in population.dialers]

        self._keypairs: list[KeyPair | None] = [None] * count
        #: Per paired client: (send key, receive key, dead-drop PRF key).
        self._session_keys: list[tuple[bytes, bytes, bytes] | None] = [None] * count
        self._conversation_rngs: list[DeterministicRandom] = [
            root.fork(f"client-rng-{name}").fork("conversation") for name in self.names
        ]
        self._pending: dict[int, _PendingRound] = {}
        self._built_rounds: list[int] = []
        #: One-shot raw message per client for the *next* built round.  Raw
        #: means unframed: a real client frames outbox messages with sequence
        #: numbers, so byte-identity to the reference path holds for the
        #: default (empty-message) workload the benchmarks drive.
        self._messages: dict[str, bytes] = {}

    # ------------------------------------------------------------ construction

    @classmethod
    def from_spec(
        cls,
        config: VuvuzelaConfig,
        spec: WorkloadSpec,
        *,
        name_prefix: str = "user",
        population_seed: int = 0,
    ) -> "ClientSwarm":
        """A swarm over :func:`generate_population` of ``spec``."""
        population = generate_population(
            spec, DeterministicRandom(population_seed), name_prefix=name_prefix
        )
        return cls(config, population)

    def __len__(self) -> int:
        return len(self.names)

    @property
    def conversing(self) -> int:
        return sum(1 for partner in self._partners if partner is not None)

    def set_message(self, name: str, message: bytes) -> None:
        """Queue one raw message for ``name``'s next exchange (delivery tests)."""
        if len(message) > MAX_MESSAGE_SIZE - 1:
            raise ProtocolError(
                f"conversation messages are limited to {MAX_MESSAGE_SIZE - 1} bytes"
            )
        self._messages[name] = bytes(message)

    # ---------------------------------------------------------- column helpers

    def _long_term(self, index: int) -> KeyPair:
        keypair = self._keypairs[index]
        if keypair is None:
            keypair = KeyPair.generate(self._root.fork(f"client-key-{self.names[index]}"))
            self._keypairs[index] = keypair
        return keypair

    def _conversation_keys(self, index: int) -> tuple[bytes, bytes, bytes]:
        """``index``'s send key, receive key and dead-drop PRF key.

        They are fixed with the partner, so each pair derives them once —
        as ``ConversationSession`` does — with one long-term exchange for
        both endpoints (X25519 is symmetric: the partner's exchange yields
        the same secret, whose dead drops both share and whose directional
        keys swap).
        """
        keys = self._session_keys[index]
        if keys is None:
            partner = self._partners[index]
            assert partner is not None
            own, peer = self._long_term(index), self._long_term(partner)
            secret = own.exchange(peer.public)
            send, receive = directional_keys(secret, bytes(own.public), bytes(peer.public))
            drop_key = dead_drop_prf_key(secret)
            keys = self._session_keys[index] = (send, receive, drop_key)
            self._session_keys[partner] = (receive, send, drop_key)
        return keys

    # ------------------------------------------------------------- generation

    def _build_chunk(
        self, round_number: int, start: int, stop: int, engine: RoundEngine
    ) -> SwarmChunk:
        """Build wires for population slice ``[start, stop)`` in bulk.

        Every rng draw is made here, in each client's reference order; the
        crypto — idle fake exchanges, boxes and onion layers — is one
        :meth:`~repro.runtime.engine.RoundEngine.wrap_client_chunks` op.
        """
        count = stop - start
        depth = len(self.server_public_keys)
        fakes: list[bytes | None] = [None] * count
        send_keys: list[bytes | None] = [None] * count
        receive_keys: list[bytes | None] = [None] * count
        dead_drops: list[bytes | None] = [None] * count
        plaintexts: list[bytes] = [b""] * count
        scalars: list[list[bytes]] = [[b""] * count for _ in range(depth)]

        for position in range(count):
            index = start + position
            rng = self._conversation_rngs[index]
            if self._partners[index] is None:
                # Algorithm 1 step 1b: the fake peer's scalar, then the own
                # ephemeral scalar exchanged against it.
                fakes[position] = rng.random_bytes(KEY_SIZE) + rng.random_bytes(KEY_SIZE)
            else:
                send, receive, drop_key = self._conversation_keys(index)
                send_keys[position] = send
                receive_keys[position] = receive
                dead_drops[position] = dead_drop_for_round(drop_key, round_number)
                plaintexts[position] = self._messages.get(self.names[index], b"")
            # Onion scalars, innermost layer first — the order wrap_request
            # draws them per client.
            for layer in range(depth - 1, -1, -1):
                scalars[layer][position] = rng.random_bytes(KEY_SIZE)

        wires, contexts = engine.wrap_client_chunks(
            round_number, self.server_public_keys, fakes, send_keys, dead_drops, plaintexts, scalars
        )
        pending = self._pending[round_number]
        pending.contexts.extend(contexts)
        pending.receive_keys.extend(receive_keys)
        return SwarmChunk(
            round_number=round_number,
            start=start,
            names=self.names[start:stop],
            wires=wires,
        )

    def iter_round_chunks(
        self, round_number: int, *, chunk_size: int = 0, engine: RoundEngine | None = None
    ) -> Iterator[SwarmChunk]:
        """Generate one round's wires chunk by chunk, in population order.

        ``engine`` runs each chunk's crypto (a driver passes its own, which
        takes large chunks to its worker pool); without one it runs inline.
        """
        if round_number in self._pending or round_number in self._built_rounds:
            raise ProtocolError(
                f"the swarm already built requests for round {round_number}"
            )
        # Mirror the individual client's stale-state pruning: once a newer
        # round builds, an earlier round's responses can never be handled.
        for stale in [r for r in self._pending if r < round_number]:
            del self._pending[stale]
        chunk = chunk_size or DEFAULT_CHUNK
        engine = engine or default_engine()
        self._pending[round_number] = _PendingRound()
        self._built_rounds.append(round_number)
        for start in range(0, len(self.names), chunk):
            yield self._build_chunk(round_number, start, min(start + chunk, len(self.names)), engine)
        self._messages.clear()

    def build_round(
        self, round_number: int, *, chunk_size: int = 0, engine: RoundEngine | None = None
    ) -> list[bytes]:
        """All of one round's wires at once (tests; rounds stay chunk-bounded
        through :meth:`submit_round` in real drivers)."""
        wires: list[bytes] = []
        for chunk in self.iter_round_chunks(round_number, chunk_size=chunk_size, engine=engine):
            wires.extend(chunk.wires)
        return wires

    # ---------------------------------------------------------------- ingest

    def submit_round(
        self,
        round_number: int,
        submit: Callable[[SwarmChunk], bytes],
        *,
        chunk_size: int = 0,
        pipeline: bool = True,
        engine: RoundEngine | None = None,
    ) -> SwarmIngestStats:
        """Generate and submit one round with bounded in-flight memory.

        ``submit`` ships one chunk to the entry path and returns the per-entry
        verdict bytes (:data:`~repro.server.wire.VERDICT_ACCEPTED` et al.),
        aligned with the chunk.  At most one chunk is in flight at a time —
        the PR 2 chunk-pipeline idiom: chunk *k* travels while chunk *k+1* is
        generated, and the blocking wait on *k*'s verdicts before *k+1* ships
        is the explicit ingest backpressure.  Chunks are submitted strictly
        in population order, so the entry buffer — and everything downstream:
        mix permutation inputs, the ledger's submission digest — is identical
        to per-client submission order.
        """
        stats = SwarmIngestStats(
            round_number=round_number, chunk_size=chunk_size or DEFAULT_CHUNK
        )
        started = time.perf_counter()

        def absorb(chunk: SwarmChunk, verdicts: bytes) -> None:
            if len(verdicts) != len(chunk.wires):
                raise ProtocolError(
                    f"round {round_number}: got {len(verdicts)} verdicts "
                    f"for a {len(chunk.wires)}-wire chunk"
                )
            stats.chunks += 1
            stats.wires += len(chunk.wires)
            stats.max_chunk_bytes = max(stats.max_chunk_bytes, chunk.wire_bytes)
            stats.accepted += sum(1 for v in verdicts if v == VERDICT_ACCEPTED)
            stats.refused += sum(1 for v in verdicts if v == VERDICT_REFUSED)
            stats.late += sum(1 for v in verdicts if v == VERDICT_LATE)

        def timed_chunks() -> Iterator[SwarmChunk]:
            """Meter the generation phase: time spent pulling each chunk."""
            chunks = self.iter_round_chunks(round_number, chunk_size=chunk_size, engine=engine)
            while True:
                begin = time.perf_counter()
                try:
                    chunk = next(chunks)
                except StopIteration:
                    stats.wrap_seconds += time.perf_counter() - begin
                    return
                stats.wrap_seconds += time.perf_counter() - begin
                yield chunk

        if not pipeline:
            for chunk in timed_chunks():
                begin = time.perf_counter()
                verdicts = submit(chunk)
                stats.admission_seconds += time.perf_counter() - begin
                absorb(chunk, verdicts)
        else:
            with ThreadPoolExecutor(max_workers=1) as pool:
                in_flight: tuple[SwarmChunk, object] | None = None
                for chunk in timed_chunks():
                    if in_flight is not None:
                        previous, future = in_flight
                        begin = time.perf_counter()
                        verdicts = future.result()  # backpressure
                        stats.admission_seconds += time.perf_counter() - begin
                        absorb(previous, verdicts)
                    in_flight = (chunk, pool.submit(submit, chunk))
                if in_flight is not None:
                    previous, future = in_flight
                    begin = time.perf_counter()
                    verdicts = future.result()
                    stats.admission_seconds += time.perf_counter() - begin
                    absorb(previous, verdicts)
        stats.ingest_seconds = time.perf_counter() - started
        return stats

    # ------------------------------------------------------------- responses

    def handle_round_responses(
        self, round_number: int, grouped: Mapping[str, Sequence[bytes]]
    ) -> SwarmRoundOutcome:
        """Bulk-decode one resolved round's responses.

        ``grouped`` maps client name to its response list (the coordinator's
        ``RoundResult.responses`` shape).  Every onion layer of the round is
        opened in one batched pass, then every conversing client's message
        box in another.
        """
        pending = self._pending.pop(round_number, None)
        if pending is None:
            raise ProtocolError(f"the swarm has no pending round {round_number}")
        wires: list[bytes | None] = []
        for name in self.names:
            responses = grouped.get(name)
            wires.append(responses[0] if responses else None)

        delivered = sum(1 for wire in wires if wire is not None)
        inners = unwrap_response_batch(wires, pending.contexts)

        # Conversing clients: open the partner's box in one batched pass.
        positions: list[int] = []
        keys: list[bytes] = []
        boxes: list[bytes] = []
        for index, inner in enumerate(inners):
            receive_key = pending.receive_keys[index]
            if receive_key is None or inner is None:
                continue
            if len(inner) != MESSAGE_BOX_SIZE:
                continue
            positions.append(index)
            keys.append(receive_key)
            boxes.append(inner)
        opened = open_box_batch(keys, message_nonce(round_number), boxes)

        messages: dict[str, bytes] = {}
        for index, padded in zip(positions, opened):
            if padded is None:
                continue
            try:
                messages[self.names[index]] = unpad(padded, MAX_MESSAGE_SIZE)
            except PaddingError:
                continue
        undelivered = [
            self.names[index]
            for index, receive_key in enumerate(pending.receive_keys)
            if receive_key is not None and self.names[index] not in messages
        ]
        return SwarmRoundOutcome(
            round_number=round_number,
            delivered=delivered,
            lost=len(self.names) - delivered,
            messages=messages,
            undelivered=undelivered,
        )

    # ------------------------------------------------------------- reference

    def reference_clients(self) -> dict:
        """Fresh per-client ``VuvuzelaClient`` objects for this population.

        Built through the same :mod:`~repro.core.topology` forks a real
        deployment uses, with every conversation pair started — the
        individual-object mirror of this swarm at round zero.
        """
        root = topology.root_rng(self.config)
        clients = {
            name: topology.build_client(self.config, name, root, self.server_public_keys)
            for name in self.names
        }
        for a, b in self.population.pairs:
            clients[a].start_conversation(clients[b].public_key)
            clients[b].start_conversation(clients[a].public_key)
        return clients

    def reference_wires(self, round_number: int) -> list[bytes]:
        """Round ``round_number``'s wires built through individual clients.

        Replays every round this swarm has built, in order, through fresh
        ``VuvuzelaClient`` objects (each build consumes rng draws, so the
        reference must make the same sequence of builds), and returns the
        requested round's wires in population order.  This is the oracle the
        byte-identity tests compare against.
        """
        if round_number not in self._built_rounds:
            raise ProtocolError(f"the swarm never built round {round_number}")
        clients = self.reference_clients()
        wires: list[bytes] = []
        for built in self._built_rounds:
            current = [clients[name].build_conversation_requests(built)[0] for name in self.names]
            if built == round_number:
                wires = current
        return wires

