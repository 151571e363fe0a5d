"""Vectorized client swarm: a whole round's client population in columns.

Driving the paper's operating point (§8: hundreds of thousands to a million
users per round) through one :class:`~repro.client.VuvuzelaClient` object per
user is hopeless in Python — a million clients means a million object graphs.
The swarm holds the *population* instead: one
:class:`~repro.conversation.ConversationRows` row per user, with the same
routine a ``VuvuzelaClient`` builds and decodes its own slots with.  The
swarm keeps what is its own: the population layout (partner indices, each
pair's keys derived once for both endpoints), chunked ingest and the shape
of a round's outcome.

Each row draws from the fork
(``root.fork(f"client-rng-{name}").fork("conversation")``) an individual
client of the deployment would own, in the order that client would draw, and
only pure functions of those bytes reach the engine a chunk's crypto runs on
(a driver passes its own, which takes large chunks to its worker pool).  So
a swarm round is **byte-identical** to the same scenario driven through
individual clients, wherever the engine ran it.

Rounds are generated and submitted in bounded chunks
(:meth:`ClientSwarm.submit_round`): at most one chunk is in flight while the
next one is being generated, and the synchronous wait on each chunk's
admission verdicts is the ingest backpressure, so a 100k–1M-wire round runs
in O(chunk) client-side memory above the per-round decode state.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from .workload import GeneratedPopulation, WorkloadSpec, generate_population
from ..conversation.client import ConversationRows, pair_keys
from ..conversation.messages import MAX_MESSAGE_SIZE
from ..core import topology
from ..core.config import VuvuzelaConfig
from ..crypto import KeyPair
from ..crypto.rng import DeterministicRandom
from ..errors import ProtocolError
from ..runtime.engine import RoundEngine
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


class ClientSwarm:
    """An entire client population as the rows of one conversation state.

    The swarm mirrors what ``VuvuzelaSystem.add_client`` +
    ``build_conversation_requests`` would do for every user of a generated
    population:

    * long-term key pairs are derived lazily and only for *paired* clients
      (an idle client's long-term key never touches the conversation wire);
    * each conversation pair's Diffie-Hellman secret is computed once and
      shared by both endpoints (X25519 is symmetric), and so are the keys it
      derives — the directional message keys and the dead-drop PRF key.

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
        self._keypairs: list[KeyPair | None] = [None] * count
        self.rows = ConversationRows(
            self.server_public_keys,
            [root.fork(f"client-rng-{name}").fork("conversation") for name in self.names],
        )
        self.rows.owners = [
            None if partner is None else name for name, partner in zip(self.names, self._partners)
        ]
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

    # ------------------------------------------------------------- generation

    def _long_term(self, index: int) -> KeyPair:
        keypair = self._keypairs[index]
        if keypair is None:
            keypair = KeyPair.generate(self._root.fork(f"client-key-{self.names[index]}"))
            self._keypairs[index] = keypair
        return keypair

    def _fill_pair_keys(self, start: int, stop: int) -> None:
        """Derive the keys of every pair with an endpoint in ``[start, stop)``
        that has none yet: one long-term exchange for both endpoints."""
        keys = self.rows.keys
        for index in range(start, stop):
            partner = self._partners[index]
            if partner is None or keys[index] is not None:
                continue
            own, peer = self._long_term(index), self._long_term(partner)
            send, receive, drop_key = keys[index] = pair_keys(
                own.exchange(peer.public), bytes(own.public), bytes(peer.public)
            )
            keys[partner] = (receive, send, drop_key)

    def iter_round_chunks(
        self, round_number: int, *, chunk_size: int = 0, engine: RoundEngine | None = None
    ) -> Iterator[SwarmChunk]:
        """Generate one round's wires chunk by chunk, in population order.

        ``engine`` runs each chunk's crypto (a driver passes its own, which
        takes large chunks to its worker pool); without one it runs inline.
        """
        chunk = chunk_size or DEFAULT_CHUNK
        for start in range(0, len(self.names), chunk):
            stop = min(start + chunk, len(self.names))
            self._fill_pair_keys(start, stop)
            names = self.names[start:stop]
            plaintexts = [self._messages.get(name, b"") for name in names]
            wires = self.rows.build(round_number, plaintexts, engine, start=start)
            yield SwarmChunk(round_number=round_number, start=start, names=names, wires=wires)
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
        ``RoundResult.responses`` shape).
        """
        wires: list[bytes | None] = []
        for name in self.names:
            responses = grouped.get(name)
            wires.append(responses[0] if responses else None)
        decoded = self.rows.decode(round_number, wires)
        delivered = sum(1 for wire in wires if wire is not None)
        return SwarmRoundOutcome(
            round_number=round_number,
            delivered=delivered,
            lost=len(self.names) - delivered,
            messages={name: text for name, text in decoded if text is not None},
            undelivered=[name for name, text in decoded if name is not None and text is None],
        )
