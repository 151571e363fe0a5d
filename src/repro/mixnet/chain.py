"""The mix chain: peel, add noise, shuffle, forward, unshuffle, re-wrap.

This module implements the server side of Vuvuzela's onion routing generically
so both protocols can reuse it: a :class:`MixServer` performs Algorithm 2
steps 1, 2, 3a and 4 (decrypt, generate cover traffic, shuffle/forward,
encrypt results), while the protocol supplies two callables:

* a *noise builder* that produces the innermost payloads of this server's
  cover-traffic requests (fake exchanges for conversations, fake invitations
  for dialing), and
* a *processor* that plays the role of the last server's step 3b (match dead
  drops / collect invitations) on the fully peeled payloads.

All batch crypto a round performs is routed through a
:class:`~repro.runtime.RoundEngine`: by default the process-wide serial
engine (which already chunks a batch to bound its working set), or a
driver's host-sized engine shared by the whole chain for multi-core rounds.
The engine only ever executes pure functions
of bytes — noise payloads, wrap scalars and the mix permutation are all
drawn in this thread, in a fixed order, from a per-``(round, attempt)``
fork of the server's rng — so every engine produces byte-identical
rounds under a fixed :class:`~repro.crypto.rng.RandomSource`, and a server
that crashed and restarted mid-session draws exactly the bytes it would
have drawn had it never died (the draws depend on *which* round/attempt is
processed, not on how many rounds this process handled before it).

Because step 2's noise depends on nothing a round admits, a server prepares
its cover traffic one round ahead: when its pass of round ``r`` is done it
draws round ``r + 1``'s noise payloads and wrap scalars (attempt 1) and
starts their wrap on the engine, which a pooled engine runs while the
driver does the round's serial work.  The next pass takes that wrap if it
is for the same ``(round, attempt)`` and its pool is still the engine's;
otherwise it draws the same bytes afresh.  A serial engine's ops are lazy,
so TCP chain servers spend no crypto on a wrap they never take.

The chain also exposes the hooks the adversary model needs: a compromised
server can report everything it sees and can tamper with the batch before
mixing (e.g. discard all requests except Alice's and Bob's, the §4.2 attack).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Protocol, Sequence, Union

from .shuffle import Permutation
from ..crypto.keys import KeyPair, PublicKey
from ..crypto.rng import RandomSource, default_random
from ..errors import ProtocolError

if TYPE_CHECKING:
    from ..runtime import RoundEngine
    from ..runtime.engine import PendingRun

#: Builds the innermost payloads of one server's noise requests for a round.
NoiseBuilder = Callable[[int, RandomSource], list[bytes]]
#: Processes the fully peeled payloads at the end of the chain; must return
#: one response per payload, aligned by index.
RoundProcessor = Callable[[int, list[bytes]], list[bytes]]
#: Optional adversarial filter applied to the peeled batch of a compromised
#: server.  It may return just the (reduced or altered) batch to forward, or
#: a ``(batch, kept_indices)`` pair where ``kept_indices[i]`` names the
#: position in the *peeled* batch that entry ``i`` came from (``None`` for
#: payloads the filter injected).  Plain-batch filters are realigned by
#: matching surviving payloads back to their original slots, so a filter
#: that drops requests from the middle of the batch can no longer pair the
#: survivors with the wrong response keys.
IngressFilter = Callable[
    [int, list[bytes]],
    Union[list[bytes], tuple[list[bytes], "list[int | None]"]],
]


def handover(batch: list[bytes]) -> Iterator[bytes]:
    """``batch``'s entries, read once; the list is emptied once they are read,
    so a caller (or a wrapper) that still names it holds none of them."""
    yield from batch
    batch.clear()


def _align_filtered_payloads(
    original: list[bytes], kept: list[bytes]
) -> list[int | None]:
    """Map each surviving payload back to its index in the peeled batch.

    Identity matches win (the common case: a filter returns a subset of the
    very objects it was given), equal-value matches cover filters that
    re-materialise bytes, and each original slot is consumed at most once so
    duplicated payloads stay one-to-one.  Payloads the filter invented match
    nothing and map to ``None`` — they are forwarded, but no response key or
    client slot is ever associated with them.
    """
    by_identity: dict[int, deque[int]] = {}
    by_value: dict[bytes, deque[int]] = {}
    for index, payload in enumerate(original):
        by_identity.setdefault(id(payload), deque()).append(index)
        by_value.setdefault(bytes(payload), deque()).append(index)

    taken: set[int] = set()

    def claim(queue: deque[int] | None) -> int | None:
        while queue:
            candidate = queue.popleft()
            if candidate not in taken:
                return candidate
        return None

    aligned: list[int | None] = []
    for payload in kept:
        index = claim(by_identity.get(id(payload)))
        if index is None:
            index = claim(by_value.get(bytes(payload)))
        if index is not None:
            taken.add(index)
        aligned.append(index)
    return aligned


@dataclass(frozen=True)
class ServerRoundView:
    """What one server observed while handling a round (for the adversary)."""

    server_index: int
    round_number: int
    incoming_requests: int
    malformed_requests: int
    noise_requests_added: int
    forwarded_requests: int


class RoundObserver(Protocol):
    """Receives a :class:`ServerRoundView` after each round a server handles."""

    def __call__(self, view: ServerRoundView) -> None: ...


@dataclass
class _CoverTraffic:
    """One round attempt's cover traffic: the rng its draws came from (the
    mix permutation comes next) and its wrap, under way on the engine."""

    #: ``(round, attempt)``.
    key: tuple[int, int]
    rng: RandomSource
    #: ``None`` when there is no noise to wrap.
    wrap: PendingRun | None

    @property
    def lost(self) -> bool:
        return self.wrap is not None and self.wrap.lost

    def cancel(self) -> None:
        if self.wrap is not None:
            self.wrap.cancel()

    def wires(self) -> list[bytes]:
        if self.wrap is None:
            return []
        (wires,) = self.wrap.result()
        return wires


@dataclass
class MixServer:
    """One Vuvuzela server in the chain."""

    index: int
    keypair: KeyPair
    chain_public_keys: Sequence[PublicKey]
    rng: RandomSource = field(default_factory=default_random)
    noise_builder: NoiseBuilder | None = None
    observer: RoundObserver | None = None
    ingress_filter: IngressFilter | None = None
    #: Execution engine for the round's batch crypto; ``None`` selects the
    #: process-wide serial engine.  Chains share one engine instance so the
    #: worker pool is shared too.
    engine: RoundEngine | None = None
    #: The next round's cover traffic, prepared when the last pass was done.
    _prepared: _CoverTraffic | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def is_last(self) -> bool:
        return self.index == len(self.chain_public_keys) - 1

    def _engine(self) -> RoundEngine:
        if self.engine is not None:
            return self.engine
        # Imported here: repro.runtime imports the server package, which
        # imports this module, so whichever is imported first must not need
        # the other at import time.
        from ..runtime.engine import default_engine

        return default_engine()

    def _prepare(self, round_number: int, attempt: int) -> _CoverTraffic:
        """Draw one attempt's noise payloads, then its wrap scalars, and
        start wrapping them for the servers after this one.

        The chain-suffix key list is fixed for the round, so the whole batch
        goes through the engine's chunked request wrap: the ephemeral scalars
        are drawn from the attempt's rng before this returns (in the serial
        wrap's exact order) and only the pure crypto is sharded, so the wires
        are identical inline and on the pool.  The mix permutation is drawn
        from the same rng afterwards.
        """
        rng = self.round_rng(round_number, attempt)
        payloads = self.noise_builder(round_number, rng) if self.noise_builder else []
        wrap = None
        if payloads:
            wrap = self._engine().wrap_noise_chunks(
                payloads, self.chain_public_keys[self.index + 1 :], round_number, rng
            )
        return _CoverTraffic((round_number, attempt), rng, wrap)

    def _cover_traffic(self, round_number: int, attempt: int) -> _CoverTraffic:
        """The prepared cover traffic for ``(round_number, attempt)``, or a
        fresh one.  A prepared wrap for an earlier round or attempt is
        cancelled; one for a later round (a retry runs in between) stays."""
        prepared, key = self._prepared, (round_number, attempt)
        if prepared is not None and prepared.key <= key:
            self._prepared = None
            if prepared.key == key and not prepared.lost:
                return prepared
            prepared.cancel()
        return self._prepare(round_number, attempt)

    def round_rng(self, round_number: int, attempt: int = 1) -> RandomSource:
        """The rng all of one round attempt's draws come from.

        Deterministic sources are forked per ``(round, attempt)`` so a
        server's draws are a pure function of ``(seed, server, round,
        attempt)`` — the property that makes crash recovery and ledger
        replay byte-exact, and that keeps a §6 retry's noise fresh (the
        attempt number is part of the fork label).  Sources without
        :meth:`~repro.crypto.rng.DeterministicRandom.fork` (e.g. the OS
        rng) are used as-is.
        """
        if hasattr(self.rng, "fork"):
            return self.rng.fork(f"round-{round_number}/attempt-{attempt}")
        return self.rng

    def _apply_ingress_filter(
        self,
        round_number: int,
        peeled: list[bytes],
        layer_keys: list[bytes],
        valid_positions: list[int],
    ) -> tuple[list[bytes], "list[bytes | None]", "list[int | None]"]:
        """Run the adversarial filter and keep keys/positions aligned.

        Whatever the filter drops, reorders or injects, entry ``i`` of the
        returned lists always describes the same request: its payload, the
        response key from its peel (``None`` for injected payloads), and the
        position in the incoming batch its response must land in.
        """
        result = self.ingress_filter(round_number, peeled)  # type: ignore[misc]
        if isinstance(result, tuple):
            kept, indices = list(result[0]), list(result[1])
            if len(kept) != len(indices):
                raise ProtocolError(
                    "ingress filter returned mismatched payloads and kept indices"
                )
            seen: set[int] = set()
            for index in indices:
                if index is None:
                    continue
                if not 0 <= index < len(peeled) or index in seen:
                    raise ProtocolError("ingress filter returned invalid kept indices")
                seen.add(index)
        else:
            kept = list(result)
            indices = _align_filtered_payloads(peeled, kept)
        kept_keys = [layer_keys[i] if i is not None else None for i in indices]
        kept_positions = [valid_positions[i] if i is not None else None for i in indices]
        return kept, kept_keys, kept_positions

    def process_round(
        self,
        round_number: int,
        requests: Iterable[bytes],
        downstream: RoundProcessor,
        attempt: int = 1,
    ) -> list[bytes]:
        """Handle one round: peel, noise, mix, forward, unmix, wrap responses.

        ``downstream`` is called with the batch this server forwards; for the
        last server in the chain it is the protocol's dead-drop processor, for
        any other server it is the next server's ``process_round`` bound to
        the same round.  Returns one response per incoming request (malformed
        requests receive an empty response).

        A round's batch is held once while it descends: ``requests`` (pass
        :func:`handover` of a batch the caller is done with) is dropped once
        peeled, and the forwarded batch is ``downstream``'s to empty.  Only
        the permutation, the response keys, their positions and counts wait.

        The whole round moves through the engine as chunked batches: one
        fixed-scalar X25519 pass and one shared-nonce AEAD pass per chunk to
        peel, the same to wrap the responses, with malformed wires masked out
        instead of handled one exception at a time, and chunk ``k`` collected
        while chunk ``k+1`` is still in flight.  The attempt's cover traffic
        is taken as prepared by the previous pass (or drawn and started
        before the peel), and the next round's is prepared once this pass is
        done; the rng draws stay payloads, scalars, permutation.
        """
        from ..runtime.worker import peel_rows, wrap_response_rows  # see _engine

        engine = self._engine()
        requests = list(requests)
        incoming = len(requests)
        # Step 2 comes first: this attempt's cover traffic, wrapping since
        # the previous pass when it was prepared then.
        cover = self._cover_traffic(round_number, attempt)

        # Step 1: decrypt this server's onion layer of every request.
        inners, keys = engine.run(
            peel_rows, [requests], self.keypair.private, self.index, round_number
        )
        del requests
        valid_positions: list[int | None] = [
            i for i, inner in enumerate(inners) if inner is not None
        ]
        peeled = [inners[i] for i in valid_positions]
        layer_keys: list[bytes | None] = [keys[i] for i in valid_positions]
        del inners, keys
        malformed = incoming - len(valid_positions)

        # A compromised server may tamper with the peeled batch (drop,
        # reorder, replace or inject requests) before it adds noise and mixes.
        if self.ingress_filter is not None:
            peeled, layer_keys, valid_positions = self._apply_ingress_filter(
                round_number, peeled, layer_keys, valid_positions
            )

        # Step 3a: shuffle the combined batch with the cover traffic and
        # forward it.
        real = len(peeled)
        combined = peeled + cover.wires()
        noise = len(combined) - real
        del peeled
        permutation = Permutation.random(len(combined), cover.rng)
        del cover
        forwarded = permutation.apply(combined)
        del combined
        downstream_responses = downstream(round_number, forwarded)
        del forwarded
        if len(downstream_responses) != real + noise:
            raise ProtocolError(
                "downstream returned a different number of responses than requests"
            )

        # Step 4: unshuffle, discard noise responses, encrypt real responses.
        unshuffled = permutation.invert(downstream_responses)
        del downstream_responses
        responses: list[bytes] = [b""] * incoming
        keyed = [i for i, key in enumerate(layer_keys) if key is not None]
        (wrapped,) = engine.run(
            wrap_response_rows,
            [[unshuffled[i] for i in keyed], [layer_keys[i] for i in keyed]],
            round_number,
        )
        for i, response in zip(keyed, wrapped):
            responses[valid_positions[i]] = response

        # The pass is done: start the next round's cover traffic, unless a
        # retry of this round left it already prepared.
        if self._prepared is None:
            self._prepared = self._prepare(round_number + 1, 1)

        if self.observer is not None:
            self.observer(
                ServerRoundView(
                    server_index=self.index,
                    round_number=round_number,
                    incoming_requests=incoming,
                    malformed_requests=malformed,
                    noise_requests_added=noise,
                    forwarded_requests=real + noise,
                )
            )
        return responses


@dataclass
class MixChain:
    """A full chain of mix servers terminated by a protocol processor."""

    servers: list[MixServer]
    processor: RoundProcessor
    #: The engine shared by the chain's servers, kept here so deployments can
    #: shut its worker pool down (``chain.engine.close()``) when they stop.
    engine: RoundEngine | None = None

    def __post_init__(self) -> None:
        if not self.servers:
            raise ProtocolError("a mix chain needs at least one server")
        for expected_index, server in enumerate(self.servers):
            if server.index != expected_index:
                raise ProtocolError("mix servers must be ordered by their chain index")

    @property
    def chain_length(self) -> int:
        return len(self.servers)

    def run_round(
        self, round_number: int, requests: Sequence[bytes], attempt: int = 1
    ) -> list[bytes]:
        """Run one complete round through every server and the processor."""

        def downstream_for(position: int) -> RoundProcessor:
            if position == len(self.servers):
                begin_attempt = getattr(self.processor, "begin_attempt", None)
                if begin_attempt is None:
                    return self.processor

                def terminal(rn: int, batch: list[bytes]) -> list[bytes]:
                    begin_attempt(rn, attempt)
                    return self.processor(rn, batch)

                return terminal

            def handle(rn: int, batch: list[bytes]) -> list[bytes]:
                return self.servers[position].process_round(
                    rn, handover(batch), downstream_for(position + 1), attempt=attempt
                )

            return handle

        return downstream_for(0)(round_number, list(requests))


def build_chain(
    server_keypairs: Sequence[KeyPair],
    processor: RoundProcessor,
    rng: RandomSource | None = None,
    noise_builder_factory: Callable[[int], NoiseBuilder | None] | None = None,
    engine: RoundEngine | None = None,
) -> MixChain:
    """Convenience constructor wiring up a chain from key pairs.

    ``noise_builder_factory`` maps a server index to that server's noise
    builder (or ``None`` for servers that add no noise, e.g. the last server
    in the conversation protocol).  ``engine`` — one
    :class:`~repro.runtime.RoundEngine` shared by every server — selects how
    the chain executes its batch crypto (serial by default).
    """
    rng = rng or default_random()
    public_keys = [kp.public for kp in server_keypairs]
    servers = []
    for index, keypair in enumerate(server_keypairs):
        noise_builder = noise_builder_factory(index) if noise_builder_factory else None
        servers.append(
            MixServer(
                index=index,
                keypair=keypair,
                chain_public_keys=public_keys,
                rng=rng.fork(f"server-{index}") if hasattr(rng, "fork") else rng,
                noise_builder=noise_builder,
                engine=engine,
            )
        )
    return MixChain(servers=servers, processor=processor, engine=engine)
