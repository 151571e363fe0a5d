"""Client side of the conversation protocol (Algorithm 1), one routine.

Each round, every conversation slot of every client performs exactly one
exchange:

* a slot in an active conversation names the round's dead drop from the
  pair's shared secret, encrypts the queued message (or the empty message)
  and onion-wraps the exchange request for the server chain (steps 1a, 2);
* an idle slot does the same against a freshly drawn fake peer, producing a
  *fake request* indistinguishable from a real one (step 1b).

:class:`ConversationRows` is the state of any number of such slots, one row
each: a :class:`~repro.client.VuvuzelaClient` holds one over its
``max_conversations`` slots, and the
:class:`~repro.simulation.ClientSwarm` one over its whole population.  A
build is two steps: :meth:`~ConversationRows.draw` makes every rng draw row
by row, and the pure rest (:func:`build_exchange_batch`) runs as one
:meth:`~repro.runtime.engine.RoundEngine.wrap_client_chunks` op, whose
contexts :meth:`~ConversationRows.built` hands back.  :func:`build_rows`
runs that op once over many holders' draws — how a driver builds every
client of a per-client round — and :meth:`~ConversationRows.build` over
one.  :meth:`~ConversationRows.decode` opens a round's responses in one
batched pass (step 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any, Sequence

from . import messages
from ..crypto import (
    KEY_SIZE,
    KeyPair,
    OnionContext,
    PrivateKey,
    PublicKey,
    open_box_batch,
    pad,
    seal_batch,
    unpad,
    unwrap_response_batch,
    wrap_request_batch,
)
from ..crypto.deaddrop_id import dead_drop_for_round, dead_drop_prf_key
from ..crypto.rng import RandomSource
from ..errors import PaddingError, ProtocolError

if TYPE_CHECKING:
    from ..runtime.engine import RoundEngine

#: A conversation's round-independent keys for one endpoint: its send key,
#: its receive key and the pair's dead-drop PRF key.
PairKeys = tuple[bytes, bytes, bytes]


def pair_keys(secret: bytes, own_public: bytes, peer_public: bytes) -> PairKeys:
    """``own_public``'s keys for the conversation whose shared secret is
    ``secret``.  The partner's are the same with send and receive swapped."""
    send, receive = messages.directional_keys(secret, own_public, peer_public)
    return send, receive, dead_drop_prf_key(secret)


@dataclass
class ConversationSession:
    """The client's view of one conversation with a fixed partner.

    Both endpoints construct this from their own key pair and the partner's
    public key; the derived state is identical on both sides.  The secret
    and the keys are fixed with the partner: computed once, on first use.
    """

    own_keys: KeyPair
    peer_public_key: PublicKey

    @cached_property
    def _secret(self) -> bytes:
        return self.own_keys.exchange(self.peer_public_key)

    @cached_property
    def keys(self) -> PairKeys:
        return pair_keys(self._secret, bytes(self.own_keys.public), bytes(self.peer_public_key))

    def shared_secret(self) -> bytes:
        """The long-lived pairwise secret both endpoints derive (step 1a)."""
        return self._secret

    def dead_drop_for_round(self, round_number: int) -> bytes:
        return dead_drop_for_round(self.keys[2], round_number)

    def directional_keys(self) -> tuple[bytes, bytes]:
        """The (send, receive) message keys for this endpoint."""
        return self.keys[0], self.keys[1]


class ConversationRows:
    """Columnar state of conversation slots, one exchange per row per round.

    The holder fills two columns before a build: ``keys[i]`` is row ``i``'s
    :data:`PairKeys`, ``None`` for an idle row, and ``owners[i]`` is what
    :meth:`decode` hands back with the row's plaintext (``None`` for an
    idle row).  ``rngs[i]`` is the stream row ``i`` draws from; rows of one
    client share one stream, and draw from it in row order.

    A round's rows are built in order, in one or more :meth:`build` (or
    :func:`build_rows`) calls, and decoded once.  Building a round drops
    whatever an earlier round left pending: its responses can never be
    handled any more.
    """

    def __init__(self, server_public_keys: Sequence[PublicKey], rngs: Sequence[RandomSource]):
        self.server_public_keys = list(server_public_keys)
        self.rngs = list(rngs)
        self.keys: list[PairKeys | None] = [None] * len(self.rngs)
        self.owners: list[Any] = [None] * len(self.rngs)
        #: Per built round: its rows' onion contexts, receive keys and owners.
        self.pending: dict[int, tuple[list[OnionContext], list[bytes | None], list[Any]]] = {}

    def build(
        self,
        round_number: int,
        plaintexts: Sequence[bytes],
        engine: RoundEngine | None = None,
        *,
        start: int = 0,
    ) -> list[bytes]:
        """Wires for rows ``start`` onwards, one per plaintext (an idle row's
        is ignored).  ``engine`` runs the crypto; without one it runs inline.
        A one-set :func:`build_rows`."""
        return build_rows(round_number, [(self, plaintexts, start)], engine)[0]

    def draw(self, round_number: int, plaintexts: Sequence[bytes], start: int = 0) -> list[list]:
        """The first step of a build: every rng draw for rows ``start``
        onwards, as :func:`build_exchange_batch`'s columns — fake exchanges,
        send keys, dead drops, plaintexts, then the onion scalars layer by
        layer.  :meth:`built` hands the wrap's contexts back.

        The draws, row by row: an idle row's fake peer scalar, then its own
        (step 1b); then every row's onion scalars, innermost layer first.
        """
        if start == 0:
            if round_number in self.pending:
                raise ProtocolError(f"round {round_number}'s requests were already built")
            for stale in [r for r in self.pending if r < round_number]:
                del self.pending[stale]
            self.pending[round_number] = ([], [], [])
        pending = self.pending.get(round_number)
        if pending is None or len(pending[1]) != start:
            raise ProtocolError(f"round {round_number}'s rows must be built in order")
        _, receive_keys, owners = pending
        count, depth = len(plaintexts), len(self.server_public_keys)
        stop = start + count
        fakes: list[bytes | None] = [None] * count
        send_keys: list[bytes | None] = [None] * count
        dead_drops: list[bytes | None] = [None] * count
        texts: list[bytes] = [b""] * count
        scalars: list[list[bytes]] = [[b""] * count for _ in range(depth)]
        for position, keys in enumerate(self.keys[start:stop]):
            rng = self.rngs[start + position]
            if keys is None:
                fakes[position] = rng.random_bytes(KEY_SIZE) + rng.random_bytes(KEY_SIZE)
            else:
                send_keys[position] = keys[0]
                dead_drops[position] = dead_drop_for_round(keys[2], round_number)
                texts[position] = plaintexts[position]
            for layer in range(depth - 1, -1, -1):
                scalars[layer][position] = rng.random_bytes(KEY_SIZE)
        receive_keys.extend(None if keys is None else keys[1] for keys in self.keys[start:stop])
        owners.extend(self.owners[start:stop])
        return [fakes, send_keys, dead_drops, texts, *scalars]

    def built(self, round_number: int, contexts: Sequence[OnionContext]) -> None:
        """The second step of a build: the onion contexts of the rows the
        last :meth:`draw` of ``round_number`` drew, which :meth:`decode`
        opens the responses with."""
        self.pending[round_number][0].extend(contexts)

    def decode(
        self, round_number: int, responses: Sequence[bytes | None]
    ) -> list[tuple[Any, bytes | None]]:
        """Each built row's ``(owner, plaintext)`` for one round's responses.

        The plaintext is ``None`` when the row was idle, its response is
        ``None`` (lost) or fails to open, or its partner took no part.
        """
        pending = self.pending.pop(round_number, None)
        if pending is None:
            raise ProtocolError(f"no pending requests for round {round_number}")
        contexts, receive_keys, owners = pending
        if len(responses) != len(contexts):
            raise ProtocolError(f"expected {len(contexts)} responses, got {len(responses)}")
        inners = unwrap_response_batch(responses, contexts)
        rows = [
            row
            for row, (key, inner) in enumerate(zip(receive_keys, inners))
            if key is not None and inner is not None and len(inner) == messages.MESSAGE_BOX_SIZE
        ]
        opened = open_box_batch(
            [receive_keys[row] for row in rows],
            messages.message_nonce(round_number),
            [inners[row] for row in rows],
        )
        plaintexts: list[bytes | None] = [None] * len(contexts)
        for row, padded in zip(rows, opened):
            if padded is not None:
                try:
                    plaintexts[row] = unpad(padded, messages.MAX_MESSAGE_SIZE)
                except PaddingError:
                    pass
        return list(zip(owners, plaintexts))


def build_rows(
    round_number: int,
    builds: Sequence[tuple[ConversationRows, Sequence[bytes], int]],
    engine: RoundEngine | None = None,
) -> list[list[bytes]]:
    """Several row sets' builds for one round, as one engine op.

    ``builds`` holds one ``(rows, plaintexts, start)`` per set, the
    arguments :meth:`ConversationRows.build` takes.  Each set makes its
    draws (:meth:`ConversationRows.draw`) from its own streams, in set
    order; then one :meth:`~repro.runtime.engine.RoundEngine.wrap_client_chunks`
    runs the pure build of every row, and each set gets back its contexts
    and its wires — byte-identical to building each set alone.  Every set
    must share one server chain.  ``engine`` defaults to the one-worker
    :func:`~repro.runtime.engine.default_engine`.
    """
    if not builds:
        return []
    server_public_keys = builds[0][0].server_public_keys
    if any(rows.server_public_keys != server_public_keys for rows, _, _ in builds):
        raise ProtocolError("rows built in one op must share one server chain")
    columns: list[list] = []
    for rows, plaintexts, start in builds:
        drawn = rows.draw(round_number, plaintexts, start)
        if columns:
            for column, more in zip(columns, drawn):
                column.extend(more)
        else:
            columns = drawn
    if engine is None:
        from ..runtime.engine import default_engine  # the engine imports this module

        engine = default_engine()
    wires, contexts = engine.wrap_client_chunks(columns, server_public_keys, round_number)
    built: list[list[bytes]] = []
    offset = 0
    for rows, plaintexts, _ in builds:
        stop = offset + len(plaintexts)
        rows.built(round_number, contexts[offset:stop])
        built.append(wires[offset:stop])
        offset = stop
    return built


def build_exchange_batch(
    round_number: int,
    server_public_keys: Sequence[PublicKey],
    fakes: Sequence[bytes | None],
    send_keys: Sequence[bytes | None],
    dead_drops: Sequence[bytes | None],
    plaintexts: Sequence[bytes],
    scalars: Sequence[Sequence[bytes]],
) -> tuple[list[bytes], list[OnionContext]]:
    """Many rows' exchange requests for one round, from pre-drawn bytes.

    Position ``i`` is an idle row when ``fakes[i]`` holds its fake
    exchange's two scalars (the fake peer's, then its own; step 1b), whose
    shared secret names a throwaway message key and dead drop and whose
    plaintext is empty.  Otherwise ``send_keys[i]`` and ``dead_drops[i]``
    are its conversation's send key and this round's dead drop (step 1a).
    ``scalars`` are the onion wrap's ephemeral scalars, laid out as
    :func:`~repro.crypto.onion.draw_request_scalars` draws them.

    Nothing here draws randomness, so the round engine may run any slice of
    a batch anywhere and the wires stay byte-identical.
    """
    keys = list(send_keys)
    drops = list(dead_drops)
    for position, fake in enumerate(fakes):
        if fake is not None:
            peer = PrivateKey(fake[:KEY_SIZE]).public_key()
            shared = PrivateKey(fake[KEY_SIZE:]).exchange(peer)
            keys[position] = messages.message_key(shared)
            drops[position] = messages.round_dead_drop(shared, round_number)
    padded = [pad(plaintext, messages.MAX_MESSAGE_SIZE) for plaintext in plaintexts]
    boxes = seal_batch(keys, messages.message_nonce(round_number), padded)
    inners = [drop + box for drop, box in zip(drops, boxes)]
    return wrap_request_batch(inners, server_public_keys, round_number, scalars=scalars)
