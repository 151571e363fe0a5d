"""Client side of the dialing protocol (§5.1–§5.2, §5.5).

Each dialing round a client sends exactly one dialing request through the mix
chain — a real invitation if the user wants to start a conversation, a no-op
request otherwise — and then downloads its own invitation dead drop and tries
to decrypt every invitation in it to find the ones addressed to it.

A request is built in two steps, like a conversation request: the client's
rng draws (:func:`draw_dial_request`), then the pure seal and onion wrap
(:func:`build_dial_batch`), which :func:`wrap_dial_requests` runs for any
number of clients as one round-engine op.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .invitation import (
    INVITATION_SIZE,
    DialingRequest,
    encode_bucket,
    open_invitations,
)
from ..crypto import KEY_SIZE, KeyPair, PublicKey, invitation_dead_drop, wrap_request_batch
from ..crypto.invitation import seal_drawn_invitation
from ..crypto.rng import RandomSource, default_random
from ..deaddrop import InvitationDropStore
from ..deaddrop.invitations import NOOP_BUCKET

if TYPE_CHECKING:
    from ..runtime.engine import RoundEngine


def draw_dial_request(
    depth: int,
    own_keys: KeyPair,
    recipient_public: PublicKey | None,
    num_buckets: int,
    rng: RandomSource,
) -> list[bytes | None]:
    """Every rng draw of one client's dialing request, as one row of
    :func:`build_dial_batch`'s columns.

    The draws: the no-op request's random invitation bytes (not dialing) or
    the invitation's ephemeral scalar (dialing); then the onion scalars,
    innermost layer first.  The row is the request's head (the whole no-op
    request, or the real one's dead-drop index), the ephemeral scalar, the
    recipient's and the sender's public keys (``None`` when not dialing),
    then one scalar per layer in chain order.
    """
    row: list[bytes | None]
    if recipient_public is None:
        noop = DialingRequest(NOOP_BUCKET, rng.random_bytes(INVITATION_SIZE))
        row = [noop.encode(), None, None, None]
    else:
        head = encode_bucket(invitation_dead_drop(recipient_public, num_buckets))
        ephemeral = rng.random_bytes(KEY_SIZE)
        row = [head, ephemeral, recipient_public.data, bytes(own_keys.public)]
    scalars: list[bytes] = [b""] * depth
    for layer in range(depth - 1, -1, -1):
        scalars[layer] = rng.random_bytes(KEY_SIZE)
    return row + scalars


def build_dial_batch(
    round_number: int,
    server_public_keys: Sequence[PublicKey],
    heads: Sequence[bytes],
    ephemerals: Sequence[bytes | None],
    recipients: Sequence[bytes | None],
    senders: Sequence[bytes | None],
    scalars: Sequence[Sequence[bytes]],
) -> list[bytes]:
    """Many clients' dialing requests for one round, from pre-drawn bytes:
    each dialer's invitation sealed to its recipient, then every request
    onion-wrapped.  Nothing here draws randomness, so the round engine may
    run any slice of a batch anywhere and the wires stay byte-identical."""
    payloads = dial_payloads(round_number, heads, ephemerals, recipients, senders)
    wires, _ = wrap_request_batch(payloads, server_public_keys, round_number, scalars=scalars)
    return wires


def dial_payloads(
    round_number: int,
    heads: Sequence[bytes],
    ephemerals: Sequence[bytes | None],
    recipients: Sequence[bytes | None],
    senders: Sequence[bytes | None],
) -> list[bytes]:
    """The dialing requests as the last server sees them, from the first
    four columns of :func:`draw_dial_request` rows: a no-op request as drawn,
    a real one as its dead-drop index followed by the invitation sealed to
    its recipient — :data:`~repro.dialing.invitation.DIALING_REQUEST_SIZE`
    bytes either way."""
    return [
        head
        if ephemeral is None
        else head + seal_drawn_invitation(ephemeral, sender, recipient, round_number)
        for head, ephemeral, recipient, sender in zip(heads, ephemerals, recipients, senders)
    ]


def wrap_dial_requests(
    round_number: int,
    server_public_keys: Sequence[PublicKey],
    rows: Sequence[Sequence[bytes | None]],
    engine: RoundEngine | None = None,
) -> list[bytes]:
    """The wires of many :func:`draw_dial_request` rows, as one
    :meth:`~repro.runtime.engine.RoundEngine.wrap_dial_chunks` op on
    ``engine`` (the one-worker default engine when not given)."""
    if not rows:
        return []
    if engine is None:
        from ..runtime.engine import default_engine  # the engine imports this module

        engine = default_engine()
    heads, ephemerals, recipients, senders, *scalars = (list(column) for column in zip(*rows))
    return engine.wrap_dial_chunks(
        round_number, server_public_keys, heads, ephemerals, recipients, senders, scalars
    )


def build_dial_request(
    round_number: int,
    server_public_keys: Sequence[PublicKey],
    own_keys: KeyPair,
    recipient_public: PublicKey | None,
    num_buckets: int,
    rng: RandomSource | None = None,
) -> bytes:
    """Build the onion-wrapped dialing request for one dialing round: a
    one-client :func:`wrap_dial_requests` on the default engine.  A dialing
    response is a contentless acknowledgement, so the build keeps no
    response keys."""
    row = draw_dial_request(
        len(server_public_keys), own_keys, recipient_public, num_buckets, rng or default_random()
    )
    (wire,) = wrap_dial_requests(round_number, server_public_keys, [row])
    return wire


def own_invitation_bucket(own_keys: KeyPair, num_buckets: int) -> int:
    """The invitation dead drop this user polls (``H(pk) mod m``)."""
    return invitation_dead_drop(own_keys.public, num_buckets)


def fetch_invitations(
    own_keys: KeyPair,
    store: InvitationDropStore,
    round_number: int,
    num_buckets: int | None = None,
) -> list[PublicKey]:
    """Download this user's dead drop and return the callers who dialed them.

    Tries to decrypt every invitation in the bucket (real invitations for
    other users and server noise simply fail to decrypt) and returns the
    public keys of everyone who dialed this user in the round.
    """
    buckets = num_buckets if num_buckets is not None else store.num_buckets
    bucket = own_invitation_bucket(own_keys, buckets)
    return open_invitations(own_keys.private, store.download(bucket), round_number)


def download_size_bytes(store: InvitationDropStore, own_keys: KeyPair) -> int:
    """Bytes this client downloads for its bucket in the round (§8.3)."""
    bucket = own_invitation_bucket(own_keys, store.num_buckets)
    return store.bucket_size(bucket) * INVITATION_SIZE
