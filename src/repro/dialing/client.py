"""Client side of the dialing protocol (§5.1–§5.2, §5.5).

Each dialing round a client sends exactly one dialing request through the mix
chain — a real invitation if the user wants to start a conversation, a no-op
request otherwise — and then downloads its own invitation dead drop and tries
to decrypt every invitation in it to find the ones addressed to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .invitation import (
    INVITATION_SIZE,
    DialingRequest,
    build_dialing_request,
    open_invitations,
)
from ..crypto import (
    KeyPair,
    OnionContext,
    PublicKey,
    invitation_dead_drop,
    wrap_request,
)
from ..crypto.rng import RandomSource, default_random
from ..deaddrop import InvitationDropStore


@dataclass(frozen=True)
class PendingDial:
    """Client-side state for one in-flight dialing request."""

    round_number: int
    onion_context: OnionContext
    dialing: bool


def build_dial_request(
    round_number: int,
    server_public_keys: Sequence[PublicKey],
    own_keys: KeyPair,
    recipient_public: PublicKey | None,
    num_buckets: int,
    rng: RandomSource | None = None,
) -> tuple[bytes, PendingDial]:
    """Build the onion-wrapped dialing request for one dialing round."""
    rng = rng or default_random()
    request: DialingRequest = build_dialing_request(
        own_keys, recipient_public, round_number, num_buckets, rng
    )
    wire, onion_context = wrap_request(request.encode(), server_public_keys, round_number, rng)
    return wire, PendingDial(
        round_number=round_number,
        onion_context=onion_context,
        dialing=recipient_public is not None,
    )


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
