"""Server side of the dialing protocol (§5.2–§5.3).

The last server collects the round's dialing requests into invitation dead
drops and — unlike the conversation protocol — *every* server adds noise
invitations to *every* dead drop, because the adversary can observe a
bucket's size directly by downloading it.

Two pieces live here:

* :class:`DialingProcessor` — the last-server bucket collection, including
  the last server's own noise contribution, and the per-round store clients
  download from.
* :func:`dialing_noise_builder` — the noise generator run by every *earlier*
  server: for each bucket it emits a Laplace-distributed number of fake
  invitations, wrapped and mixed exactly like real dialing requests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import struct

from .invitation import INVITATION_SIZE, split_dialing_requests
from ..crypto.rng import RandomSource
from ..deaddrop import InvitationDropStore
from ..errors import ProtocolError
from ..mixnet.chain import NoiseBuilder
from ..mixnet.noise import DialingNoiseSpec


@dataclass
class DialingProcessor:
    """Last-server processing of dialing rounds."""

    num_buckets: int
    noise_spec: DialingNoiseSpec | None = None
    rng: RandomSource | None = None
    strict: bool = False
    stores: dict[int, InvitationDropStore] = field(default_factory=dict)
    #: Stores older than this many rounds behind the newest are dropped —
    #: continuous operation must not accumulate every round's invitations.
    #: ``None`` keeps everything (analysis runs).
    keep_rounds: int | None = 512
    #: Attempt number announced by the chain endpoint before each round's
    #: payloads arrive (:meth:`begin_attempt`); consumed by ``__call__``.
    _attempts: dict[int, int] = field(default_factory=dict)

    def begin_attempt(self, round_number: int, attempt: int) -> None:
        """Record which §6 attempt of ``round_number`` is about to arrive.

        The last server's own noise is drawn from a per-``(round, attempt)``
        fork of its rng, exactly like every mixing server's draws, so a
        retried or crash-recovered round deposits the same noise invitations
        it would have on an undisturbed run.
        """
        self._attempts[round_number] = attempt

    def __call__(self, round_number: int, payloads: list[bytes]) -> list[bytes]:
        """Collect the round's invitations; every request is acknowledged.

        The response to a dialing request is always the same empty
        acknowledgement — invitations are *downloaded* out of band (from a
        CDN in the paper's design, from :meth:`store_for_round` here), so the
        response carries no information.

        The round is consumed in bulk: one grouping pass splits every
        payload by bucket (:func:`split_dialing_requests`, no per-payload
        decode object or try/except), one deposit per bucket lands the
        groups, and the last server's own noise is drawn as one count pass
        plus one ``random_bytes`` call sliced per invitation.
        """
        store = InvitationDropStore(num_buckets=self.num_buckets)
        grouped, _ = split_dialing_requests(payloads, self.num_buckets, strict=self.strict)
        for bucket, invitations in grouped.items():
            store.deposit_many(bucket, invitations)

        # §5.3: the last server, too, must add noise to every bucket, because
        # it may be the only honest server and bucket sizes are public.
        attempt = self._attempts.pop(round_number, 1)
        if self.noise_spec is not None and self.rng is not None:
            rng = self.rng
            if hasattr(rng, "fork"):
                rng = rng.fork(f"round-{round_number}/attempt-{attempt}")
            counts = [self.noise_spec.sample_for_bucket(rng) for _ in range(self.num_buckets)]
            blob = rng.random_bytes(sum(counts) * INVITATION_SIZE)
            offset = 0
            for bucket, how_many in enumerate(counts):
                store.deposit_many(
                    bucket,
                    [
                        blob[offset + i * INVITATION_SIZE : offset + (i + 1) * INVITATION_SIZE]
                        for i in range(how_many)
                    ],
                    is_noise=True,
                )
                offset += how_many * INVITATION_SIZE

        store.close()
        self.stores[round_number] = store
        if self.keep_rounds is not None:
            horizon = round_number - self.keep_rounds
            for old in [r for r in self.stores if r < horizon]:
                del self.stores[old]
        return [b"" for _ in payloads]

    def store_for_round(self, round_number: int) -> InvitationDropStore:
        """The closed invitation store of a finished round (what clients download)."""
        if round_number not in self.stores:
            raise ProtocolError(f"dialing round {round_number} has not been processed")
        return self.stores[round_number]

    def bucket_sizes(self, round_number: int) -> dict[int, int]:
        """Observable invitation counts per bucket — what the adversary sees."""
        return self.store_for_round(round_number).bucket_sizes()


def dialing_noise_builder(spec: DialingNoiseSpec, num_buckets: int) -> NoiseBuilder:
    """Noise builder for a mixing (non-last) server in a dialing round.

    For every invitation dead drop, the server adds a truncated-Laplace number
    of fake invitations — random bytes of the right size, indistinguishable
    from real sealed invitations.

    Built vectorized: all bucket counts are sampled in one pass, the fake
    invitations come from a single ``random_bytes`` draw sliced per
    invitation, and the wire header is packed once per bucket — the
    per-invitation :class:`DialingRequest` construction (and its field
    validation, vacuous for generated noise) is skipped entirely.
    """
    if num_buckets <= 0:
        raise ProtocolError("a dialing round needs at least one invitation dead drop")

    def build(round_number: int, rng: RandomSource) -> list[bytes]:
        counts = [spec.sample_for_bucket(rng) for _ in range(num_buckets)]
        blob = rng.random_bytes(sum(counts) * INVITATION_SIZE)
        requests: list[bytes] = []
        offset = 0
        for bucket, how_many in enumerate(counts):
            header = struct.pack(">I", bucket)
            for _ in range(how_many):
                requests.append(header + blob[offset : offset + INVITATION_SIZE])
                offset += INVITATION_SIZE
        return requests

    return build
