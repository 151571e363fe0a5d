"""Server side of the conversation protocol (Algorithm 2, steps 2 and 3b).

Two pieces live here:

* :class:`ConversationProcessor` — the last server's dead-drop matching.  It
  receives the fully peeled exchange requests of a round (real ones and the
  noise added by earlier servers, already indistinguishable), matches up the
  accesses per dead drop, swaps payloads, and records the access histogram —
  the observable variable the adversary model reads when the last server is
  compromised.
* :func:`conversation_noise_builder` — the cover-traffic generator run by
  every server except the last: ``n1`` fake single accesses plus ``n2/2``
  fake pairs, with counts drawn from the truncated Laplace distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import messages
from ..crypto import DEAD_DROP_ID_SIZE, random_dead_drop
from ..crypto.rng import RandomSource
from ..deaddrop import AccessHistogram, DeadDropStore
from ..errors import ProtocolError
from ..mixnet.chain import NoiseBuilder
from ..mixnet.noise import CoverTrafficSpec


@dataclass
class ConversationProcessor:
    """Last-server processing of conversation rounds (Algorithm 2, step 3b)."""

    strict: bool = False
    histograms: dict[int, AccessHistogram] = field(default_factory=dict)
    last_round_processed: int | None = None
    #: Histograms older than this many rounds behind the newest are dropped —
    #: a server running the continuous scheduler must not grow per-round
    #: state forever.  ``None`` keeps everything (analysis runs).
    keep_rounds: int | None = 512

    def __call__(self, round_number: int, payloads: list[bytes]) -> list[bytes]:
        """Match dead drops and return one fixed-size response per request.

        Malformed payloads (wrong size) receive the filler box; with
        ``strict`` set they raise instead, which is useful in tests.

        The batch is consumed in a single zero-copy pass: each payload is
        length-checked and split into its dead-drop ID and message box by
        ``memoryview`` slicing, with no per-request decode object.
        """
        store = DeadDropStore(empty_payload=messages.EMPTY_MESSAGE_BOX)
        positions: list[int | None] = []
        deposit = store.deposit
        id_size = DEAD_DROP_ID_SIZE
        expected_size = messages.EXCHANGE_REQUEST_SIZE
        for payload in payloads:
            if len(payload) != expected_size:
                if self.strict:
                    raise ProtocolError(
                        f"exchange requests must be {expected_size} bytes,"
                        f" got {len(payload)}"
                    )
                positions.append(None)
                continue
            view = payload if isinstance(payload, memoryview) else memoryview(payload)
            positions.append(deposit(bytes(view[:id_size]), view[id_size:]))

        result = store.exchange_all()
        responses = [
            messages.EMPTY_MESSAGE_BOX if position is None else result.responses[position]
            for position in positions
        ]
        self.histograms[round_number] = result.histogram
        self.last_round_processed = round_number
        if self.keep_rounds is not None:
            horizon = round_number - self.keep_rounds
            for old in [r for r in self.histograms if r < horizon]:
                del self.histograms[old]
        return responses

    def histogram(self, round_number: int) -> AccessHistogram:
        """The observable (m1, m2) counts of a processed round."""
        return self.histograms[round_number]


def build_noise_request(rng: RandomSource, dead_drop_id: bytes | None = None) -> bytes:
    """One fake exchange request: a random dead drop and a random message box.

    Noise requests are generated without any key material — a random 256-byte
    string is computationally indistinguishable from a real AEAD box to
    anyone except the (nonexistent) holder of its key.
    """
    drop = dead_drop_id if dead_drop_id is not None else random_dead_drop(rng.random_bytes(16))
    box = rng.random_bytes(messages.MESSAGE_BOX_SIZE)
    return messages.ExchangeRequest(dead_drop_id=drop, message_box=box).encode()


def conversation_noise_builder(spec: CoverTrafficSpec) -> NoiseBuilder:
    """Make the noise builder one mixing server runs each round (step 2).

    The requests come singles first, then each pair's two requests side by
    side.  The round's randomness is drawn in **one** ``random_bytes`` call and
    sliced per request instead of paying two rng calls per noise message —
    at the paper's operating point that is ~600k requests per server per
    round.  Both rng flavours are byte streams (``DeterministicRandom``
    hands out consecutive bytes regardless of call boundaries), so the bulk
    draw yields requests byte-identical to the per-request loop.
    """
    id_size = DEAD_DROP_ID_SIZE
    box_size = messages.MESSAGE_BOX_SIZE
    single_span = id_size + box_size
    pair_span = id_size + 2 * box_size

    def build(round_number: int, rng: RandomSource) -> list[bytes]:
        counts = spec.sample(rng)
        blob = rng.random_bytes(counts.singles * single_span + counts.pairs * pair_span)
        requests: list[bytes] = []
        offset = 0
        for _ in range(counts.singles):
            requests.append(blob[offset : offset + single_span])
            offset += single_span
        for _ in range(counts.pairs):
            drop = blob[offset : offset + id_size]
            first_box = offset + id_size
            second_box = first_box + box_size
            requests.append(blob[offset : offset + single_span])
            requests.append(drop + blob[second_box : second_box + box_size])
            offset += pair_span
        return requests

    return build
