"""Protocol-agnostic round pipeline: what makes a round *conversation* or
*dialing* lives here, and nowhere else.

Historically the two Vuvuzela protocols were driven through disjoint code
paths: the coordinator, entry server and client connection knew conversation
envelopes well, while dialing rounds were hand-sequenced inline by
:class:`~repro.core.system.VuvuzelaSystem`.  This module extracts the four
per-protocol concerns into one :class:`RoundProtocol` interface —

* **noise** — which cover-traffic builder each mixing server runs, and which
  last-server processor terminates the chain (§8.2 conversation noise, §5.3
  dialing noise);
* **client wires** — how a round's clients build their fixed-size requests
  (all of them as one op on the driver's engine) and consume the responses
  (Algorithm 1 / §5.2);
* **round finish** — what happens after the chain resolves (conversation:
  nothing; dialing: every client downloads its invitation dead drop);
* **metrics shape** — which :class:`~repro.core.metrics.RoundMetrics`
  subclass the round reports.

— so that :class:`~repro.runtime.coordinator.RoundCoordinator`,
:class:`~repro.runtime.scheduler.RoundScheduler`, the entry server and the
client connection treat both :class:`~repro.net.MessageKind`\\ s through one
pipeline: submission windows, LATE stragglers, abort/retry refunds and fault
injection behave identically for a dialing round and a conversation round,
in-process and over TCP.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ClassVar, Mapping, Sequence

from ..conversation import ConversationProcessor, conversation_noise_builder
from ..deaddrop import AccessHistogram
from ..dialing import DialingProcessor, dialing_noise_builder
from ..errors import ProtocolError
from ..mixnet import CoverTrafficSpec, DialingNoiseSpec
from ..net import MessageKind

if TYPE_CHECKING:  # pragma: no cover - import cycles are broken at runtime
    from ..client.client import VuvuzelaClient
    from ..core.config import VuvuzelaConfig
    from ..core.metrics import RoundMetrics
    from ..crypto.rng import RandomSource
    from ..mixnet.chain import NoiseBuilder, RoundProcessor
    from .window import RoundResult
    from .engine import RoundEngine


@dataclass
class RoundProtocol(ABC):
    """One protocol's contribution to the shared round pipeline.

    The class-level attributes are the protocol's identity on the wire; an
    instance holds no deployment state, so a client connection and a driver
    use the same plug-in.
    """

    name: ClassVar[str]
    kind: ClassVar[MessageKind]
    response_kind: ClassVar[MessageKind]
    #: Whether the synchronous system pushes each response back to its client
    #: over the network (conversation) or hands it over directly (dialing,
    #: whose responses are contentless acknowledgements).
    push_responses: ClassVar[bool] = False
    #: Whether the round ends with the out-of-band invitation download.
    polls_invitations: ClassVar[bool] = False

    # ------------------------------------------------------------ client side

    def requests_per_client(self, client: "VuvuzelaClient") -> int:
        """How many wires :meth:`build_wires` will produce for this client."""
        return 1

    @abstractmethod
    def build_wires(
        self,
        clients: Sequence["VuvuzelaClient"],
        round_number: int,
        engine: "RoundEngine | None" = None,
    ) -> list[list[bytes]]:
        """Build every client's fixed-size batch of requests for one round,
        one list per client: each client's draws in client order, then one
        op on ``engine`` (the one-worker default engine when not given)."""

    @abstractmethod
    def handle_responses(
        self, client: "VuvuzelaClient", round_number: int, responses: list[bytes | None]
    ) -> Any:
        """Feed one round's responses (aligned with the wires) to the client."""

    # ------------------------------------------------------------ server side

    def server_rng_label(self, index: int) -> str:
        """The topology fork label of chain server ``index``'s rng stream."""
        return f"{self.name}-server-{index}"

    @abstractmethod
    def noise_builder(self, config: "VuvuzelaConfig") -> "NoiseBuilder | None":
        """The cover-traffic builder a *mixing* (non-last) server runs."""

    @abstractmethod
    def build_processor(
        self, config: "VuvuzelaConfig", root: "RandomSource"
    ) -> "RoundProcessor":
        """The last server's round processor, rng forked off ``root``."""

    # ------------------------------------------------------------- accounting

    def before_round(self, clients: Mapping[str, "VuvuzelaClient"]) -> dict:
        """Pre-round observables that the builds will consume (e.g. how many
        clients are dialing someone — the dialing build clears it)."""
        return {}

    @abstractmethod
    def collect_metrics(
        self,
        round_number: int,
        result: "RoundResult",
        noise: int,
        observed: Any,
        *,
        client_requests: int,
        delivered: int,
        lost: int,
        extra: dict,
        bytes_moved: int,
        wall_clock_seconds: float,
    ) -> "RoundMetrics":
        """Shape one resolved round's accounting for this protocol.

        ``noise`` is the cover traffic the chain added and ``observed`` the
        last server's view of the round (the access histogram as a dict, or
        the invitation store), both read once by the driver."""


@dataclass
class ConversationProtocol(RoundProtocol):
    """The §3/§4 conversation protocol as a pipeline plug-in."""

    name: ClassVar[str] = "conversation"
    kind: ClassVar[MessageKind] = MessageKind.CONVERSATION_REQUEST
    response_kind: ClassVar[MessageKind] = MessageKind.CONVERSATION_RESPONSE
    push_responses: ClassVar[bool] = True

    def requests_per_client(self, client: "VuvuzelaClient") -> int:
        return client.max_conversations

    def build_wires(
        self,
        clients: Sequence["VuvuzelaClient"],
        round_number: int,
        engine: "RoundEngine | None" = None,
    ) -> list[list[bytes]]:
        from ..client.client import build_conversation_round

        return build_conversation_round(clients, round_number, engine)

    def handle_responses(
        self, client: "VuvuzelaClient", round_number: int, responses: list[bytes | None]
    ) -> Any:
        return client.handle_conversation_responses(round_number, responses)

    def noise_builder(self, config: "VuvuzelaConfig") -> "NoiseBuilder | None":
        spec = CoverTrafficSpec(config.conversation_noise, exact=config.exact_noise)
        return conversation_noise_builder(spec)

    def build_processor(
        self, config: "VuvuzelaConfig", root: "RandomSource"
    ) -> "RoundProcessor":
        return ConversationProcessor()

    def collect_metrics(
        self,
        round_number: int,
        result: "RoundResult",
        noise: int,
        observed: Any,
        *,
        client_requests: int,
        delivered: int,
        lost: int,
        extra: dict,
        bytes_moved: int,
        wall_clock_seconds: float,
    ) -> "RoundMetrics":
        from ..core.metrics import ConversationRoundMetrics

        return ConversationRoundMetrics(
            round_number=round_number,
            client_requests=client_requests,
            delivered_responses=delivered,
            lost_requests=lost,
            noise_requests=noise,
            refused_requests=result.refused,
            late_requests=result.late,
            attempts=result.attempts,
            aborted_attempts=result.attempts - 1,
            histogram=AccessHistogram(**observed),
            bytes_moved=bytes_moved,
            wall_clock_seconds=wall_clock_seconds,
        )


@dataclass
class DialingProtocol(RoundProtocol):
    """The §5 dialing protocol as a pipeline plug-in."""

    name: ClassVar[str] = "dialing"
    kind: ClassVar[MessageKind] = MessageKind.DIALING_REQUEST
    response_kind: ClassVar[MessageKind] = MessageKind.DIALING_RESPONSE
    polls_invitations: ClassVar[bool] = True

    #: Invitation dead drops per round (``config.num_dialing_buckets``).
    num_buckets: int = 1

    def build_wires(
        self,
        clients: Sequence["VuvuzelaClient"],
        round_number: int,
        engine: "RoundEngine | None" = None,
    ) -> list[list[bytes]]:
        from ..client.client import build_dialing_round

        return [
            [wire] for wire in build_dialing_round(clients, round_number, self.num_buckets, engine)
        ]

    def handle_responses(
        self, client: "VuvuzelaClient", round_number: int, responses: list[bytes | None]
    ) -> Any:
        return client.handle_dialing_response(
            round_number, responses[0] if responses else None
        )

    def noise_builder(self, config: "VuvuzelaConfig") -> "NoiseBuilder | None":
        spec = DialingNoiseSpec(config.dialing_noise, exact=config.exact_noise)
        return dialing_noise_builder(spec, config.num_dialing_buckets)

    def build_processor(
        self, config: "VuvuzelaConfig", root: "RandomSource"
    ) -> "RoundProcessor":
        return DialingProcessor(
            num_buckets=config.num_dialing_buckets,
            noise_spec=DialingNoiseSpec(config.dialing_noise, exact=config.exact_noise),
            rng=root.fork("dialing-last-server-noise"),
        )

    def before_round(self, clients: Mapping[str, "VuvuzelaClient"]) -> dict:
        return {
            "real_invitations": sum(
                1 for client in clients.values() if client.dial_target is not None
            )
        }

    def collect_metrics(
        self,
        round_number: int,
        result: "RoundResult",
        noise: int,
        observed: Any,
        *,
        client_requests: int,
        delivered: int,
        lost: int,
        extra: dict,
        bytes_moved: int,
        wall_clock_seconds: float,
    ) -> "RoundMetrics":
        from ..core.metrics import DialingRoundMetrics

        store_noise = sum(observed.noise_count(bucket) for bucket in range(observed.num_buckets))
        return DialingRoundMetrics(
            round_number=round_number,
            client_requests=client_requests,
            real_invitations=int(extra.get("real_invitations", 0)),
            noise_invitations=noise + store_noise,
            refused_requests=result.refused,
            late_requests=result.late,
            attempts=result.attempts,
            aborted_attempts=result.attempts - 1,
            bucket_sizes=observed.bucket_sizes(),
            bytes_moved=bytes_moved,
            wall_clock_seconds=wall_clock_seconds,
        )


#: The pipeline's protocol classes, in chain-endpoint order.
PROTOCOL_CLASSES: tuple[type[RoundProtocol], ...] = (ConversationProtocol, DialingProtocol)

#: Protocol name -> submission :class:`MessageKind` (the control-plane view).
PROTOCOL_KINDS: dict[str, MessageKind] = {p.name: p.kind for p in PROTOCOL_CLASSES}


def make_protocol(name: str, config: "VuvuzelaConfig | None" = None) -> RoundProtocol:
    """One *unbound* (client-side) protocol instance by name."""
    if name == ConversationProtocol.name:
        return ConversationProtocol()
    if name == DialingProtocol.name:
        num_buckets = config.num_dialing_buckets if config is not None else 1
        return DialingProtocol(num_buckets=num_buckets)
    raise ProtocolError(f"unknown protocol {name!r}")


def build_protocols(config: "VuvuzelaConfig | None" = None) -> dict[str, RoundProtocol]:
    """Fresh unbound protocol instances for every protocol, keyed by name."""
    return {p.name: make_protocol(p.name, config) for p in PROTOCOL_CLASSES}
