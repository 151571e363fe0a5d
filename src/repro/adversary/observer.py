"""The global passive adversary: what it can observe, and nothing more.

Vuvuzela's analysis (§6.1) reduces everything a global adversary — one that
watches all network links and controls all but one server — can learn per
conversation round to three variables:

* the set of clients connected to the system,
* ``m1``: the number of dead drops accessed once, and
* ``m2``: the number of dead drops accessed twice,

plus, for dialing rounds, the per-bucket invitation counts.  The
:class:`GlobalObserver` collects exactly these from a running
:class:`~repro.core.system.VuvuzelaSystem` (network taps for the connection
set, the compromised last server's stores for the counts).  Attack code never
reaches into protocol internals — it sees only what this observer exposes,
which keeps the attack experiments honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.system import VuvuzelaSystem
from ..net import MessageKind, Observation


@dataclass(frozen=True)
class ConversationRoundObservation:
    """The adversary's complete view of one conversation round."""

    round_number: int
    connected_clients: frozenset[str]
    dead_drops_accessed_once: int
    dead_drops_accessed_twice: int

    @property
    def m1(self) -> int:
        return self.dead_drops_accessed_once

    @property
    def m2(self) -> int:
        return self.dead_drops_accessed_twice


@dataclass(frozen=True)
class DialingRoundObservation:
    """The adversary's complete view of one dialing round."""

    round_number: int
    connected_clients: frozenset[str]
    bucket_sizes: dict[int, int]


@dataclass
class GlobalObserver:
    """Collects the observable variables from a running system.

    ``last_server_compromised`` models whether the adversary can read the
    dead-drop access counts at all: with an honest last server (and encrypted,
    fixed-size traffic everywhere) the adversary sees only who is connected.
    """

    system: VuvuzelaSystem
    last_server_compromised: bool = True
    #: Models a compromised entry server (§2, the untrusted entry): beyond
    #: the connection set, the entry sees *per-client request counts* for
    #: every round — metadata, never plaintexts, since requests are onion-
    #: encrypted to the chain.  Everything content-related stays protected
    #: by the chain's noise; this flag only unlocks the load view.
    entry_compromised: bool = False
    _clients_seen: dict[tuple[MessageKind, int], set[str]] = field(default_factory=dict)
    _request_counts: dict[tuple[MessageKind, int], dict[str, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.system.network.add_observer(self._on_traffic)

    def _on_traffic(self, observation: Observation) -> None:
        if observation.kind not in (
            MessageKind.CONVERSATION_REQUEST,
            MessageKind.DIALING_REQUEST,
        ):
            return
        if observation.destination != self.system.entry.name:
            return
        key = (observation.kind, observation.round_number)
        self._clients_seen.setdefault(key, set()).add(observation.source)
        if self.entry_compromised:
            counts = self._request_counts.setdefault(key, {})
            counts[observation.source] = counts.get(observation.source, 0) + 1

    # ------------------------------------------------------------- observations

    def connected_clients(self, kind: MessageKind, round_number: int) -> frozenset[str]:
        return frozenset(self._clients_seen.get((kind, round_number), set()))

    def entry_view(self, kind: MessageKind, round_number: int) -> dict[str, int]:
        """Per-client request counts for one round — the compromised entry's
        complete extra knowledge.  Empty unless ``entry_compromised``."""
        if not self.entry_compromised:
            return {}
        return dict(self._request_counts.get((kind, round_number), {}))

    def observe_conversation_round(self, round_number: int) -> ConversationRoundObservation:
        connected = self.connected_clients(MessageKind.CONVERSATION_REQUEST, round_number)
        if not self.last_server_compromised:
            return ConversationRoundObservation(
                round_number=round_number,
                connected_clients=connected,
                dead_drops_accessed_once=0,
                dead_drops_accessed_twice=0,
            )
        histogram = self.system.access_histogram(round_number)
        return ConversationRoundObservation(
            round_number=round_number,
            connected_clients=connected,
            dead_drops_accessed_once=histogram["singles"],
            dead_drops_accessed_twice=histogram["pairs"],
        )

    def observe_dialing_round(self, round_number: int) -> DialingRoundObservation:
        connected = self.connected_clients(MessageKind.DIALING_REQUEST, round_number)
        bucket_sizes = (
            self.system.invitation_store(round_number).bucket_sizes()
            if self.last_server_compromised
            else {}
        )
        return DialingRoundObservation(
            round_number=round_number,
            connected_clients=connected,
            bucket_sizes=dict(bucket_sizes),
        )
