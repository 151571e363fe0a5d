"""Transport abstraction and the in-process reference transport.

A :class:`Transport` moves opaque byte payloads between named endpoints and
accounts traffic per link; everything above it — the entry server, the chain
endpoints, the round coordinator, the clients — is transport-agnostic.  Two
implementations exist:

* :class:`Network` (this module) routes
  :class:`~repro.net.messages.Envelope` objects between registered endpoints
  synchronously, in one process.  It gives the adversary model a single place
  to observe all traffic and to interfere with it (block a client, drop
  traffic, ...), mirroring the paper's threat model of a global active network
  adversary (§2.3), and it accounts bytes per link so the simulator can
  report bandwidth numbers.
* :class:`~repro.net.tcp.TcpTransport` carries the same envelopes over
  blocking TCP sockets with length-prefixed framing, for real multi-process
  deployments (``repro.server.entry_main`` / ``chain_main``).

Endpoints are plain callables: ``handler(envelope) -> bytes | None``.  The
transport interface is deliberately synchronous — Vuvuzela is a round-based
protocol and the round coordinator provides all the sequencing the system
needs; the TCP implementation runs a send on the caller's thread and each
inbound connection on a thread of its own, so it needs no event loop.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .faults import LinkConditioner
from .messages import Envelope, MessageKind, Observation
from ..errors import NetworkError

Handler = Callable[[Envelope], bytes | None]


class Transport(ABC):
    """What any deployment substrate must provide to the layers above it.

    ``send`` is a blocking request/response primitive: it delivers one
    payload to ``destination``'s handler and returns the reply, or ``None``
    when the message was lost (interference in-process, a dropped reply over
    a real network).  Implementations must also keep per-link
    :class:`TrafficStats` so bandwidth accounting works identically whether a
    deployment runs in one process or across machines.
    """

    @abstractmethod
    def register(self, name: str, handler: Handler) -> None:
        """Attach an endpoint.  Re-registering a name replaces its handler."""

    @abstractmethod
    def unregister(self, name: str) -> None:
        """Detach an endpoint (a no-op when the name is unknown)."""

    @abstractmethod
    def endpoints(self) -> list[str]:
        """Sorted names of the locally attached endpoints."""

    @abstractmethod
    def send(
        self,
        source: str,
        destination: str,
        payload: bytes,
        kind: MessageKind = MessageKind.CONTROL,
        round_number: int = 0,
    ) -> bytes | None:
        """Deliver one message and return the destination's reply (if any)."""

    @abstractmethod
    def stats(self, source: str, destination: str) -> "TrafficStats":
        """Byte/message counters for one directed link."""

    @abstractmethod
    def total_bytes(self) -> int:
        """Total payload bytes sent across all links."""

    @abstractmethod
    def total_messages(self) -> int:
        """Total messages sent across all links."""


@dataclass
class TrafficStats:
    """Byte and message counters per (source, destination) link."""

    messages: int = 0
    bytes: int = 0

    def record(self, envelope: Envelope) -> None:
        self.messages += 1
        self.bytes += envelope.size


class Interference:
    """Base class for adversarial interference with the network.

    Subclasses override :meth:`allow` to drop traffic.  The default allows
    everything, so an un-tampered network simply delivers messages.
    """

    def allow(self, envelope: Envelope) -> bool:  # pragma: no cover - trivial default
        return True


class BlockEndpoints(Interference):
    """Drop every message to or from the given endpoints.

    This models the paper's §2.1 attack of "temporarily block network traffic
    from Alice, and see whether Bob stops receiving messages".
    """

    def __init__(self, endpoints: Iterable[str]) -> None:
        self.blocked = set(endpoints)

    def allow(self, envelope: Envelope) -> bool:
        return envelope.source not in self.blocked and envelope.destination not in self.blocked


class DropMessageKind(Interference):
    """Drop every message of the given kinds, optionally only for some endpoints.

    Used to model asymmetric failures, e.g. a round whose requests reach the
    servers but whose responses never make it back to a specific client.
    """

    def __init__(self, kinds: Iterable[MessageKind], endpoints: Iterable[str] | None = None) -> None:
        self.kinds = set(kinds)
        self.endpoints = set(endpoints) if endpoints is not None else None

    def allow(self, envelope: Envelope) -> bool:
        if envelope.kind not in self.kinds:
            return True
        if self.endpoints is None:
            return False
        return not (
            envelope.source in self.endpoints or envelope.destination in self.endpoints
        )


class AllowOnlyEndpoints(Interference):
    """Drop every client message except those from an allow-list.

    Models the stronger §2.1 attack: "block traffic from all clients except
    for Alice and Bob, and see whether any messages got exchanged".  Servers
    are always allowed so the protocol itself can proceed.
    """

    def __init__(self, allowed: Iterable[str], server_prefixes: tuple[str, ...] = ("server", "entry")) -> None:
        self.allowed = set(allowed)
        self.server_prefixes = server_prefixes

    def _is_server(self, name: str) -> bool:
        return name.startswith(self.server_prefixes)

    def allow(self, envelope: Envelope) -> bool:
        for endpoint in (envelope.source, envelope.destination):
            if not self._is_server(endpoint) and endpoint not in self.allowed:
                return False
        return True


@dataclass
class Network(Transport):
    """Synchronous in-process message router with observation and interference hooks."""

    observers: list[Callable[[Observation], None]] = field(default_factory=list)
    interferences: list[Interference] = field(default_factory=list)
    #: Deterministic link rules (faults and WAN weather): when set, every
    #: send consults the conditioner (after the adversary observed the
    #: attempt, like interference does).
    link_conditioner: LinkConditioner | None = None
    _handlers: dict[str, Handler] = field(default_factory=dict)
    _stats: dict[tuple[str, str], TrafficStats] = field(
        default_factory=lambda: defaultdict(TrafficStats)
    )
    dropped: int = 0

    def register(self, name: str, handler: Handler) -> None:
        """Register an endpoint.  Re-registering a name replaces its handler."""
        if not name:
            raise NetworkError("endpoint names must be non-empty")
        self._handlers[name] = handler

    def unregister(self, name: str) -> None:
        self._handlers.pop(name, None)

    def endpoints(self) -> list[str]:
        return sorted(self._handlers)

    def add_observer(self, observer: Callable[[Observation], None]) -> None:
        self.observers.append(observer)

    def add_interference(self, interference: Interference) -> None:
        self.interferences.append(interference)

    def clear_interference(self) -> None:
        self.interferences.clear()

    def send(
        self,
        source: str,
        destination: str,
        payload: bytes,
        kind: MessageKind = MessageKind.CONTROL,
        round_number: int = 0,
    ) -> bytes | None:
        """Deliver a message and return the destination handler's reply (if any).

        Returns ``None`` when the message was dropped by interference — the
        caller experiences this exactly as it would a network outage.
        """
        if destination not in self._handlers:
            raise NetworkError(f"unknown endpoint: {destination!r}")
        envelope = Envelope(
            source=source,
            destination=destination,
            payload=payload,
            kind=kind,
            round_number=round_number,
        )
        for observer in self.observers:
            observer(Observation.of(envelope))
        if self.link_conditioner is not None:
            # A kill raises NetworkError out of this call; a loss is
            # indistinguishable from adversarial interference to the caller.
            stall = self.link_conditioner.decide(envelope)
            if stall is None:
                self.dropped += 1
                return None
            self.link_conditioner.hold(stall)
        for interference in self.interferences:
            if not interference.allow(envelope):
                self.dropped += 1
                return None
        self._stats[(source, destination)].record(envelope)
        return self._handlers[destination](envelope)

    def stats(self, source: str, destination: str) -> TrafficStats:
        return self._stats[(source, destination)]

    def total_bytes(self) -> int:
        return sum(stats.bytes for stats in self._stats.values())

    def total_messages(self) -> int:
        return sum(stats.messages for stats in self._stats.values())
