"""Transport abstraction and the in-process reference transport.

A :class:`Transport` moves opaque byte payloads between named endpoints and
accounts traffic per link; everything above it — the entry server, the chain
endpoints, the round coordinator, the clients — is transport-agnostic.  Two
implementations exist:

* :class:`Network` (this module) routes
  :class:`~repro.net.messages.Envelope` objects between registered endpoints
  synchronously, in one process.  It gives the adversary model a single place
  to observe all traffic, mirroring the paper's threat model of a global
  active network adversary (§2.3), and it accounts bytes per link so the
  simulator can report bandwidth numbers.  Blocking, dropping, stalling or
  killing traffic is one mechanism for both transports: the seeded
  :class:`~repro.net.faults.LinkConditioner` and its
  :class:`~repro.net.faults.LinkRule` table.
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
from typing import Callable

from .faults import LinkConditioner
from .messages import Envelope, MessageKind, Observation
from ..errors import NetworkError

Handler = Callable[[Envelope], bytes | None]


class Transport(ABC):
    """What any deployment substrate must provide to the layers above it.

    ``send`` is a blocking request/response primitive: it delivers one
    payload to ``destination``'s handler and returns the reply, or ``None``
    when the message was lost (a ``drop`` link rule, or a dropped reply over
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


@dataclass
class Network(Transport):
    """Synchronous in-process message router with observation and link-rule hooks."""

    observers: list[Callable[[Observation], None]] = field(default_factory=list)
    #: Deterministic link rules (faults, blocking and WAN weather): when set,
    #: every send consults the conditioner after the adversary observed the
    #: attempt.
    link_conditioner: LinkConditioner | None = None
    _handlers: dict[str, Handler] = field(default_factory=dict)
    _stats: dict[tuple[str, str], TrafficStats] = field(
        default_factory=lambda: defaultdict(TrafficStats)
    )

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

    def send(
        self,
        source: str,
        destination: str,
        payload: bytes,
        kind: MessageKind = MessageKind.CONTROL,
        round_number: int = 0,
    ) -> bytes | None:
        """Deliver a message and return the destination handler's reply (if any).

        Returns ``None`` when a link rule dropped the message — the caller
        experiences this exactly as it would a network outage.
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
            # A kill raises NetworkError out of this call; a drop returns None.
            stall = self.link_conditioner.decide(envelope)
            if stall is None:
                return None
            self.link_conditioner.hold(stall)
        self._stats[(source, destination)].record(envelope)
        return self._handlers[destination](envelope)

    def stats(self, source: str, destination: str) -> TrafficStats:
        return self._stats[(source, destination)]

    def total_bytes(self) -> int:
        return sum(stats.bytes for stats in self._stats.values())

    def total_messages(self) -> int:
        return sum(stats.messages for stats in self._stats.values())
