"""The top-level Vuvuzela system: clients, entry server and the server chain.

:class:`VuvuzelaSystem` runs a whole deployment in one process: it hosts one
:class:`~repro.server.chain_main.ChainServerProcess` per chain position and
one :class:`~repro.server.entry_main.EntryServerProcess` — the same server
roles the TCP deployment runs as subprocesses — on one in-memory
:class:`~repro.net.Network`, hands out :class:`~repro.client.VuvuzelaClient`
instances, and drives rounds through the protocol-agnostic pipeline.
Everything a deployment shape shares with the TCP launcher — population,
the round lifecycle (open, close, discard and result through the entry's
control plane), ledger records, the server observables,
``run_conversation_round`` / ``run_dialing_round`` / ``run_continuous`` /
``run_swarm_round`` — is inherited from
:class:`~repro.core.driver.RoundDriver`; this module supplies the in-process
seam, where ``control`` calls a hosted role's dispatch table directly and
responses are read straight off the hosted entry's resolved round.

This is the class the examples and the integration tests use; the deployment
simulator (:mod:`repro.simulation`) reuses its structure but replaces real
cryptography with a calibrated cost model to reach the paper's scale.
"""

from __future__ import annotations

import json
import time

from .config import VuvuzelaConfig
from .driver import RoundDriver
from .metrics import RoundMetrics
from ..client import VuvuzelaClient
from ..deaddrop import InvitationDropStore
from ..errors import ProtocolError
from ..net import (
    CLIENTS,
    LinkConditioner,
    LinkRule,
    MessageKind,
    Network,
    conditioner_for,
    link_target,
)
from ..runtime.protocols import RoundProtocol
from ..runtime.scheduler import ScheduledRound
from ..runtime.window import RoundResult
from ..server import ACK


class VuvuzelaSystem(RoundDriver):
    """A complete, runnable Vuvuzela deployment in one process.

    The in-process :class:`~repro.core.driver.RoundDriver`: it drives each
    round the hosted entry opened by submitting every client over the
    in-memory network, closing the window through the entry's control plane,
    distributing responses and collecting the protocol's metrics.
    """

    shape = "in-process"
    #: Whether link-rule stalls really sleep.  Replay turns it off: the same
    #: hash-keyed draws, without waiting (timing never shapes bytes).
    realtime_links = True

    def __init__(self, config: VuvuzelaConfig | None = None) -> None:
        # Not at module level: ``python -m repro.server.entry_main`` imports
        # this module (through the package) before it runs itself.
        from ..server.chain_main import ChainServerProcess
        from ..server.entry_main import EntryServerProcess

        super().__init__(config)
        self.network = Network()
        # One hosted process per server role, on the shared network, with the
        # driver's root rng and key pairs (an unseeded config has no others).
        chain = [
            ChainServerProcess(
                self.config,
                index,
                self.network,
                self._rng,
                self.server_keypairs,
                engine=self.engine,
            )
            for index in range(self.config.num_servers)
        ]
        last = link_target(self.config.num_servers - 1)
        entry = EntryServerProcess(
            self.config,
            self.network,
            blocking_responses=False,
            last_server=lambda command: self.control(last, command),
        )
        self._roles = {"entry": entry, **{link_target(p.index): p for p in chain}}
        self.entry = entry.entry
        self.coordinator = entry.coordinator
        self.conversation_endpoints = [p.endpoints["conversation"] for p in chain]
        self.dialing_endpoints = [p.endpoints["dialing"] for p in chain]

    # ------------------------------------------------------- driver seam: ledger

    def _bind_ledger(self, ledger) -> dict:
        """Every round driven after attachment appends its lifecycle records
        (window open/close, seeds, faults, aborts) through the coordinator
        and the network's chaos hooks."""
        self.coordinator.ledger = ledger
        if self.network.link_conditioner is not None:
            self.network.link_conditioner.ledger = ledger
        return {}

    # --------------------------------------------------- driver seam: population

    def _connect_client(self, client: VuvuzelaClient) -> VuvuzelaClient:
        # Clients are passive endpoints: the system pushes responses to them.
        self.network.register(client.name, lambda envelope: b"")
        if self.config.require_registration:
            self.control("entry", {"cmd": "register", "name": client.name})
        return client

    def _disconnect_client(self, name: str) -> None:
        self.network.unregister(name)
        if self.config.require_registration:
            self.control("entry", {"cmd": "revoke", "name": name})

    # --------------------------------------------- driver seam: scheduled rounds

    def _measure_round(self, protocol: RoundProtocol, opened: ScheduledRound):
        """``bytes_moved`` is a whole-network byte delta over the round's wall
        clock, so when rounds overlap (``pipeline_depth`` >= 2) a concurrent
        round's traffic lands in both rounds' deltas — a timing-window
        measure, like ``wall_clock_seconds``, not a protocol observable.
        The byte-identity guarantee covers plaintexts, buckets and noise,
        never these two fields."""
        started = time.perf_counter()
        bytes_before = self.network.total_bytes()

        def finish(result: RoundResult, **counts) -> RoundMetrics:
            observed = self._chain_observables(protocol, opened.round_number)
            metrics = protocol.collect_metrics(
                opened.round_number,
                result,
                *observed,
                bytes_moved=self.network.total_bytes() - bytes_before,
                wall_clock_seconds=time.perf_counter() - started,
                **counts,
            )
            return self._resolve_round(protocol, metrics, observed)

        return finish

    def drive_scheduled_round(self, protocol: RoundProtocol, opened: ScheduledRound) -> RoundMetrics:
        """Submit every client, resolve the round, deliver, account.

        One code path for both protocols: the protocol plug-in builds the
        wires (every client at once, before the first send), consumes the
        responses, and shapes the metrics; the driver owns submission,
        window close and response distribution.
        """
        round_number = opened.round_number
        clients = (
            self.clients
            if opened.participants is None
            else {client.name: client for client in opened.participants}
        )
        finish = self._measure_round(protocol, opened)
        extra = protocol.before_round(clients)
        built = self._build_round(protocol, opened, list(clients.values()))

        submitted: dict[str, list[bool]] = {}
        total_requests = 0
        for name, wires in zip(clients, built):
            flags: list[bool] = []
            for wire in wires:
                ack = self.network.send(
                    name,
                    self.entry.name,
                    wire,
                    kind=protocol.kind,
                    round_number=round_number,
                )
                flags.append(ack == ACK)
            submitted[name] = flags
            total_requests += len(flags)

        self._close_round(protocol, opened)
        result = self._round_result(protocol, opened)
        grouped = self._collect_responses(protocol, round_number, list(clients))

        delivered = lost = 0
        for name, client in clients.items():
            available = list(grouped.get(name, []))
            responses: list[bytes | None] = []
            for was_submitted in submitted[name]:
                response: bytes | None = None
                if was_submitted and available:
                    response = available.pop(0)
                    if protocol.push_responses:
                        pushed = self.network.send(
                            self.entry.name,
                            name,
                            response,
                            kind=protocol.response_kind,
                            round_number=round_number,
                        )
                        if pushed is None:
                            response = None
                if response is None:
                    lost += 1
                else:
                    delivered += 1
                responses.append(response)
            protocol.handle_responses(client, round_number, responses)

        if protocol.polls_invitations:
            # Every client downloads and scans its own invitation dead drop.
            # The download is served by the entry server (the paper's CDN
            # front) — the same serving path networked clients hit with a
            # DIAL_DOWNLOAD envelope — so its bytes are transport-invariant.
            store = self.download_invitations(round_number)
            self.scan_invitations(round_number, [(client, store) for client in clients.values()])

        return finish(
            result, client_requests=total_requests, delivered=delivered, lost=lost, extra=extra
        )

    # ---------------------------------------------- driver seam: swarm transport

    def _swarm_send(self, frame: bytes, kind: MessageKind, round_number: int) -> bytes | None:
        return self.network.send(
            "swarm", self.entry.name, frame, kind=kind, round_number=round_number
        )

    def _collect_responses(self, protocol: RoundProtocol, round_number: int, names):
        """A direct read of the hosted entry's resolved round, every client's
        responses at once.  No envelope goes on :attr:`network`, so no link
        rule can act on the read."""
        return self.coordinator.wait_for_result(protocol.kind, round_number).responses

    # --------------------------------------------- driver seam: chaos surface

    def add_link_rule(self, target: str | int, rule: LinkRule, *, seed: int = 0) -> LinkRule:
        """In-process every hop shares one network-wide conditioner: rules
        scope themselves by their match, and the ``target`` tag only says
        whose rules :meth:`heal_links` and :meth:`link_stats` mean."""
        tag = link_target(target)
        engine = conditioner_for(
            self.network.link_conditioner, seed, realtime=self.realtime_links
        )
        self.network.link_conditioner = engine
        engine.ledger = self.ledger
        return engine.add_rule(rule, tag)

    def heal_links(self, target: str | int | None = None) -> None:
        if self.network.link_conditioner is not None:
            self.network.link_conditioner.heal(None if target is None else link_target(target))

    def link_stats(self) -> dict:
        # No conditioner yet is a clear sky: a fresh one's all-zero counters.
        return (self.network.link_conditioner or LinkConditioner()).stats(CLIENTS)

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Shut the coordinator and the engine's worker pool down (idempotent).

        The coordinator close cancels any armed deadline timers; an engine
        that never forked owns no pool, so closing it is free.
        """
        self._end_session()
        self._roles["entry"].close()
        self.engine.close()

    def __enter__(self) -> "VuvuzelaSystem":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------ driver seam: observables

    def control(self, role: str, command: dict) -> dict:
        """A direct call into the hosted role's dispatch table.  It never
        sends an envelope on :attr:`network`: a control read is not traced,
        counted in ``bytes_moved`` or matched by a link rule."""
        process = self._roles.get(role)
        if process is None:
            raise ProtocolError(f"no server role {role!r}")
        return process._dispatch(command)

    def download_invitations(self, dialing_round: int) -> InvitationDropStore:
        """A dialing round's store as clients receive it: the entry server's
        cached JSON snapshot, decoded — byte-identical to the TCP download."""
        return InvitationDropStore.restore(
            json.loads(self.entry.serve_invitations(dialing_round).decode("utf-8"))
        )
