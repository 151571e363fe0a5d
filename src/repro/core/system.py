"""The top-level Vuvuzela system: clients, entry server and the server chain.

:class:`VuvuzelaSystem` wires every substrate together into a runnable
deployment: it creates the chain servers (each running both protocols), the
untrusted entry server, and the in-process network they communicate over; it
hands out :class:`~repro.client.VuvuzelaClient` instances; and it drives
rounds through the protocol-agnostic pipeline — one
:class:`~repro.runtime.RoundProtocol` plug-in per protocol, one
:class:`~repro.runtime.RoundScheduler` for sequencing.  Everything a
deployment shape shares with the TCP launcher — population, ledger records,
``run_conversation_round`` / ``run_dialing_round`` / ``run_continuous`` /
``run_swarm_round`` — is inherited from
:class:`~repro.core.driver.RoundDriver`; this module supplies the in-process
seam.

This is the class the examples and the integration tests use; the deployment
simulator (:mod:`repro.simulation`) reuses its structure but replaces real
cryptography with a calibrated cost model to reach the paper's scale.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict, dataclass

from . import topology
from .config import VuvuzelaConfig
from .driver import RoundDriver
from .metrics import RoundMetrics, SystemMetrics
from .topology import NoiseLedger
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
from ..runtime import RoundCoordinator
from ..runtime.protocols import RoundProtocol
from ..runtime.scheduler import ScheduledRound
from ..server import ACK, ChainServerEndpoint, EntryServer


class VuvuzelaSystem(RoundDriver):
    """A complete, runnable Vuvuzela deployment in one process.

    The in-process :class:`~repro.core.driver.RoundDriver`: it opens
    submission windows on its own coordinator and drives each round by
    submitting every client over the in-memory network, closing the window,
    distributing responses and collecting the protocol's metrics.
    """

    shape = "in-process"
    #: Whether link-rule stalls really sleep.  Replay turns it off: the same
    #: hash-keyed draws, without waiting (timing never shapes bytes).
    realtime_links = True

    def __init__(self, config: VuvuzelaConfig | None = None) -> None:
        super().__init__(config)
        self.network = Network()
        self.metrics = SystemMetrics()
        self._round_lock = threading.Lock()

        self._conversation_noise_ledger = NoiseLedger()
        self._dialing_noise_ledger = NoiseLedger()
        self.conversation_processor = topology.build_conversation_processor()
        self.dialing_processor = topology.build_dialing_processor(self.config, self._rng)
        self._build_chain_endpoints()

        # Bind the protocol plug-ins to this deployment's observables.
        self.protocols["conversation"].bind(
            self.conversation_processor, self._conversation_noise_ledger
        )
        self.protocols["dialing"].bind(self.dialing_processor, self._dialing_noise_ledger)

        self.entry = EntryServer(
            network=self.network,
            first_server={
                self.protocols[name].kind: topology.endpoint_name(0, name)
                for name in self.protocols
            },
            require_registration=self.config.require_registration,
            max_requests_per_account_per_round=self.config.max_conversations_per_client,
        )
        # The entry fronts the invitation CDN: one snapshot fetch per dialing
        # round, served byte-identically to every downloader.
        self.entry.invitation_fetcher = (
            lambda round_number: self.dialing_processor.store_for_round(round_number).snapshot()
        )
        # The coordinator owns the entry endpoint: every submission passes
        # through its round window (deadlines, straggler refusal) before
        # reaching the entry server's admission control.
        self.coordinator = RoundCoordinator(
            self.network,
            self.entry,
            deadline_seconds=self.config.round_deadline_seconds,
            response_wait_seconds=self.config.response_wait_seconds,
            max_round_attempts=self.config.max_round_attempts,
        )

    # ------------------------------------------------------------------ setup

    def _build_chain_endpoints(self) -> None:
        self.conversation_endpoints: list[ChainServerEndpoint] = []
        self.dialing_endpoints: list[ChainServerEndpoint] = []
        last = self.config.num_servers - 1
        for index in range(self.config.num_servers):
            conversation_endpoint, dialing_endpoint = topology.build_server_endpoints(
                self.config,
                index,
                self.network,
                self._rng,
                engine=self.engine,
                keypairs=self.server_keypairs,
                conversation_processor=self.conversation_processor if index == last else None,
                dialing_processor=self.dialing_processor if index == last else None,
                conversation_observer=self._conversation_noise_ledger.observer,
                dialing_observer=self._dialing_noise_ledger.observer,
            )
            self.conversation_endpoints.append(conversation_endpoint)
            self.dialing_endpoints.append(dialing_endpoint)

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
            self.entry.register_account(client.name)
        return client

    def _disconnect_client(self, name: str) -> None:
        self.network.unregister(name)
        if self.config.require_registration:
            self.entry.revoke_account(name)

    def _forget_client(self, name: str) -> None:
        self.coordinator.forget_client(name)

    # --------------------------------------------- driver seam: scheduled rounds

    def open_scheduled_round(
        self, protocol: RoundProtocol, participants: list | None = None
    ) -> ScheduledRound:
        """Allocate the protocol's next round number and open its window."""
        with self._round_lock:
            round_number = self._next_rounds[protocol.name]
            self._next_rounds[protocol.name] += 1
        window = self.coordinator.open_round(
            protocol.kind,
            round_number,
            attempt=self._forced_attempts.get((protocol.name, round_number), 1),
        )
        return ScheduledRound(
            protocol.name, round_number, handle=window, participants=participants
        )

    def discard_scheduled_round(self, protocol: RoundProtocol, opened: ScheduledRound) -> None:
        self.coordinator.close_round(opened.handle)

    def _measure_round(self, protocol: RoundProtocol, opened: ScheduledRound):
        """``bytes_moved`` is a whole-network byte delta over the round's wall
        clock, so when rounds overlap (``pipeline_depth`` >= 2) a concurrent
        round's traffic lands in both rounds' deltas — a timing-window
        measure, like ``wall_clock_seconds``, not a protocol observable.
        The byte-identity guarantee covers plaintexts, buckets and noise,
        never these two fields."""
        started = time.perf_counter()
        bytes_before = self.network.total_bytes()

        def finish(closed, **counts) -> RoundMetrics:
            metrics = protocol.collect_metrics(
                opened.round_number,
                closed,
                bytes_moved=self.network.total_bytes() - bytes_before,
                wall_clock_seconds=time.perf_counter() - started,
                **counts,
            )
            self.metrics.record(metrics)
            return self._resolve_round(protocol, metrics)

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

        result = self.coordinator.close_round(opened.handle)
        grouped = result.responses

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

    def _close_swarm_round(self, protocol: RoundProtocol, opened: ScheduledRound, names):
        # No per-client push: the swarm consumes the grouped responses directly.
        result = self.coordinator.close_round(opened.handle)
        return result, result.responses

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

    def aborted_total(self) -> int:
        return self.coordinator.rounds_aborted

    def buffered_total(self) -> int:
        return self.entry.buffered_total()

    def resubmission_parked(self) -> dict:
        return {
            f"{kind.value}/{round_number}": len(entries)
            for (kind, round_number), entries in self.coordinator.resubmission_queue.items()
            if entries
        }

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Shut the coordinator and the engine's worker pool down (idempotent).

        The coordinator close cancels any armed deadline timers; an engine
        that never forked owns no pool, so closing it is free.
        """
        self._end_session()
        self.coordinator.close()
        self.engine.close()

    def __enter__(self) -> "VuvuzelaSystem":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------ driver seam: observables

    def chain_noise(self, protocol: str, round_number: int) -> int:
        return self.protocols[protocol].noise_ledger.for_round(round_number)

    def access_histogram(self, round_number: int) -> dict:
        histogram = self.conversation_processor.histograms.get(round_number)
        if histogram is None:
            raise ProtocolError(f"conversation round {round_number} has not run here")
        return asdict(histogram)

    def invitation_store(self, dialing_round: int) -> InvitationDropStore:
        return self.dialing_processor.store_for_round(dialing_round)

    def download_invitations(self, dialing_round: int) -> InvitationDropStore:
        """A dialing round's store as clients receive it: the entry server's
        cached JSON snapshot, decoded — byte-identical to the TCP download."""
        return InvitationDropStore.restore(
            json.loads(self.entry.serve_invitations(dialing_round).decode("utf-8"))
        )
