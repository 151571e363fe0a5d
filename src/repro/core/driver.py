"""One round driver for both deployment shapes.

A Vuvuzela round is a pure function of ``(seed, label, round, attempt)``
whichever shape runs it, so everything *about* rounds that is not transport
lives here, once: the protocol map and the two (ε, δ) accountants, the
active/parked client population and its ledger records, the ledger's round
record, round resolution, replay's forced attempts, the continuous session,
the single-round wrappers and the swarm round.

:class:`~repro.core.system.VuvuzelaSystem` (every component in this process,
over the in-memory :class:`~repro.net.Network`) and
:class:`~repro.core.deployment.DeploymentLauncher` (entry + chain servers as
subprocesses over :class:`~repro.net.TcpTransport`) subclass
:class:`RoundDriver` and implement only its abstract methods — the seam:
connecting one client, opening/driving/discarding a window, the swarm's
frames, the chain observables the ledger record reads, and the chaos surface
campaigns drive.

Nothing in this module asks which subclass it is running in: a difference
between the shapes is a seam method, or it is not shared.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from . import topology
from .config import VuvuzelaConfig
from ..client import VuvuzelaClient
from ..deaddrop import InvitationDropStore
from ..dialing import own_invitation_bucket
from ..errors import LedgerError, NetworkError, ProtocolError
from ..ledger import client_digest
from ..net import LinkRule, MessageKind
from ..privacy import PrivacyAccountant, conversation_guarantee, dialing_guarantee
from ..runtime import RoundEngine, RoundScheduler, build_protocols
from ..runtime.protocols import RoundProtocol
from ..runtime.scheduler import ClientSession, ScheduledRound, ScheduleReport
from ..server.wire import decode_batch_verdicts, encode_submission_batch

@dataclass
class SwarmRoundReport:
    """Everything one swarm-driven round produced, in one place.

    ``metrics`` is the shape's round result (the same object a per-client
    round of that shape reports); ``ingest`` carries the chunked admission
    path's backpressure observables; ``outcome`` is the swarm's bulk-decoded
    view of the responses; ``phases`` splits the round's wall clock into
    measured wrap / admission / chain / decode seconds.  Unpacks as
    ``(metrics, ingest, outcome)``.
    """

    metrics: Any
    ingest: Any
    outcome: Any
    phases: dict | None = None

    def __iter__(self):
        return iter((self.metrics, self.ingest, self.outcome))


class RoundDriver(ABC):
    """Everything the two deployment shapes share (see the module docstring)."""

    #: The ``session_start`` / ``session_end`` shape tag of this driver.
    shape: str
    #: Whether pre-opening the next round's window while the current chain
    #: is mixing is sound for this shape.  Deadline-only deployments say no:
    #: a window's deadline timer starts at open time, so pre-opening would
    #: silently shrink the submission window by the remaining mix time.
    preopen_windows: bool = True
    #: Whether a swarm round generates chunk k+1 while chunk k's verdicts are
    #: in flight.  One strictly ordered TCP connection gains nothing from it.
    swarm_pipelined: bool = True

    def __init__(self, config: VuvuzelaConfig | None = None) -> None:
        self.config = config or VuvuzelaConfig.small()
        self._rng = topology.root_rng(self.config)
        self.server_keypairs = topology.server_keypairs(self.config, self._rng)
        self.server_public_keys = [kp.public for kp in self.server_keypairs]
        #: The protocol plug-ins: everything protocol-specific the round
        #: pipeline needs (the in-process shape also binds its observables).
        self.protocols = build_protocols(self.config)
        #: The driver checkpoints the (ε, δ) composition per resolved round,
        #: whichever process made the noise draws — which is what keeps the
        #: two shapes' ledgers diffable.
        self._accountants = {
            name: PrivacyAccountant(
                per_round=guarantee(noise),
                target_epsilon=self.config.target_epsilon,
                target_delta=self.config.target_delta,
                composition_d=self.config.composition_d,
            )
            for name, guarantee, noise in (
                ("conversation", conversation_guarantee, self.config.conversation_noise),
                ("dialing", dialing_guarantee, self.config.dialing_noise),
            )
        }
        self.conversation_accountant = self._accountants["conversation"]
        self.dialing_accountant = self._accountants["dialing"]
        #: The clients currently online, by name.
        self.clients: dict[str, VuvuzelaClient] = {}
        #: Clients parked mid-session (crash/outage churn): the client object
        #: and its session survive off-network so a later resume keeps §3.1
        #: sequence state and undelivered outbox messages.
        self._parked: dict[str, tuple[VuvuzelaClient, ClientSession | None]] = {}
        #: The next round number per protocol: the in-process shape allocates
        #: from it, the launcher mirrors the entry's allocation in it.
        self._next_rounds: dict[str, int] = {"conversation": 0, "dialing": 0}
        #: Replay support: forced first-attempt numbers by (protocol, round).
        self._forced_attempts: dict[tuple[str, int], int] = {}
        #: Optional round ledger (attach with :meth:`attach_ledger`).
        self.ledger: Any = None
        self.scheduler = RoundScheduler(
            self,
            pipeline_depth=self.config.pipeline_depth,
            dialing_interval=self.config.dialing_interval,
        )
        #: The driver's one engine, one worker per usable core: the dialing
        #: poll's trial decryption, every client's wires (per-client rounds
        #: and the swarm's) and, in process, every chain server's peel and
        #: noise wrap.  Each shape's teardown closes it.
        self.engine = RoundEngine()

    def protocol(self, name: str) -> RoundProtocol:
        return self.protocols[name]

    @property
    def next_conversation_round(self) -> int:
        return self._next_rounds["conversation"]

    @property
    def next_dialing_round(self) -> int:
        return self._next_rounds["dialing"]

    # ------------------------------------------------------------------ ledger

    @abstractmethod
    def _bind_ledger(self, ledger: Any) -> dict:
        """Point the shape's own recorders (coordinator, link
        conditioners) at ``ledger``; returns the shape's extra
        ``session_start`` fields (what a replay needs to rebuild it)."""

    def _record(self, type_: str, data: dict) -> None:
        if self.ledger is not None:
            self.ledger.append(type_, data)

    def attach_ledger(self, ledger: Any) -> None:
        """Record this deployment's lifecycle into ``ledger`` from now on.

        The driver is the ledger's single writer: it owns the clients (so it
        can digest delivered plaintexts) and drives every round.  Clients and
        sessions that already exist are back-filled so a replay starting from
        the ``session_start`` record can reconstruct them.
        """
        self.ledger = ledger
        ledger.append(
            "session_start",
            {"shape": self.shape, "config": self.config.to_dict(), **self._bind_ledger(ledger)},
        )
        for name in self.clients:
            ledger.append("client_added", {"name": name})
        self.scheduler.record_existing(ledger)

    def _end_session(self) -> None:
        """Teardown half of :meth:`attach_ledger` (idempotent)."""
        if self.ledger is not None:
            try:
                self.ledger.append("session_end", {"shape": self.shape})
            except LedgerError:
                pass  # the writer was already closed by its owner
            self.ledger = None

    def ledger_client_digests(self) -> dict:
        """Per-client fingerprints of user-visible state (see ledger docs).

        Parked clients are included: their state is frozen while parked, and
        a replay parks the same clients at the same boundaries, so the
        digests stay comparable across a churny schedule.
        """
        population = dict(self.clients)
        population.update({name: client for name, (client, _) in self._parked.items()})
        return {name: client_digest(population[name]) for name in sorted(population)}

    def _ledger_round_record(self, protocol: RoundProtocol, result: Any) -> dict:
        """The observables of one resolved round, as the ledger records them.

        The result contributes its own window accounting
        (``ledger_fields()``); the chain's observables — exactly the fields
        the byte-identity guarantee covers — are read through the seam, so a
        recording from either shape diffs cleanly against a replay in the
        other.
        """
        round_number = result.round_number
        record = {"protocol": protocol.name, "round": round_number, **result.ledger_fields()}
        noise = self.chain_noise(protocol.name, round_number)
        if protocol.name == "conversation":
            histogram = self.access_histogram(round_number)
            record.update(
                noise=noise,
                histogram=[int(histogram[key]) for key in ("singles", "pairs", "collisions")],
            )
        else:
            store = self.invitation_store(round_number)
            record.update(
                noise_invitations=noise
                + sum(store.noise_count(bucket) for bucket in range(store.num_buckets)),
                bucket_sizes={
                    str(bucket): size for bucket, size in sorted(store.bucket_sizes().items())
                },
            )
        accountant = self._accountants[protocol.name]
        guarantee = accountant.current_guarantee()
        record["accountant"] = {
            "rounds_used": accountant.rounds_used,
            "epsilon": guarantee.epsilon,
            "delta": guarantee.delta,
        }
        return record

    def _resolve_round(self, protocol: RoundProtocol, result: Any) -> Any:
        """Account one resolved round: spend its (ε, δ), record it."""
        self._accountants[protocol.name].spend(1)
        if self.ledger is not None:
            self.ledger.append("round_metrics", self._ledger_round_record(protocol, result))
        return result

    def force_attempts(self, plan: dict[tuple[str, int], int]) -> None:
        """Replay support: pre-set first-attempt numbers by (protocol, round).

        A recorded round that resolved on attempt N is replayed by opening
        its window *at* attempt N — the chain then draws N's noise streams
        directly instead of re-living the aborted attempts (which leave no
        trace in any observable: their noise is discarded with the failed
        batch).
        """
        self._forced_attempts.update(plan)

    # -------------------------------------------------------------- population

    @abstractmethod
    def _connect_client(self, client: VuvuzelaClient, **link_options) -> Any:
        """Put ``client`` online (first connect, or reconnect after a park)
        and return the handle callers talk to it through."""

    @abstractmethod
    def _disconnect_client(self, name: str) -> None:
        """Take an online client off the network (its account is revoked)."""

    @abstractmethod
    def _forget_client(self, name: str) -> None:
        """Prune a permanently departed client's server-side state (parked
        refunds, dedup digests, per-round pending entries)."""

    def add_client(self, name: str, **link_options) -> Any:
        """Create a client with deployment-deterministic keys and connect it.

        Returns the shape's client handle (whatever ``_connect_client``
        hands back); ``link_options`` are the shape's connection options.
        """
        if name in self.clients or name in self._parked:
            raise ProtocolError(f"a client named {name!r} already exists")
        client = topology.build_client(self.config, name, self._rng, self.server_public_keys)
        handle = self._connect_client(client, **link_options)
        self.clients[name] = client
        self._record("client_added", {"name": name})
        return handle

    def remove_client(self, name: str) -> None:
        """Deregister a client mid-session (churn): its cover traffic stops.

        Client rng streams are forked per client name at creation, so a
        removal never shifts the draws of the clients that remain — which is
        what keeps churn deterministic and replayable.  The departed client's
        server-side state is pruned so a long churny session does not leak
        it.
        """
        if name in self._parked:
            del self._parked[name]
        elif name in self.clients:
            self.scheduler.remove_session(name)
            self._disconnect_client(name)
            del self.clients[name]
        else:
            raise ProtocolError(f"no client named {name!r}")
        self._forget_client(name)
        self._record("client_removed", {"name": name})

    def park_client(self, name: str) -> None:
        """Take a client off the network mid-session, keeping its state.

        Models a crash or a connectivity outage: the client stops submitting
        (its session leaves the schedule) and its account is revoked, but the
        client object — send sequencer, receive dedup tracker, undelivered
        outbox — is parked so :meth:`resume_client` can bring the same user
        back.  The rounds missed while parked are exactly the §3.1 "client
        offline" case: on resume the outbox retransmits and the sequence
        tracker suppresses any duplicate the retransmission causes.
        """
        if name not in self.clients:
            raise ProtocolError(f"no client named {name!r}")
        session = self.scheduler.remove_session(name)
        self._disconnect_client(name)
        self._parked[name] = (self.clients.pop(name), session)
        self._record("client_parked", {"name": name})

    def resume_client(self, name: str) -> Any:
        """Bring a parked client back online with its session state intact."""
        if name not in self._parked:
            raise ProtocolError(f"no parked client named {name!r}")
        client, session = self._parked.pop(name)
        handle = self._connect_client(client)
        self.clients[name] = client
        if session is not None:
            self.scheduler.restore_session(session)
        self._record("client_resumed", {"name": name})
        return handle

    def client(self, name: str) -> VuvuzelaClient:
        """The client object, parked or online."""
        if name in self.clients:
            return self.clients[name]
        if name in self._parked:
            return self._parked[name][0]
        raise ProtocolError(f"no client named {name!r}")

    def add_session(self, name: str, **session_kwargs) -> ClientSession:
        """Create a client (if need be) and wrap it in a scheduler session."""
        if name not in self.clients:
            self.add_client(name)
        return self.scheduler.add_session(
            ClientSession(client=self.clients[name], **session_kwargs)
        )

    # -------------------------------------------------------- scheduled rounds

    @abstractmethod
    def open_scheduled_round(
        self, protocol: RoundProtocol, participants: list | None = None
    ) -> ScheduledRound:
        """Allocate the next round number and open its submission window.

        ``participants`` (client handles) restricts the round to a subset of
        the online population.
        """

    @abstractmethod
    def drive_scheduled_round(self, protocol: RoundProtocol, opened: ScheduledRound) -> Any:
        """Submit every participant, resolve the round, finish it (invitation
        polling included) and return the round's result.  Blocking."""

    @abstractmethod
    def discard_scheduled_round(self, protocol: RoundProtocol, opened: ScheduledRound) -> None:
        """Resolve a window that will never be driven (failure cleanup).

        An abandoned open window would wedge the coordinator's in-order
        drive gate for every later round of its kind, so it is closed as an
        (empty) round instead.  Best-effort by contract.
        """

    @contextmanager
    def _discarding(self, protocol: RoundProtocol, opened: ScheduledRound) -> Iterator[None]:
        """Discard ``opened``'s window if the block fails, then re-raise: a
        window left open would wedge every later round of its kind."""
        try:
            yield
        except BaseException:
            try:
                self.discard_scheduled_round(protocol, opened)
            except Exception:
                pass  # best-effort cleanup on an already-failing path
            raise

    def _build_round(
        self, protocol: RoundProtocol, opened: ScheduledRound, clients: list[VuvuzelaClient]
    ) -> list[list[bytes]]:
        """Every participant's wires for an opened round, one list per
        client, built as one op on :attr:`engine` — its pool takes a round
        large enough.  A failed build (a worker killed mid-op) discards the
        window before the error propagates."""
        with self._discarding(protocol, opened):
            return protocol.build_wires(clients, opened.round_number, self.engine)

    @abstractmethod
    def _measure_round(self, protocol: RoundProtocol, opened: ScheduledRound) -> Callable:
        """Start measuring one round; returns ``finish(closed, *,
        client_requests, delivered, lost, extra)``, which shapes the closed
        round into this shape's result and resolves it
        (:meth:`_resolve_round`)."""

    def run_conversation_round(self, participants: list | None = None):
        """Run one complete conversation round (all online clients, or only
        ``participants``)."""
        return self.scheduler.run_round("conversation", participants)

    def run_dialing_round(self, participants: list | None = None):
        """Run one complete dialing round, including the invitation download."""
        return self.scheduler.run_round("dialing", participants)

    def run_continuous(
        self,
        conversation_rounds: int,
        *,
        dialing_interval: int | None = None,
        pipeline_depth: int | None = None,
        churn=None,
    ) -> ScheduleReport:
        """Run a continuous overlapped schedule (see :class:`RoundScheduler`).

        ``churn`` is an optional list of :class:`~repro.runtime.ChurnEvent`
        population changes applied at round boundaries inside the schedule.
        """
        return self.scheduler.run_session(
            conversation_rounds,
            dialing_interval=dialing_interval,
            pipeline_depth=pipeline_depth,
            churn=churn,
        )

    def scan_invitations(
        self,
        round_number: int,
        downloads: Iterable[tuple[VuvuzelaClient, InvitationDropStore]],
    ) -> None:
        """Every polling client's trial decryption, one scan per dead drop.

        ``downloads`` pairs each client with the store it downloaded.
        Clients whose dead drops hold the same invitations are scanned
        together — over TCP each connection downloads its own copy of the
        one snapshot — and each client records its calls itself
        (:meth:`~repro.client.VuvuzelaClient.record_calls`).  Each scan runs
        on :attr:`engine`, which takes it to the pool from
        :data:`~repro.runtime.engine.SCAN_PARALLEL_TRIALS` trials; the results
        do not depend on where it ran.
        """
        groups: dict[tuple[bytes, ...], list[VuvuzelaClient]] = {}
        for client, store in downloads:
            bucket = store.download(own_invitation_bucket(client.keys, store.num_buckets))
            groups.setdefault(tuple(bucket), []).append(client)
        for bucket, clients in groups.items():
            found = self.engine.scan_invitation_chunks(
                [client.keys.private for client in clients], bucket, round_number
            )
            for client, callers in zip(clients, found):
                client.record_calls(round_number, callers)

    # ------------------------------------------------------------ swarm rounds

    @abstractmethod
    def _swarm_send(self, frame: bytes, kind: MessageKind, round_number: int) -> bytes | None:
        """Ship one swarm frame to the entry; its reply (``None`` = lost)."""

    @abstractmethod
    def _close_swarm_round(
        self, protocol: RoundProtocol, opened: ScheduledRound, names: list[str]
    ) -> tuple[Any, dict]:
        """Close the window, drive the chain and collect the responses:
        ``(closed round, {client name: [response, ...]})``."""

    def run_swarm_round(self, swarm, *, chunk_size: int = 0) -> SwarmRoundReport:
        """Drive one conversation round offered by a whole client swarm.

        The swarm counterpart of :meth:`drive_scheduled_round`: the population
        lives in a :class:`~repro.simulation.ClientSwarm` instead of
        ``self.clients``, requests arrive in ``SUBMISSION_BATCH`` chunks
        through the coordinator's batched gate instead of one envelope per
        client — each chunk's verdict frame gates the next, which is the
        ingest backpressure — and responses are decoded in bulk by the swarm.
        The swarm builds its wires on :attr:`engine`; if the build or a
        submission fails, the window is discarded before the error
        propagates.  Every server-side observable — admission verdicts, window accounting,
        the chain drive, noise, the ledger record — goes through the same
        code as the per-client path.
        """
        protocol = self.protocol("conversation")
        self._record("swarm_round", {"wires": len(swarm.names)})
        # No per-client participants, hence no expected count: the window
        # must not close itself inside the last chunk's verdict reply — it
        # is closed explicitly below.
        opened = self.open_scheduled_round(protocol, participants=[])
        round_number = opened.round_number
        finish = self._measure_round(protocol, opened)
        peak_buffer = 0

        def submit(chunk) -> bytes:
            nonlocal peak_buffer
            reply = self._swarm_send(
                encode_submission_batch(protocol.kind, round_number, chunk.entries),
                MessageKind.SUBMISSION_BATCH,
                round_number,
            )
            if reply is None:
                raise NetworkError(f"round {round_number}: the entry dropped a submission batch")
            reply_round, verdicts = decode_batch_verdicts(reply)
            if reply_round != round_number:
                raise ProtocolError(f"round {round_number}: verdict frame for round {reply_round}")
            peak_buffer = max(peak_buffer, self.buffered_total())
            return verdicts

        with self._discarding(protocol, opened):
            stats = swarm.submit_round(
                round_number,
                submit,
                chunk_size=chunk_size,
                pipeline=self.swarm_pipelined,
                engine=self.engine,
            )
        stats.peak_server_buffer = peak_buffer
        # repro-lint: allow[nd-wallclock] phase split of the report; never feeds wire/digest/ledger payloads
        chain_started = time.perf_counter()
        closed, grouped = self._close_swarm_round(protocol, opened, swarm.names)
        # repro-lint: allow[nd-wallclock] same phase split
        chain_seconds = time.perf_counter() - chain_started
        decode_started = time.perf_counter()  # repro-lint: allow[nd-wallclock] same phase split
        outcome = swarm.handle_round_responses(round_number, grouped)
        # repro-lint: allow[nd-wallclock] same phase split
        decode_seconds = time.perf_counter() - decode_started
        result = finish(
            closed,
            client_requests=stats.wires,
            delivered=outcome.delivered,
            lost=outcome.lost,
            extra={},
        )
        phases = {
            "round": round_number,
            "wrap_seconds": stats.wrap_seconds,
            "admission_seconds": stats.admission_seconds,
            "chain_seconds": chain_seconds,
            "decode_seconds": decode_seconds,
            "total_seconds": result.wall_clock_seconds,
        }
        return SwarmRoundReport(metrics=result, ingest=stats, outcome=outcome, phases=phases)

    # ------------------------------------------------------------- observables

    @abstractmethod
    def chain_noise(self, protocol: str, round_number: int) -> int:
        """Total cover traffic the chain added to one round (all servers)."""

    @abstractmethod
    def access_histogram(self, round_number: int) -> dict:
        """The last server's observable (m1, m2) histogram for one round, as
        ``{"singles", "pairs", "collisions"}``."""

    @abstractmethod
    def invitation_store(self, round_number: int) -> InvitationDropStore:
        """A dialing round's invitation dead drops, as the last server holds
        them."""

    # ----------------------------------------------------------- chaos surface

    @abstractmethod
    def add_link_rule(self, target: str | int, rule: LinkRule, *, seed: int = 0) -> LinkRule:
        """Install one :class:`~repro.net.LinkRule` for ``target``:
        ``"clients"`` (every client access link — the paper's DSL/3G edge,
        §8), ``"entry"`` or a chain index (what that process sends).

        One seeded conditioner per target process serves every rule;
        asking for a different seed once it exists is an error.
        """

    @abstractmethod
    def heal_links(self, target: str | int | None = None) -> None:
        """Remove ``target``'s link rules, or every target's."""

    @abstractmethod
    def link_stats(self) -> dict:
        """The ``"clients"`` target's conditioner counters."""

    @abstractmethod
    def aborted_total(self) -> int:
        """How many round attempts have been aborted (and retried) so far."""

    @abstractmethod
    def buffered_total(self) -> int:
        """Submissions buffered at the entry across all open rounds."""

    @abstractmethod
    def resubmission_parked(self) -> dict:
        """Permanently failed submissions still parked at the coordinator
        (empty when settled)."""


__all__ = ["RoundDriver", "SwarmRoundReport"]
