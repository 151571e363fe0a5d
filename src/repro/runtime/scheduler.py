"""Continuous, overlapping round scheduling (conversation ∥ dialing).

Vuvuzela deployments do not run one round at a time and stop: clients
participate in **every** conversation round as cover traffic, and a dialing
round is interleaved once per k conversation rounds (§5.5).  The
:class:`RoundScheduler` drives that stream over any deployment shape —
the in-process :class:`~repro.core.system.VuvuzelaSystem` or the
multi-process TCP :class:`~repro.core.deployment.DeploymentLauncher` —
through the :class:`~repro.core.driver.RoundDriver` both subclass and the
:class:`~repro.runtime.protocols.RoundProtocol` plug-ins.

**Overlap model.**  The scheduler pipelines where the protocol's data
dependencies allow, and *only* there, so a scheduled run stays byte-identical
to its serial execution (the determinism-under-concurrency discipline):

* a round's conversation requests depend on the previous conversation
  round's responses (retransmission, outbox advance — §3.1/§3.2), so
  conversation rounds stay strictly ordered among themselves;
* a **dialing round is independent of conversation state** (its own client
  rng stream, its own chain endpoints, its own server rng streams), so its
  submission and chain drive run concurrently with a conversation round's;
* round N+1's **submission window is opened while round N's chain is still
  mixing**, taking the window-open control round trip off the critical path;
* per-kind chain drives are serialized in round order by the
  :class:`~repro.runtime.coordinator.RoundCoordinator`, which is what makes
  all of the above deterministic.

``pipeline_depth`` bounds how many rounds may be in flight at once: ``1``
serializes everything (the baseline the benchmark compares against); ``2``
or more enables the dialing overlap and window pre-opening.

**Sessions.**  A :class:`ClientSession` is the per-client loop the paper
describes: dial someone, poll invitations every dialing round, auto-accept
incoming calls, converse — while the client's fixed-size cover traffic flows
every round regardless.  Sessions are transport-agnostic: they manipulate
the underlying :class:`~repro.client.VuvuzelaClient` between rounds, at
deterministic points of the schedule.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..errors import ProtocolError

if TYPE_CHECKING:  # pragma: no cover - core imports runtime, not the reverse
    from ..core.driver import RoundDriver


@dataclass
class ScheduledRound:
    """One opened-but-not-yet-resolved round in the schedule."""

    protocol_name: str
    round_number: int
    #: The client handles that submit in this round; ``None`` = everyone
    #: online when the round is driven.
    participants: list | None = None


#: Actions a mid-session churn event may take.
CHURN_ACTIONS = ("join", "park", "resume", "remove", "dial", "say")


@dataclass(frozen=True)
class ChurnEvent:
    """One population change applied at a deterministic schedule boundary.

    ``before_round`` is the conversation-round index *within the schedule*
    the event precedes: the scheduler applies it after every earlier round
    has fully resolved and before the dialing round due at that index (if
    any) launches — the same point in serial and overlapped execution, which
    is what keeps churny schedules byte-identical to their replay.
    """

    before_round: int
    action: str
    name: str
    #: Hex-encoded public key: who a ``join``/``dial`` event dials.
    peer: str | None = None
    #: Message a ``join``/``say`` event queues (greeting or live message).
    message: str | None = None

    def __post_init__(self) -> None:
        if self.action not in CHURN_ACTIONS:
            raise ProtocolError(f"unknown churn action {self.action!r}")
        if self.before_round < 0:
            raise ProtocolError("a churn event cannot precede round 0")

    def to_dict(self) -> dict:
        return {
            "before_round": self.before_round,
            "action": self.action,
            "name": self.name,
            "peer": self.peer,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChurnEvent":
        return cls(
            before_round=int(data["before_round"]),
            action=str(data["action"]),
            name=str(data["name"]),
            peer=data.get("peer"),
            message=data.get("message"),
        )


def _as_hex(message: bytes | str) -> str:
    """The ledger wire form of a user message (str and bytes converge on the
    same utf-8 bytes the client would put on the wire)."""
    raw = message.encode("utf-8") if isinstance(message, str) else bytes(message)
    return raw.hex()


@dataclass
class ClientSession:
    """The per-client session loop: dial → poll invitations → converse.

    The wrapped client sends cover traffic every round whether or not the
    session is in a conversation — that is the protocol's own behaviour; the
    session only drives the *user-level* state machine around it.
    """

    client: Any  # VuvuzelaClient (kept untyped: no core import cycles here)
    #: Accept every incoming call and enter the conversation.
    auto_accept: bool = True
    #: Messages queued (once) when this session's first conversation opens —
    #: whether it dialed out or accepted a call.
    greetings: list[bytes | str] = field(default_factory=list)
    #: Adversarial standing dial: when set, this session dials the target
    #: every dialing round without entering a conversation — the targeted
    #: dead-drop flooding workload (the victim's invitation bucket inflates
    #: with every attacker).
    flood_target: Any = None
    _pending_dial: Any = field(default=None, repr=False)
    _dialed: Any = field(default=None, repr=False)
    _calls_seen: int = field(default=0, repr=False)
    _greeted: bool = field(default=False, repr=False)
    invitations_received: int = 0
    conversations_started: int = 0
    #: Round ledger the session's user-level events are recorded into
    #: (set by the scheduler when a ledger is attached to the deployment).
    ledger: Any = field(default=None, repr=False)

    @property
    def name(self) -> str:
        return self.client.name

    def dial(self, peer) -> None:
        """Ask the session to dial ``peer`` at the next dialing round."""
        if self.ledger is not None:
            self.ledger.append("dial", {"name": self.name, "peer": peer.hex()})
        self._pending_dial = peer

    def say(self, message: bytes | str) -> None:
        """Queue a message: now if a conversation is active, else as greeting."""
        if self.ledger is not None:
            self.ledger.append("say", {"name": self.name, "message": _as_hex(message)})
        if self.client.active_conversations:
            self.client.send_message(message)
        else:
            self.greetings.append(message)

    # ---- hooks the scheduler calls at deterministic schedule points ----

    def before_dialing_round(self) -> None:
        if self._pending_dial is not None:
            self.client.dial(self._pending_dial)
            self._dialed = self._pending_dial
            self._pending_dial = None
        elif self.flood_target is not None:
            self.client.dial(self.flood_target)

    def after_dialing_round(self) -> None:
        """React to the round's polled invitations (already on the client)."""
        if self._dialed is not None:
            # The caller enters the conversation optimistically (§5.1): the
            # callee joins when it accepts the invitation.
            self.client.start_conversation(self._dialed)
            self.conversations_started += 1
            self._dialed = None
            self._send_greetings()
        new_calls = self.client.incoming_calls[self._calls_seen :]
        self._calls_seen = len(self.client.incoming_calls)
        self.invitations_received += len(new_calls)
        if self.auto_accept:
            for call in new_calls:
                self.client.accept_call(call)
                self.conversations_started += 1
            if new_calls:
                self._send_greetings()

    def _send_greetings(self) -> None:
        if self._greeted or not self.greetings:
            return
        for message in self.greetings:
            self.client.send_message(message)
        self._greeted = True


@dataclass
class ScheduleReport:
    """What a continuous run produced, in round order per protocol."""

    conversation: list = field(default_factory=list)
    dialing: list = field(default_factory=list)
    pipeline_depth: int = 1
    dialing_interval: int = 0
    wall_clock_seconds: float = 0.0

    @property
    def total_rounds(self) -> int:
        return len(self.conversation) + len(self.dialing)

    @property
    def rounds_per_second(self) -> float:
        if self.wall_clock_seconds <= 0:
            return 0.0
        return self.total_rounds / self.wall_clock_seconds


class _RoundTask:
    """One schedule step with error propagation: on a helper thread, or
    ``inline`` in the caller's when nothing overlaps it."""

    def __init__(self, name: str, target, *, inline: bool = False) -> None:
        self.result: Any = None
        self.error: BaseException | None = None

        def run() -> None:
            try:
                self.result = target()
            except BaseException as exc:  # joined and re-raised by the caller
                self.error = exc

        self.thread: threading.Thread | None = None
        if inline:
            run()
        else:
            self.thread = threading.Thread(target=run, name=name, daemon=True)
            self.thread.start()

    def join(self) -> Any:
        if self.thread is not None:
            self.thread.join()
        if self.error is not None:
            raise self.error
        return self.result


class RoundScheduler:
    """Schedules a continuous stream of rounds over a :class:`RoundDriver`."""

    def __init__(
        self,
        driver: RoundDriver,
        *,
        pipeline_depth: int = 1,
        dialing_interval: int = 0,
    ) -> None:
        if pipeline_depth < 1:
            raise ProtocolError("the pipeline needs a depth of at least 1")
        if dialing_interval < 0:
            raise ProtocolError("the dialing interval cannot be negative")
        self.driver = driver
        self.pipeline_depth = pipeline_depth
        self.dialing_interval = dialing_interval
        self.sessions: list[ClientSession] = []
        #: Round ledger the schedule is recorded into (attached by the
        #: deployment shape's ``attach_ledger``); ``None`` records nothing.
        self.ledger: Any = None

    # ------------------------------------------------------------- sessions

    def add_session(self, session: ClientSession) -> ClientSession:
        session.ledger = self.ledger
        if self.ledger is not None:
            self.ledger.append("session_added", self._session_record(session))
        self.sessions.append(session)
        return session

    def restore_session(self, session: ClientSession) -> ClientSession:
        """Re-attach a parked session (resume churn), preserving its state.

        Unlike :meth:`add_session` this is not recorded: the deployment's
        ``client_resumed`` record covers it, and replay resumes the same
        session object — outbox, sequence numbers and pending dials intact —
        which is exactly what §3.1 retransmission across missed rounds needs.
        """
        session.ledger = self.ledger
        self.sessions.append(session)
        return session

    def remove_session(self, name: str) -> ClientSession | None:
        """Drop the session wrapping client ``name`` (churn); ``None`` if absent.

        Not recorded on its own: the deployment records the client removal,
        and replay drops the session together with the client.
        """
        for session in self.sessions:
            if session.name == name:
                self.sessions.remove(session)
                return session
        return None

    def session(self, name: str) -> ClientSession:
        for session in self.sessions:
            if session.name == name:
                return session
        raise ProtocolError(f"no session for client {name!r}")

    # -------------------------------------------------------------- ledger

    @staticmethod
    def _session_record(session: ClientSession) -> dict:
        record = {
            "name": session.name,
            "auto_accept": session.auto_accept,
            "greetings": [_as_hex(message) for message in session.greetings],
        }
        if session.flood_target is not None:
            record["flood_target"] = session.flood_target.hex()
        return record

    def record_existing(self, ledger: Any) -> None:
        """Adopt ``ledger`` and back-fill the sessions added before attach."""
        self.ledger = ledger
        for session in self.sessions:
            session.ledger = ledger
            ledger.append("session_added", self._session_record(session))

    # --------------------------------------------------------------- churn

    def _apply_churn_event(self, event: ChurnEvent) -> None:
        """Apply one population change through the driver, at a boundary."""
        from ..crypto.keys import PublicKey

        if self.ledger is not None:
            self.ledger.append("churn_event", {"event": event.to_dict()})
        if event.action == "join":
            session = self.driver.add_session(event.name)
            if event.peer is not None:
                session.dial(PublicKey(bytes.fromhex(event.peer)))
            if event.message is not None:
                session.say(event.message)
        elif event.action == "park":
            self.driver.park_client(event.name)
        elif event.action == "resume":
            self.driver.resume_client(event.name)
        elif event.action == "remove":
            self.driver.remove_client(event.name)
        elif event.action == "dial":
            self.session(event.name).dial(PublicKey(bytes.fromhex(event.peer)))
        elif event.action == "say":
            self.session(event.name).say(event.message)

    # ------------------------------------------------------------ one round

    def run_round(self, protocol_name: str, participants: list | None = None) -> Any:
        """Open, drive and resolve a single round (the serial path).

        This is what the driver's ``run_conversation_round`` /
        ``run_dialing_round`` delegate to — one round at a time, no overlap.
        """
        protocol = self.driver.protocol(protocol_name)
        if self.ledger is not None:
            self.ledger.append("single_round", {"protocol": protocol_name})
        opened = self.driver.open_scheduled_round(protocol, participants)
        return self.driver.drive_scheduled_round(protocol, opened)

    # ----------------------------------------------------------- continuous

    def run_session(
        self,
        conversation_rounds: int,
        *,
        dialing_interval: int | None = None,
        pipeline_depth: int | None = None,
        churn: list[ChurnEvent] | None = None,
    ) -> ScheduleReport:
        """Run a continuous schedule of overlapped rounds.

        ``conversation_rounds`` conversation rounds are driven back to back;
        when ``dialing_interval`` is k > 0, a dialing round is due before
        conversation rounds 0, k, 2k, …  With ``pipeline_depth`` >= 2 each
        due dialing round overlaps the *preceding* conversation round (its
        results — polled invitations, session accepts — are applied at the
        same deterministic point as in serial execution: before the next
        conversation round builds), and the next conversation window is
        pre-opened while the current round's chain is still mixing.

        ``churn`` makes the client population dynamic mid-schedule: each
        :class:`ChurnEvent` is applied at its round boundary, after every
        earlier round fully resolved.  The scheduler refuses to look ahead
        *across* a churn boundary — no dialing overlap into it, no window
        pre-opening past it — so the in-flight population is always the one
        the event left behind, in serial and overlapped execution alike.
        """
        if conversation_rounds < 0:
            raise ProtocolError("cannot schedule a negative number of rounds")
        interval = self.dialing_interval if dialing_interval is None else dialing_interval
        depth = self.pipeline_depth if pipeline_depth is None else pipeline_depth
        if depth < 1:
            raise ProtocolError("the pipeline needs a depth of at least 1")
        if interval < 0:
            raise ProtocolError("the dialing interval cannot be negative")
        churn = list(churn or [])
        churn_due: dict[int, list[ChurnEvent]] = {}
        for event in churn:
            if event.before_round >= conversation_rounds and conversation_rounds:
                raise ProtocolError(
                    f"churn event before round {event.before_round} is beyond "
                    f"the schedule's {conversation_rounds} rounds"
                )
            churn_due.setdefault(event.before_round, []).append(event)
        boundaries = set(churn_due)

        conversation = self.driver.protocol("conversation")
        dialing = self.driver.protocol("dialing")
        if self.ledger is not None:
            self.ledger.append(
                "schedule",
                {
                    "conversation_rounds": conversation_rounds,
                    "dialing_interval": interval,
                    "pipeline_depth": depth,
                    "churn": [event.to_dict() for event in churn],
                },
            )
        report = ScheduleReport(pipeline_depth=depth, dialing_interval=interval)
        started = time.perf_counter()  # repro-lint: allow[nd-wallclock] wall-clock metric for ScheduleReport; never feeds wire/digest/ledger payloads

        slots = threading.BoundedSemaphore(depth)
        pre_opened: _RoundTask | None = None
        dialing_task: _RoundTask | None = None

        def run_dialing() -> Any:
            """One full dialing round (its slot is held by the caller)."""
            try:
                opened = self.driver.open_scheduled_round(dialing)
                return self.driver.drive_scheduled_round(dialing, opened)
            finally:
                slots.release()

        def open_conversation() -> ScheduledRound:
            """Open the next conversation window (slot held until driven)."""
            return self.driver.open_scheduled_round(conversation)

        def launch_dialing(*, inline: bool = False) -> _RoundTask:
            for session in self.sessions:
                session.before_dialing_round()
            slots.acquire()
            return _RoundTask("scheduler-dialing", run_dialing, inline=inline)

        def finish_dialing(task: _RoundTask) -> None:
            report.dialing.append(task.join())
            for session in self.sessions:
                session.after_dialing_round()

        try:
            for index in range(conversation_rounds):
                # A churn boundary: every earlier round has fully resolved
                # (lookahead across it was suppressed below), so population
                # changes here are deterministic under any pipeline depth.
                for event in churn_due.get(index, ()):
                    self._apply_churn_event(event)

                if interval and index % interval == 0 and dialing_task is None:
                    # Due now and not launched ahead (round 0, or depth 1):
                    # run the dialing round serially in this slot and this
                    # thread — so a session's first dialing scan, which may
                    # start the driver engine's workers, forks from a
                    # process with no round thread running.
                    finish_dialing(launch_dialing(inline=True))
                elif dialing_task is not None:
                    # Launched during the previous conversation round; its
                    # results apply exactly where serial execution would
                    # apply them — before this round's requests are built.
                    finish_dialing(dialing_task)
                    dialing_task = None

                if pre_opened is not None:
                    opened = pre_opened.join()
                    pre_opened = None
                else:
                    slots.acquire()
                    opened = open_conversation()

                overlap = depth >= 2 and (index + 1) not in boundaries
                if overlap and interval and (index + 1) % interval == 0 and index + 1 < conversation_rounds:
                    # The dialing round due before round index+1 overlaps
                    # this round's submission window and chain drive.
                    dialing_task = launch_dialing()
                preopen = overlap and self.driver.preopen_windows
                if preopen and index + 1 < conversation_rounds:
                    def open_next() -> ScheduledRound:
                        slots.acquire()
                        try:
                            return open_conversation()
                        except BaseException:
                            slots.release()
                            raise

                    pre_opened = _RoundTask("scheduler-open", open_next)

                try:
                    report.conversation.append(
                        self.driver.drive_scheduled_round(conversation, opened)
                    )
                finally:
                    slots.release()
            if dialing_task is not None:
                # A dialing round launched alongside the final conversation
                # round still completes (and its invitations still land).
                finish_dialing(dialing_task)
                dialing_task = None
        except BaseException as exc:
            if self.ledger is not None:
                self.ledger.append("schedule_failed", {"error": str(exc)})
            raise
        finally:
            # Never leak helper threads, slots or open windows on a failed
            # round: an abandoned open window would wedge the coordinator's
            # in-order drive gate for every later round of its kind.
            if dialing_task is not None:
                try:
                    dialing_task.join()
                except BaseException:
                    pass
            if pre_opened is not None:
                try:
                    abandoned = pre_opened.join()
                    slots.release()
                except BaseException:
                    pass
                else:
                    try:
                        self.driver.discard_scheduled_round(conversation, abandoned)
                    except Exception:
                        pass  # best-effort cleanup on an already-failing path

        # repro-lint: allow[nd-wallclock] closes the wall-clock metric pair above; reported, never hashed
        report.wall_clock_seconds = time.perf_counter() - started
        if self.ledger is not None:
            self.ledger.append(
                "schedule_done",
                {
                    "conversation_rounds": len(report.conversation),
                    "dialing_rounds": len(report.dialing),
                    "clients": self.driver.ledger_client_digests(),
                },
            )
        return report
