"""Deterministic crash replay: rebuild a recorded session from its ledger.

:func:`replay_ledger` reconstructs the *entire* recorded session — clients,
sessions, dials, schedules, aborted-and-retried rounds — inside a fresh
in-process :class:`~repro.core.system.VuvuzelaSystem` built from nothing but
the ledger's ``session_start`` config, then diffs every recorded observable
against what the replay produced.  Because every byte a Vuvuzela deployment
moves is a pure function of ``(config seed, server label, round, attempt)``
(see :meth:`~repro.mixnet.chain.MixServer.round_rng`), the replay does not
need to re-inject faults, re-kill processes or re-time anything: it simply
*forces each round's recorded attempt number* onto the fresh submission
window, and the chain then draws the exact noise, wrap scalars and mix
permutations the original attempt drew — whether the recording came from the
in-process shape or from a TCP deployment whose servers were SIGKILLed
mid-round.

What gets diffed, per recorded ``round_metrics`` record:

* attempts / aborted attempts (the §6 retry trail),
* chain noise totals and the conversation access histogram,
* dialing bucket sizes and noise invitation counts,
* submission-window accounting (refusals, stragglers),
* the privacy accountant's (ε, δ) checkpoint,
* and, at every ``schedule_done`` boundary, each client's delivered-plaintext
  digest (:func:`~repro.ledger.writer.client_digest`).

In-process recordings additionally carry the coordinator's ``window_close``
records, whose SHA-256 covers the raw submission wires entering the chain —
those are diffed bit-for-bit too.  TCP recordings have no ``window_close``
records (the coordinator lives in the entry process, which never writes the
ledger), so the wire-level check simply has nothing to bind to there.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .writer import LedgerView, client_digest, load_ledger
from ..errors import LedgerError

#: Round-record fields the diff binds — exactly the shape-invariant
#: observables both recording shapes emit (timing fields are excluded by
#: construction: they are never written to round records).
OBSERVABLES = (
    "attempts",
    "aborted_attempts",
    "refused",
    "late",
    "noise",
    "histogram",
    "delivered",
    "noise_invitations",
    "bucket_sizes",
    "accountant",
)


@dataclass(frozen=True)
class RoundDiff:
    """One recorded round compared against its replay."""

    protocol: str
    round_number: int
    #: field -> (recorded, replayed), for every observable that differed.
    mismatches: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.mismatches


@dataclass
class ReplayReport:
    """The outcome of replaying one ledger."""

    rounds: list[RoundDiff] = field(default_factory=list)
    #: Recorded rounds the replay never drove (plan truncated by a crash).
    missing_rounds: list[tuple[str, int]] = field(default_factory=list)
    #: client name -> (recorded digest, replayed digest) where they differed.
    client_mismatches: dict = field(default_factory=dict)
    #: (kind, round) of window_close records whose submission-wire digest
    #: differed between recording and replay (in-process recordings only).
    wire_mismatches: list = field(default_factory=list)
    records_replayed: int = 0

    @property
    def identical(self) -> bool:
        return (
            all(diff.ok for diff in self.rounds)
            and not self.missing_rounds
            and not self.client_mismatches
            and not self.wire_mismatches
        )

    def summary(self) -> str:
        clean = sum(1 for diff in self.rounds if diff.ok)
        return (
            f"replayed {len(self.rounds)} rounds ({clean} identical), "
            f"{len(self.missing_rounds)} missing, "
            f"{len(self.client_mismatches)} client digest mismatches, "
            f"{len(self.wire_mismatches)} wire digest mismatches"
        )


class _CaptureLedger:
    """A ledger-shaped sink: collects the replay's records in memory."""

    def __init__(self) -> None:
        self.records: list[tuple[str, dict]] = []

    def append(self, type_: str, data: dict) -> None:
        self.records.append((type_, data))

    def of_type(self, type_: str) -> list[dict]:
        return [data for recorded_type, data in self.records if recorded_type == type_]


def _diff_round(recorded: dict, replayed: dict) -> dict:
    mismatches = {}
    for key in OBSERVABLES:
        if key in recorded and key in replayed and recorded[key] != replayed[key]:
            mismatches[key] = (recorded[key], replayed[key])
    return mismatches


#: Record types that end a ``schedule`` span (see :func:`_replay_walk`).
_SCHEDULE_ENDS = ("schedule_done", "schedule_failed")


def _replay_walk(driver, view, report: ReplayReport) -> None:
    """Re-execute a recording's structural records against ``driver``.

    ``driver`` is either deployment shape: the whole lifecycle surface is
    :class:`~repro.core.driver.RoundDriver`'s.  Link rules for the
    ``"clients"`` target are re-installed; rules for a server target are
    skipped, because all they change is which attempt of a round succeeds,
    and the forced attempt numbers already carry that.

    Everything recorded *inside* a ``schedule`` span — churn events and the
    client/session records the events generated, window and round records,
    link losses — is skipped record-by-record: the span is re-executed
    wholesale by ``run_continuous`` with the churn script the ``schedule``
    record carries, which regenerates all of it at the same boundaries.
    """
    from ..crypto.keys import PublicKey
    from ..net import CLIENTS, LinkRule
    from ..runtime.scheduler import ChurnEvent

    records = list(view)
    index = 0
    while index < len(records):
        record = records[index]
        data = record.data
        if record.type == "client_added":
            if data["name"] not in driver.clients:
                driver.add_client(data["name"])
        elif record.type == "client_removed":
            driver.remove_client(data["name"])
        elif record.type == "client_parked":
            driver.park_client(data["name"])
        elif record.type == "client_resumed":
            driver.resume_client(data["name"])
        elif record.type == "session_added":
            session = driver.add_session(data["name"], auto_accept=data["auto_accept"])
            session.greetings.extend(
                bytes.fromhex(greeting) for greeting in data["greetings"]
            )
            if data.get("flood_target") is not None:
                session.flood_target = PublicKey(bytes.fromhex(data["flood_target"]))
        elif record.type == "dial":
            driver.scheduler.session(data["name"]).dial(
                PublicKey(bytes.fromhex(data["peer"]))
            )
        elif record.type == "say":
            driver.scheduler.session(data["name"]).say(
                bytes.fromhex(data["message"])
            )
        elif record.type == "link_rule_added":
            if data["target"] == CLIENTS:
                driver.add_link_rule(
                    CLIENTS, LinkRule.from_dict(data["rule"]), seed=int(data["seed"])
                )
        elif record.type == "links_healed":
            driver.heal_links(data["target"])
        elif record.type == "schedule":
            end = index + 1
            while end < len(records) and records[end].type not in _SCHEDULE_ENDS:
                end += 1
            if end < len(records) and records[end].type == "schedule_failed":
                index = end  # never re-run a crashed plan: refuse it below
                continue
            # Serial replay of a possibly-overlapped plan is sound: the
            # scheduler's whole design guarantee is that overlapped execution
            # is byte-identical to serial execution.  The churn script rides
            # in the schedule record, so population changes re-apply at the
            # same round boundaries they originally hit.
            driver.run_continuous(
                data["conversation_rounds"],
                dialing_interval=data["dialing_interval"],
                pipeline_depth=1,
                churn=[
                    ChurnEvent.from_dict(event) for event in data.get("churn", ())
                ],
            )
            # The span's terminator (if any) is the next record handled.
            report.records_replayed += end - index
            index = end
            continue
        elif record.type == "single_round":
            driver.scheduler.run_round(data["protocol"])
        elif record.type == "schedule_failed":
            raise LedgerError(
                f"{view.path}: the recording crashed mid-schedule "
                f"({data.get('error', 'unknown error')}) — replay "
                "reconstructs completed plans only"
            )
        elif record.type == "schedule_done":
            replayed_digests = driver.ledger_client_digests()
            for name, recorded_digest in data.get("clients", {}).items():
                replayed_digest = replayed_digests.get(name)
                if recorded_digest != replayed_digest:
                    report.client_mismatches[name] = (
                        recorded_digest,
                        replayed_digest,
                    )
        report.records_replayed += 1
        index += 1


def _replay(source, build_driver, *, diff_wires: bool) -> ReplayReport:
    """Rebuild the recorded session on ``build_driver(head, config)`` and diff it.

    Recorded attempt numbers are forced onto the fresh windows
    (:meth:`~repro.core.driver.RoundDriver.force_attempts`) and the replay's
    own records flow into an in-memory capture, which is what the recorded
    observables are diffed against.
    """
    view = source if isinstance(source, LedgerView) else load_ledger(source)
    head = [record for record in view if record.type == "session_start"]
    if not head:
        raise LedgerError(f"{view.path}: no session_start record — nothing to replay")
    if len(head) > 1:
        raise LedgerError(f"{view.path}: multiple sessions in one ledger")
    from ..core.config import VuvuzelaConfig

    config = VuvuzelaConfig.from_dict(head[0].data["config"])
    recorded_rounds = {
        (record.data["protocol"], record.data["round"]): record.data
        for record in view.of_type("round_metrics")
    }

    report = ReplayReport()
    capture = _CaptureLedger()
    with build_driver(head[0].data, config) as driver:
        driver.attach_ledger(capture)
        driver.force_attempts(
            {key: int(data.get("attempts", 1)) for key, data in recorded_rounds.items()}
        )
        _replay_walk(driver, view, report)

    replayed_rounds = {
        (data["protocol"], data["round"]): data for data in capture.of_type("round_metrics")
    }
    for key, recorded in sorted(recorded_rounds.items()):
        replayed = replayed_rounds.get(key)
        if replayed is None:
            report.missing_rounds.append(key)
            continue
        report.rounds.append(
            RoundDiff(
                protocol=key[0],
                round_number=key[1],
                mismatches=_diff_round(recorded, replayed),
            )
        )
    if diff_wires:

        def closes(records) -> dict:
            return {
                (data["kind"], data["round"], data["attempt"]): data["submissions_sha256"]
                for data in records
            }

        replayed_closes = closes(capture.of_type("window_close"))
        recorded_closes = closes(record.data for record in view.of_type("window_close"))
        for key, digest in sorted(recorded_closes.items()):
            if replayed_closes.get(key) != digest:
                report.wire_mismatches.append(key)
    return report


def replay_ledger(source: str | os.PathLike | LedgerView) -> ReplayReport:
    """Re-execute a recorded session from its ledger alone and diff it.

    ``source`` is a ledger file path or an already-loaded
    :class:`~repro.ledger.writer.LedgerView` (e.g. a campaign's violation
    slice).  Raises :class:`~repro.errors.LedgerError` when the ledger has no
    ``session_start`` record or records a schedule that never completed —
    replay reconstructs completed work, it does not resume crashed plans.
    """
    from ..core.system import VuvuzelaSystem

    def build_system(_head: dict, config) -> VuvuzelaSystem:
        system = VuvuzelaSystem(config)
        system.realtime_links = False  # same hash-keyed draws, never sleeping
        return system

    return _replay(source, build_system, diff_wires=True)


def replay_ledger_over_tcp(
    source: str | os.PathLike | LedgerView,
    *,
    startup_timeout: float = 60.0,
) -> ReplayReport:
    """Replay a recording over an actual multi-process TCP deployment.

    The cross-shape closing of the loop: a recording made by *either* shape
    is re-executed against freshly spawned entry + chain server processes,
    and the same shape-invariant observables are diffed.  Recorded attempt
    numbers are forced through the open-round control command (the entry's
    coordinator then draws attempt N's noise streams directly), and recorded
    ``"clients"`` link rules are re-installed on the launcher's client edge.

    The wire-level ``window_close`` check does not apply here: over TCP the
    coordinator lives in the entry process, which never writes the replay's
    ledger — round observables and client digests carry the comparison.
    """
    from ..core.deployment import DeploymentLauncher

    def build_launcher(head: dict, config):
        deadline = head.get("round_deadline_seconds")
        return DeploymentLauncher(
            config,
            startup_timeout=startup_timeout,
            round_deadline_seconds=None if deadline is None else float(deadline),
            deadline_only_windows=bool(head.get("deadline_only_windows", False)),
        )

    return _replay(source, build_launcher, diff_wires=False)


__all__ = [
    "OBSERVABLES",
    "ReplayReport",
    "RoundDiff",
    "replay_ledger",
    "replay_ledger_over_tcp",
]
