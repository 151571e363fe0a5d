"""Seeded campaigns: chain faults, WAN weather, churn and a flood, checked.

A :class:`Campaign` drives a continuous deployment through many *segments*,
in **either deployment shape** — the in-process
:class:`~repro.core.system.VuvuzelaSystem` or a real multi-process TCP
:class:`~repro.core.deployment.DeploymentLauncher` — and reaches it only
through the :class:`~repro.core.driver.RoundDriver` chaos surface.  Each
segment composes four stressors over the ordinary overlapped scheduler:

* **chain faults** — count-bounded kill / drop rules on inter-server hops,
  each reducing to a §6 abort/retry trail the round survives;
* **WAN link conditioning** — the client access edge (the paper's DSL/3G
  clients, §8) gets seeded latency, jitter and hash-keyed loss on
  conversation submissions (:func:`edge_rules`).  A lost submission is a
  lost round for that client; §3.1 retransmission carries the message on;
* **mid-session churn** — :class:`~repro.runtime.ChurnEvent` scripts join,
  park, resume, remove, re-dial and speak at round boundaries *inside* the
  schedule;
* **adversarial load** — a clique of flooder sessions runs the targeted
  dead-drop flood from :mod:`repro.adversary.workloads` against a victim,
  and every segment appends a ``privacy_load_point`` record: the victim
  bucket's load next to the Laplace accountant's (ε, δ).

Clear weather and no flood (``loss=0.0, flood_attackers=0``) leaves faults
and churn only.  After every segment :func:`check_invariants` checks
:data:`INVARIANTS`; on a violation the campaign writes the ledger prefix
ending at the segment's last violation record to
``<ledger>.violation.jsonl`` — a minimal, hash-chain-valid, directly
replayable reproduction — and stops.

Chain faults and weather are both :class:`~repro.net.LinkRule` objects,
installed through the driver's one ``add_link_rule`` seam.  Every draw is
deterministic: link rule draws are hash-keyed on the message's identity (see
:class:`~repro.net.LinkConditioner`), the churn script rides inside the
ledger's ``schedule`` records, and forced attempt numbers cover §6 retries —
so a campaign ledger replays bit-identically through
:func:`~repro.ledger.replay_ledger` or
:func:`~repro.ledger.replay_ledger_over_tcp`.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .scheduler import ChurnEvent
from ..crypto.rng import DeterministicRandom
from ..errors import LedgerError, NetworkError, ProtocolError
from ..ledger import LedgerWriter, load_ledger, slice_ledger
from ..net import CLIENTS, LinkRule, LinkSpec, MessageKind
from ..privacy import audit_ledger_records, conversation_guarantee, dialing_guarantee

#: The deployment shapes a campaign can drive.
CAMPAIGN_SHAPES = ("in-process", "tcp")

#: Each segment draws 0..this many chain fault rules.
_MAX_FAULT_RULES = 2
#: Conversation rounds between dialing rounds inside a segment.
_DIALING_INTERVAL = 2
#: Over TCP, lost client submissions mean expected counts can never be met:
#: windows close on this deadline, like the paper's.
_TCP_ROUND_DEADLINE_SECONDS = 1.0
#: Edge bandwidth when only latency is asked for: effectively unmetered
#: (:class:`~repro.net.LinkSpec` requires a positive bandwidth).
_UNMETERED = 1e9


class Invariants(NamedTuple):
    """The ids of the invariants every settled segment must satisfy."""

    #: No client — online or parked — holds a duplicate plaintext.  Every
    #: campaign message body is unique, so a §6 retry that executed a batch
    #: twice (or a refund that ran twice) surfaces as a repeated body.
    exactly_once: str = "exactly_once"
    #: No accepted submission is still parked: the entry buffers and the
    #: coordinator's permanent-failure queue are empty.
    refund_conservation: str = "refund_conservation"
    #: Each accountant's ``rounds_used`` equals the rounds the ledger
    #: records, and the recorded (ε, δ) checkpoints recompose under
    #: Theorem 2 (:func:`~repro.privacy.audit_ledger_records`).
    accountant: str = "accountant"


INVARIANTS = Invariants()


def check_invariants(driver, ledger_path: str | Path, segment: int) -> list[tuple[str, str]]:
    """Check :data:`INVARIANTS` against a settled driver and its ledger.

    Returns one ``(invariant id, detail)`` pair per failure; empty when
    every invariant holds.
    """
    failures: list[tuple[str, str]] = []

    # Parked clients keep their mailboxes: a resume that replayed a batch
    # would plant its duplicate right there.
    for name in driver.ledger_client_digests():
        bodies = [message.body for message in driver.client(name).received]
        if len(bodies) != len(set(bodies)):
            failures.append(
                (
                    INVARIANTS.exactly_once,
                    f"client {name} holds duplicate plaintexts after segment {segment}",
                )
            )

    parked = driver.resubmission_parked()
    if parked:
        failures.append(
            (
                INVARIANTS.refund_conservation,
                f"permanently failed submissions parked after segment {segment}: {parked}",
            )
        )
    buffered = driver.buffered_total()
    if buffered:
        failures.append(
            (
                INVARIANTS.refund_conservation,
                f"{buffered} submissions still buffered at the entry after segment {segment}",
            )
        )

    config = driver.config
    ledger = load_ledger(ledger_path)
    session = [record.data for record in ledger.of_type("session_start")[:1]]
    rounds = [record.data for record in ledger.of_type("round_metrics")]
    for protocol, accountant, guarantee in (
        (
            "conversation",
            driver.conversation_accountant,
            conversation_guarantee(config.conversation_noise),
        ),
        ("dialing", driver.dialing_accountant, dialing_guarantee(config.dialing_noise)),
    ):
        recorded = [data for data in rounds if data["protocol"] == protocol]
        if accountant.rounds_used != len(recorded):
            failures.append(
                (
                    INVARIANTS.accountant,
                    f"{protocol} accountant spent {accountant.rounds_used} rounds but "
                    f"the ledger records {len(recorded)}",
                )
            )
        audit = audit_ledger_records(
            session + recorded,
            protocol=protocol,
            per_round=guarantee,
            target_epsilon=config.target_epsilon,
            target_delta=config.target_delta,
            composition_d=config.composition_d,
        )
        for divergence in audit.divergences:
            failures.append((INVARIANTS.accountant, divergence))
    return failures


def edge_rules(
    loss: float, latency_seconds: float, jitter_seconds: float
) -> list[LinkRule]:
    """The client-edge link rules for one weather setting.

    Loss applies to conversation submissions only: a lost conversation
    request is exactly the §3.1 offline case (the client retransmits next
    round), while a lost ``DIAL_DOWNLOAD`` would surface as a hard
    :class:`~repro.errors.NetworkError` — a *fault*, not weather.  Latency
    and jitter shape both submission kinds (timing only, never bytes); a
    conversation submission that survives the loss rule still pays them.
    """
    rules: list[LinkRule] = []
    if loss > 0.0:
        rules.append(
            LinkRule(
                action="drop",
                destination="entry",
                kind=MessageKind.CONVERSATION_REQUEST,
                probability=loss,
            )
        )
    if latency_seconds > 0.0 or jitter_seconds > 0.0:
        spec = (
            LinkSpec(bandwidth_bytes_per_sec=_UNMETERED, latency_seconds=latency_seconds)
            if latency_seconds > 0.0
            else None
        )
        for kind in (MessageKind.CONVERSATION_REQUEST, MessageKind.DIALING_REQUEST):
            rules.append(
                LinkRule(
                    action="delay",
                    destination="entry",
                    kind=kind,
                    spec=spec,
                    jitter_seconds=jitter_seconds,
                )
            )
    return rules


@dataclass
class InvariantViolation:
    """One failed campaign invariant, and where its evidence lives."""

    segment: int
    invariant: str
    detail: str
    #: Hash-chain-valid ledger prefix reproducing the violation, or ``None``
    #: if the slice itself could not be written.
    slice_path: str | None = None


@dataclass
class CampaignReport:
    """What a campaign did, and whether the invariants held."""

    shape: str
    seed: int
    segments_run: int = 0
    conversation_rounds: int = 0
    dialing_rounds: int = 0
    fault_rules_drawn: int = 0
    aborted_attempts: int = 0
    #: Churn events applied, by :data:`~repro.runtime.CHURN_ACTIONS` action.
    churn: Counter = field(default_factory=Counter)
    #: Total plaintexts delivered across the whole population (online and
    #: parked) — the goodput numerator of the degradation benchmark.
    messages_delivered: int = 0
    #: The ``"clients"`` target's link counters at campaign end.
    link_stats: dict = field(default_factory=dict)
    #: One privacy-vs-load point per segment (the flood's curve), as dicts.
    flood_points: list = field(default_factory=list)
    ledger_path: str | None = None
    ledger_records: int = 0
    violations: list[InvariantViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def link_losses(self) -> int:
        return int(self.link_stats.get("lost", 0))

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATIONS"
        churn = " ".join(f"{action}×{n}" for action, n in sorted(self.churn.items()))
        return (
            f"campaign [{self.shape}] seed={self.seed}: "
            f"{self.segments_run} segments, "
            f"{self.conversation_rounds}+{self.dialing_rounds} rounds, "
            f"{self.fault_rules_drawn} fault rules, "
            f"{self.aborted_attempts} aborted attempts, "
            f"{self.link_losses} submissions lost, "
            f"churn [{churn or 'none'}], "
            f"{self.messages_delivered} delivered — {status}"
        )


class Campaign:
    """Seeded, segment-structured stress driver over either deployment shape.

    All campaign decisions (fault rules, churn scripts) come from one
    :class:`~repro.crypto.rng.DeterministicRandom` stream forked off
    ``seed`` — separate from the config seed, so the deployment's protocol
    bytes never depend on the campaign plan, and the same seed draws the
    same campaign in both shapes.
    """

    def __init__(
        self,
        config,
        *,
        shape: str = "in-process",
        seed: int = 0,
        ledger_path: str | Path,
        rounds_per_segment: int = 3,
        loss: float = 0.1,
        latency_seconds: float = 0.0,
        jitter_seconds: float = 0.0,
        flood_attackers: int = 2,
    ) -> None:
        if shape not in CAMPAIGN_SHAPES:
            raise ProtocolError(
                f"unknown campaign shape {shape!r}; expected one of {CAMPAIGN_SHAPES}"
            )
        if rounds_per_segment < 2:
            # Churn events land *inside* a segment (before rounds 1..n-1);
            # a one-round segment has no interior boundary to land on.
            raise ProtocolError("a campaign segment needs at least two rounds")
        self.config = config
        self.shape = shape
        self.seed = seed
        self.ledger_path = Path(ledger_path)
        self.rounds_per_segment = rounds_per_segment
        self.loss = loss
        self.latency_seconds = latency_seconds
        self.jitter_seconds = jitter_seconds
        self.flood_attackers = flood_attackers
        self._rng = DeterministicRandom(seed).fork("campaign")
        self._messages_sent = 0
        self._joined = 0
        #: Campaign-side mirror of the churnable population: who is live,
        #: who is parked — kept in draw order so scripts stay applicable.
        self._churn_active: set[str] = set()
        self._churn_parked: set[str] = set()
        #: Chain hops whose sending side holds fault rules we installed.
        self._chain_targets: set[int] = set()

    # -------------------------------------------------------------- randomness

    def _randrange(self, n: int) -> int:
        """A deterministic draw in [0, n) (tiny modulo bias is irrelevant —
        this stream only picks campaign shapes, never protocol bytes)."""
        return self._rng.random_uint(64) % n

    def _choice(self, options):
        return options[self._randrange(len(options))]

    def _next_message(self, name: str) -> str:
        """Globally unique bodies: a duplicate plaintext anywhere proves a
        twice-executed batch (the exactly-once invariant)."""
        self._messages_sent += 1
        return f"campaign-msg-{self._messages_sent}-from-{name}"

    # ------------------------------------------------------------ chain faults

    def _draw_fault_rules(self) -> list[tuple[int, LinkRule]]:
        """A segment's fault rules: deterministic, bounded, chain-hop only.

        Each is a ``(target, rule)`` pair that kills or drops batches on an
        inter-server hop (dropping a client's own submission would change
        the batch).  Rules are count-bounded below the retry budget: a round
        survives at most ``max_round_attempts - 1`` aborts, and every fault
        on one protocol's chain may land on the same round, so the counts
        per protocol sum to at most that.
        """
        budget = dict.fromkeys(("conversation", "dialing"), self.config.max_round_attempts - 1)
        rules = []
        for _ in range(self._randrange(_MAX_FAULT_RULES + 1)):
            hop = 1 + self._randrange(self.config.num_servers - 1)
            protocol = self._choice(("conversation", "dialing"))
            if budget[protocol] < 1:
                continue
            count = 1 + self._randrange(budget[protocol])
            budget[protocol] -= count
            rule = LinkRule(
                action=self._choice(("kill", "drop")),
                destination=f"server-{hop}/{protocol}",
                count=count,
            )
            # "server-H/<protocol>" is *received* by chain hop H; the rule
            # must live in the process that sends to it, hop H - 1.
            rules.append((hop - 1, rule))
        return rules

    def _install_link_rules(self, driver, rules: list[tuple[str | int, LinkRule]]) -> None:
        """The one way a campaign makes links misbehave: heal the chain
        hops the previous call faulted, then install ``rules``."""
        for target in sorted(self._chain_targets):
            driver.heal_links(target)
        self._chain_targets = {target for target, _ in rules if target != CLIENTS}
        for target, rule in rules:
            driver.add_link_rule(target, rule, seed=self.seed)

    # ------------------------------------------------------------------- churn

    def _draw_churn(self, alice_hex: str, bob_hex: str) -> list[ChurnEvent]:
        """A segment's churn script: 0..2 events at interior boundaries.

        Boundaries are drawn first and sorted, so the script's application
        order matches the draw order — a client is never resumed at an
        earlier boundary than the park that stranded it.  Newcomers dial
        ``anchor-alice`` (hex key ``alice_hex``) so their traffic carries
        content; a ``dial`` re-dials ``anchor-bob`` from ``anchor-alice``.
        """
        count = self._randrange(3)
        boundaries = sorted(
            1 + self._randrange(self.rounds_per_segment - 1) for _ in range(count)
        )
        events: list[ChurnEvent] = []
        for boundary in boundaries:
            options = ["join", "say", "dial"]
            if self._churn_active:
                options += ["park", "remove"]
            if self._churn_parked:
                options.append("resume")
            action = self._choice(options)
            name, peer, message = "anchor-alice", None, None
            if action == "join":
                name = f"churn-{self._joined}"
                self._joined += 1
                self._churn_active.add(name)
                peer, message = alice_hex, self._next_message(name)
            elif action == "say":
                message = self._next_message(name)
            elif action == "dial":
                peer = bob_hex
            elif action == "resume":
                name = self._choice(sorted(self._churn_parked))
                self._churn_parked.discard(name)
                self._churn_active.add(name)
            else:  # park / remove
                name = self._choice(sorted(self._churn_active))
                self._churn_active.discard(name)
                if action == "park":
                    self._churn_parked.add(name)
            events.append(
                ChurnEvent(
                    before_round=boundary, action=action, name=name, peer=peer, message=message
                )
            )
        return events

    # ------------------------------------------------------------- flood curve

    def _flood_point(self, driver, schedule, victim_bucket: int, writer) -> dict | None:
        """The victim bucket's load vs the accountant, after one segment."""
        if not schedule.dialing:
            return None
        from ..adversary.workloads import PrivacyLoadPoint

        round_number = schedule.dialing[-1].round_number
        sizes = driver.invitation_store(round_number).bucket_sizes()
        others = [size for index, size in sizes.items() if int(index) != victim_bucket]
        accountant = driver.dialing_accountant
        guarantee = accountant.current_guarantee()
        point = PrivacyLoadPoint(
            round_number=round_number,
            load=int(sizes.get(victim_bucket, 0)),
            baseline=statistics.mean(others) if others else 0.0,
            epsilon=guarantee.epsilon,
            delta=guarantee.delta,
            rounds_used=accountant.rounds_used,
        ).to_dict()
        writer.append("privacy_load_point", point)
        return point

    # --------------------------------------------------------------------- run

    def _build_driver(self):
        """The one place the campaign knows its shape: which
        :class:`~repro.core.driver.RoundDriver` to construct."""
        if self.shape == "tcp":
            from ..core.deployment import DeploymentLauncher

            return DeploymentLauncher(
                self.config,
                round_deadline_seconds=_TCP_ROUND_DEADLINE_SECONDS,
                deadline_only_windows=True,
            )
        from ..core.system import VuvuzelaSystem

        return VuvuzelaSystem(self.config)

    def run(self, segments: int) -> CampaignReport:
        """Run ``segments`` segments; stop early on a violation."""
        report = CampaignReport(
            shape=self.shape, seed=self.seed, ledger_path=str(self.ledger_path)
        )
        # The writer outlives the driver: teardown appends ``session_end``.
        writer = LedgerWriter(self.ledger_path)
        try:
            with self._build_driver() as driver:
                self._run_segments(driver, writer, report, segments)
        finally:
            writer.close()
            report.ledger_records = writer.records_written
        return report

    def _run_segments(self, driver, writer, report: CampaignReport, segments: int) -> None:
        from ..crypto import invitation_dead_drop

        driver.attach_ledger(writer)
        alice = driver.add_session("anchor-alice")
        driver.add_session("anchor-bob")
        alice.dial(driver.client("anchor-bob").public_key)
        alice.say(self._next_message("anchor-alice"))
        alice_hex = bytes(driver.client("anchor-alice").public_key).hex()
        bob_hex = bytes(driver.client("anchor-bob").public_key).hex()
        victim_bucket = None
        if self.flood_attackers:
            driver.add_session("victim")
            victim_key = driver.client("victim").public_key
            victim_bucket = invitation_dead_drop(victim_key, self.config.num_dialing_buckets)
            for index in range(self.flood_attackers):
                driver.add_session(f"flooder-{index}", flood_target=victim_key)

        weather = edge_rules(self.loss, self.latency_seconds, self.jitter_seconds)
        self._install_link_rules(driver, [(CLIENTS, rule) for rule in weather])

        for segment in range(segments):
            writer.append("campaign_segment", {"segment": segment})
            rules = self._draw_fault_rules()
            self._install_link_rules(driver, rules)
            report.fault_rules_drawn += len(rules)
            churn = self._draw_churn(alice_hex, bob_hex) if segment > 0 else []
            report.churn.update(event.action for event in churn)

            try:
                schedule = driver.run_continuous(
                    self.rounds_per_segment,
                    dialing_interval=_DIALING_INTERVAL,
                    pipeline_depth=self.config.pipeline_depth,
                    churn=churn,
                )
            except (NetworkError, ProtocolError) as exc:
                failures = [("round_failure", f"segment {segment} failed permanently: {exc}")]
            else:
                report.segments_run += 1
                report.conversation_rounds += len(schedule.conversation)
                report.dialing_rounds += len(schedule.dialing)
                report.aborted_attempts = driver.aborted_total()
                if victim_bucket is not None:
                    point = self._flood_point(driver, schedule, victim_bucket, writer)
                    if point is not None:
                        report.flood_points.append(point)
                failures = check_invariants(driver, self.ledger_path, segment)
            if failures:
                self._violate(report, writer, segment, failures)
                break

        report.messages_delivered = sum(
            len(driver.client(name).received) for name in driver.ledger_client_digests()
        )
        report.link_stats = driver.link_stats()

    def _violate(
        self,
        report: CampaignReport,
        writer: LedgerWriter,
        segment: int,
        failures: list[tuple[str, str]],
    ) -> None:
        """Record a stopping segment's failures and slice the ledger once.

        Every violation record is appended before the slice is cut, so the
        one slice — a prefix ending at the segment's last violation record —
        holds the evidence for each of them.
        """
        for invariant, detail in failures:
            record = writer.append(
                "invariant_violation",
                {"segment": segment, "invariant": invariant, "detail": detail},
            )
        writer.flush()  # the slice below reads the file back
        slice_path: str | None = str(self.ledger_path) + ".violation.jsonl"
        try:
            slice_ledger(self.ledger_path, slice_path, upto_seq=record.seq)
        except (LedgerError, OSError):  # pragma: no cover - evidence is best-effort
            slice_path = None
        report.violations.extend(
            InvariantViolation(
                segment=segment, invariant=invariant, detail=detail, slice_path=slice_path
            )
            for invariant, detail in failures
        )


__all__ = [
    "CAMPAIGN_SHAPES",
    "INVARIANTS",
    "Campaign",
    "CampaignReport",
    "InvariantViolation",
    "Invariants",
    "check_invariants",
    "edge_rules",
]
