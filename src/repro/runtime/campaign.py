"""Long-running chaos campaigns: randomized faults + churn, checked invariants.

A :class:`ChaosCampaign` drives a continuous in-process deployment through
many *segments*.  Before each segment it draws, from its own seeded
:class:`~repro.crypto.rng.DeterministicRandom` stream, a batch of fault rules
(kill / drop on inter-server chain hops, always count-bounded so every round
eventually succeeds within its §6 retry budget) and a churn action (a new
client joins mid-session, an old one crashes away, someone re-dials); then it
runs the segment's rounds through the ordinary overlapped scheduler and
checks the campaign invariants:

* **exactly-once delivery** — no client ever holds a duplicate plaintext:
  every campaign message body is unique, so a §6 retry that executed a batch
  twice (or a refund that ran twice) would surface as a repeated body;
* **refund conservation** — after a segment settles, no accepted submission
  is still parked anywhere: the entry buffers and the coordinator's
  permanent-failure queue are empty (every refund either re-ran or was
  accounted as a failed round, which the campaign treats as a violation too);
* **accountant consistency** — each protocol's ``rounds_used`` equals the
  rounds the ledger actually records, and the recorded (ε, δ) checkpoints
  recompose exactly under Theorem 2
  (:func:`~repro.privacy.accountant.audit_ledger_records`).

Every segment is recorded into an append-only round ledger.  On a violation
the campaign writes the ledger prefix up to the offending record to
``<ledger>.violation.jsonl`` — a minimal, hash-chain-valid, directly
replayable reproduction (:func:`~repro.ledger.replay_ledger`) — and stops.

Only deterministic fault shapes are drawn: rules fire with probability 1.0
on inter-server hops (never on client submissions), so a campaign with the
same seed produces the same kills, the same retries, and the same ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..crypto.rng import DeterministicRandom
from ..errors import NetworkError, ProtocolError
from ..ledger import LedgerWriter, load_ledger, slice_ledger
from ..privacy import audit_ledger_records, conversation_guarantee, dialing_guarantee

#: Fault actions a campaign may draw (both reduce to §6 abort/retry trails).
CAMPAIGN_ACTIONS = ("kill", "drop")


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
    """What a chaos campaign did, and whether the invariants held."""

    seed: int
    segments_run: int = 0
    conversation_rounds: int = 0
    dialing_rounds: int = 0
    fault_rules_drawn: int = 0
    aborted_attempts: int = 0
    clients_joined: int = 0
    clients_crashed: int = 0
    ledger_path: str | None = None
    ledger_records: int = 0
    violations: list[InvariantViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATIONS"
        return (
            f"chaos campaign seed={self.seed}: {self.segments_run} segments, "
            f"{self.conversation_rounds}+{self.dialing_rounds} rounds, "
            f"{self.fault_rules_drawn} fault rules, "
            f"{self.aborted_attempts} aborted attempts, "
            f"+{self.clients_joined}/-{self.clients_crashed} clients — {status}"
        )


class ChaosCampaign:
    """Seeded, segment-structured chaos driver over one in-process system."""

    def __init__(
        self,
        config,
        *,
        seed: int = 0,
        ledger_path: str | Path,
        rounds_per_segment: int = 4,
        dialing_interval: int = 2,
        fsync: str = "round",
    ) -> None:
        if rounds_per_segment < 1:
            raise ProtocolError("a campaign segment needs at least one round")
        self.config = config
        self.seed = seed
        self.ledger_path = Path(ledger_path)
        self.rounds_per_segment = rounds_per_segment
        self.dialing_interval = dialing_interval
        self.fsync = fsync
        #: The campaign's own decision stream — separate from the config
        #: seed, so the *deployment's* bytes never depend on the chaos plan.
        self._rng = DeterministicRandom(seed).fork("chaos-campaign")
        self._messages_sent = 0
        self._joined = 0

    # -------------------------------------------------------------- randomness

    def _randrange(self, n: int) -> int:
        """A deterministic draw in [0, n) (tiny modulo bias is irrelevant —
        this stream only picks chaos shapes, never protocol bytes)."""
        return self._rng.random_uint(64) % n

    def _choice(self, options):
        return options[self._randrange(len(options))]

    def _draw_fault_rules(self, system) -> list[dict]:
        """A segment's fault rules: deterministic, bounded, chain-hop only.

        Rules are restricted to shapes whose *only* observable effect is the
        round's attempt counter: probability 1.0 (the injector's shared rng
        stream is consumed in nondeterministic arrival order, so fractional
        probabilities would break seeded reproducibility under overlap), on
        inter-server destinations (dropping a client's own submission would
        change the batch), count-bounded below the retry budget (the round
        must eventually succeed).
        """
        # A round survives at most max_round_attempts - 1 aborts, and every
        # fault on one protocol's chain consumes abort budget from the same
        # round in the worst case — so the segment's rule counts must sum to
        # at most that, per protocol.
        budget = {
            "conversation": self.config.max_round_attempts - 1,
            "dialing": self.config.max_round_attempts - 1,
        }
        rules = []
        for _ in range(self._randrange(3)):  # 0..2 rules per segment
            hop = 1 + self._randrange(self.config.num_servers - 1)
            protocol = self._choice(("conversation", "dialing"))
            if budget[protocol] < 1:
                continue
            count = 1 + self._randrange(budget[protocol])
            budget[protocol] -= count
            rules.append(
                {
                    "action": self._choice(CAMPAIGN_ACTIONS),
                    "destination": f"server-{hop}/{protocol}",
                    "count": count,
                    "probability": 1.0,
                }
            )
        return rules

    # ------------------------------------------------------------------- churn

    def _churn(self, system, report: CampaignReport) -> None:
        """One churn action between segments: join, crash, or re-dial."""
        removable = [
            name for name in sorted(system.clients) if name.startswith("churn-")
        ]
        action = self._choice(("join", "crash", "redial", "none"))
        if action == "join" or (action == "crash" and not removable):
            name = f"churn-{self._joined}"
            self._joined += 1
            session = system.add_session(name)
            # Every newcomer dials an anchor so its traffic carries content.
            session.dial(system.client("anchor-alice").public_key)
            session.say(self._next_message(name))
            report.clients_joined += 1
        elif action == "crash" and removable:
            system.remove_client(self._choice(removable))
            report.clients_crashed += 1
        elif action == "redial":
            caller = system.scheduler.session("anchor-alice")
            caller.dial(system.client("anchor-bob").public_key)
            caller.say(self._next_message("anchor-alice"))

    def _next_message(self, name: str) -> bytes:
        """Campaign messages are globally unique: duplicates prove a replayed
        batch, which is exactly what the exactly-once invariant watches for."""
        self._messages_sent += 1
        return f"campaign-msg-{self._messages_sent}-from-{name}".encode("utf-8")

    # -------------------------------------------------------------- invariants

    def _check_invariants(self, system, segment: int) -> list[tuple[str, str]]:
        failures: list[tuple[str, str]] = []

        # Exactly-once delivery: unique bodies ⇒ a duplicate plaintext in any
        # client's mailbox means some batch executed twice.
        for name in sorted(system.clients):
            bodies = [message.body for message in system.clients[name].received]
            if len(bodies) != len(set(bodies)):
                failures.append(
                    (
                        "exactly_once",
                        f"client {name} holds duplicate plaintexts after "
                        f"segment {segment}",
                    )
                )

        # Refund conservation: a settled deployment holds no parked messages.
        parked = system.resubmission_parked()
        if parked:
            failures.append(
                (
                    "refund_conservation",
                    f"permanently failed submissions parked after segment "
                    f"{segment}: {parked}",
                )
            )
        buffered = system.buffered_total()
        if buffered:
            failures.append(
                (
                    "refund_conservation",
                    f"{buffered} submissions still buffered at the entry "
                    f"after segment {segment}",
                )
            )

        # Accountant consistency: recorded checkpoints must recompose.
        view = load_ledger(self.ledger_path)
        rounds = [record.data for record in view.of_type("round_metrics")]
        for protocol, guarantee in (
            ("conversation", conversation_guarantee(self.config.conversation_noise)),
            ("dialing", dialing_guarantee(self.config.dialing_noise)),
        ):
            recorded = [data for data in rounds if data["protocol"] == protocol]
            if system._accountants[protocol].rounds_used != len(recorded):
                failures.append(
                    (
                        "accountant",
                        f"{protocol} accountant spent "
                        f"{system._accountants[protocol].rounds_used} rounds but "
                        f"the ledger records {len(recorded)}",
                    )
                )
            audit = audit_ledger_records(
                recorded,
                protocol=protocol,
                per_round=guarantee,
                target_epsilon=self.config.target_epsilon,
                target_delta=self.config.target_delta,
                composition_d=self.config.composition_d,
            )
            for divergence in audit.divergences:
                failures.append(("accountant", divergence))
        return failures

    # --------------------------------------------------------------------- run

    def run(self, segments: int) -> CampaignReport:
        """Run ``segments`` chaos segments; stop early on a violation."""
        from ..core.system import VuvuzelaSystem

        report = CampaignReport(seed=self.seed, ledger_path=str(self.ledger_path))
        with VuvuzelaSystem(self.config) as system:
            writer = LedgerWriter(self.ledger_path, fsync=self.fsync)
            try:
                system.attach_ledger(writer)
                alice = system.add_session("anchor-alice")
                system.add_session("anchor-bob")
                alice.dial(system.client("anchor-bob").public_key)
                alice.say(self._next_message("anchor-alice"))
                injector = system.fault_injector(seed=self.seed)

                for segment in range(segments):
                    writer.append("campaign_segment", {"segment": segment})
                    injector.heal()
                    rules = self._draw_fault_rules(system)
                    for rule in rules:
                        if rule["action"] == "kill":
                            injector.kill_link(
                                destination=rule["destination"], count=rule["count"]
                            )
                        else:
                            injector.drop(
                                destination=rule["destination"], count=rule["count"]
                            )
                    report.fault_rules_drawn += len(rules)
                    if segment > 0:
                        self._churn(system, report)

                    try:
                        schedule = system.run_continuous(
                            self.rounds_per_segment,
                            dialing_interval=self.dialing_interval,
                            pipeline_depth=self.config.pipeline_depth,
                        )
                    except (NetworkError, ProtocolError) as exc:
                        self._violate(
                            report,
                            writer,
                            segment,
                            "round_failure",
                            f"segment {segment} failed permanently: {exc}",
                        )
                        break
                    report.segments_run += 1
                    report.conversation_rounds += len(schedule.conversation)
                    report.dialing_rounds += len(schedule.dialing)
                    report.aborted_attempts = system.aborted_total()

                    failures = self._check_invariants(system, segment)
                    if failures:
                        for invariant, detail in failures:
                            self._violate(report, writer, segment, invariant, detail)
                        break
            finally:
                writer.close()
                report.ledger_records = writer.records_written
        return report

    def _violate(
        self,
        report: CampaignReport,
        writer: LedgerWriter,
        segment: int,
        invariant: str,
        detail: str,
    ) -> None:
        record = writer.append(
            "invariant_violation",
            {"segment": segment, "invariant": invariant, "detail": detail},
        )
        writer.flush()  # the slice below reads the file back
        slice_path: str | None = str(self.ledger_path) + ".violation.jsonl"
        try:
            slice_ledger(self.ledger_path, slice_path, upto_seq=record.seq)
        except Exception:  # pragma: no cover - evidence is best-effort
            slice_path = None
        report.violations.append(
            InvariantViolation(
                segment=segment,
                invariant=invariant,
                detail=detail,
                slice_path=slice_path,
            )
        )


__all__ = [
    "CAMPAIGN_ACTIONS",
    "CampaignReport",
    "ChaosCampaign",
    "InvariantViolation",
]
