"""Degraded-mode campaigns: WAN weather + mid-session churn + adversarial load.

A :class:`WanChurnCampaign` is the robustness counterpart of
:class:`~repro.runtime.ChaosCampaign`: where the chaos campaign attacks the
*servers* (kills, drops, §6 abort/retry), this one attacks the *conditions*
the deployment runs under — and it runs in **either deployment shape**, the
in-process :class:`~repro.core.system.VuvuzelaSystem` or a real
multi-process TCP :class:`~repro.core.deployment.DeploymentLauncher`.

Each segment composes three stressors over the ordinary overlapped
scheduler:

* **WAN link conditioning** — the client access edge (the paper's DSL/3G
  clients, §8) gets a seeded :class:`~repro.net.LinkProfile`: latency,
  jitter, bandwidth serialisation, and hash-keyed loss on conversation
  submissions.  A lost submission is a lost round for that client; §3.1
  retransmission carries the message into the next round.
* **Mid-session churn** — seeded :class:`~repro.runtime.ChurnEvent` scripts
  join, park, resume and remove clients at round boundaries *inside* the
  schedule.  A resumed client re-dials and drains its outbox through the
  sequence-number dedup path; a removed client's server-side state is pruned
  (``forget_client``).
* **Adversarial load** — a clique of flooder sessions runs the targeted
  dead-drop flood from :mod:`repro.adversary.workloads` against a victim for
  the whole campaign, and every segment appends a ``privacy_load_point``
  record: the victim bucket's load next to the Laplace accountant's (ε, δ).

The same three invariants as the chaos campaign are checked after every
segment (exactly-once delivery, refund conservation, accountant
consistency) through the :class:`~repro.core.driver.RoundDriver` chaos
surface — in-process it reads the coordinator directly, over TCP it asks the
entry process over the control plane.
Loss decisions are hash-keyed (see :class:`~repro.net.LinkConditioner`), the
churn script rides inside the ledger's ``schedule`` records, and forced
attempt numbers cover §6 retries — so a campaign ledger replays
bit-identically through :func:`~repro.ledger.replay_ledger` (in-process
recordings) or :func:`~repro.ledger.replay_ledger_over_tcp`.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from pathlib import Path

from .campaign import InvariantViolation
from .scheduler import ChurnEvent
from ..crypto.rng import DeterministicRandom
from ..errors import NetworkError, ProtocolError
from ..ledger import LedgerWriter, load_ledger, slice_ledger
from ..net import LinkProfile, LinkSpec, MessageKind
from ..privacy import audit_ledger_records, conversation_guarantee, dialing_guarantee

#: The deployment shapes a campaign can drive.
CAMPAIGN_SHAPES = ("in-process", "tcp")

#: Fallback edge bandwidth when only latency is asked for: effectively
#: unmetered (LinkSpec requires a positive bandwidth).
_UNMETERED = 1e9


@dataclass
class WanCampaignReport:
    """What a WAN/churn campaign did, and whether the invariants held."""

    shape: str
    seed: int
    segments_run: int = 0
    conversation_rounds: int = 0
    dialing_rounds: int = 0
    fault_rules_drawn: int = 0
    aborted_attempts: int = 0
    clients_joined: int = 0
    clients_parked: int = 0
    clients_resumed: int = 0
    clients_removed: int = 0
    #: Total plaintexts delivered across the whole population (active and
    #: parked) — the goodput numerator of the degradation benchmark.
    messages_delivered: int = 0
    #: The client-edge conditioner's counters at campaign end.
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
        return (
            f"wan campaign [{self.shape}] seed={self.seed}: "
            f"{self.segments_run} segments, "
            f"{self.conversation_rounds}+{self.dialing_rounds} rounds, "
            f"{self.link_losses} submissions lost, "
            f"{self.aborted_attempts} aborted attempts, "
            f"churn +{self.clients_joined}"
            f"/p{self.clients_parked}/r{self.clients_resumed}"
            f"/-{self.clients_removed}, "
            f"{self.messages_delivered} delivered — {status}"
        )


class WanChurnCampaign:
    """Seeded degraded-mode driver over either deployment shape.

    All campaign decisions (fault rules, churn scripts) come from one
    :class:`~repro.crypto.rng.DeterministicRandom` stream forked off
    ``seed`` — separate from the config seed, so the deployment's protocol
    bytes never depend on the chaos plan, and the same seed draws the same
    campaign in both shapes.
    """

    def __init__(
        self,
        config,
        *,
        shape: str = "in-process",
        seed: int = 0,
        ledger_path: str | Path,
        rounds_per_segment: int = 3,
        dialing_interval: int = 2,
        loss: float = 0.1,
        latency_seconds: float = 0.0,
        jitter_seconds: float = 0.0,
        bandwidth_bytes_per_sec: float | None = None,
        flood_attackers: int = 2,
        chain_faults: bool = True,
        round_deadline_seconds: float | None = None,
        startup_timeout: float = 60.0,
        fsync: str = "round",
    ) -> None:
        if shape not in CAMPAIGN_SHAPES:
            raise ProtocolError(
                f"unknown campaign shape {shape!r}; expected one of {CAMPAIGN_SHAPES}"
            )
        if rounds_per_segment < 2:
            # Churn events land *inside* a segment (before rounds 1..n-1);
            # a one-round segment has no interior boundary to land on.
            raise ProtocolError("a wan campaign segment needs at least two rounds")
        self.config = config
        self.shape = shape
        self.seed = seed
        self.ledger_path = Path(ledger_path)
        self.rounds_per_segment = rounds_per_segment
        self.dialing_interval = dialing_interval
        self.loss = loss
        self.latency_seconds = latency_seconds
        self.jitter_seconds = jitter_seconds
        self.bandwidth_bytes_per_sec = bandwidth_bytes_per_sec
        self.flood_attackers = flood_attackers
        self.chain_faults = chain_faults
        self.round_deadline_seconds = round_deadline_seconds
        self.startup_timeout = startup_timeout
        self.fsync = fsync
        self._rng = DeterministicRandom(seed).fork("wan-campaign")
        self._messages_sent = 0
        self._joined = 0
        #: Campaign-side mirror of the churnable population: who is live,
        #: who is parked — kept in draw order so scripts stay applicable.
        self._churn_active: set[str] = set()
        self._churn_parked: set[str] = set()
        #: Chain hops whose sending side we installed fault rules in.
        self._fault_targets: set[int] = set()

    # -------------------------------------------------------------- randomness

    def _randrange(self, n: int) -> int:
        return self._rng.random_uint(64) % n

    def _choice(self, options):
        return options[self._randrange(len(options))]

    def _next_message(self, name: str) -> str:
        """Globally unique bodies: a duplicate plaintext anywhere proves a
        twice-executed batch (the exactly-once invariant)."""
        self._messages_sent += 1
        return f"wan-msg-{self._messages_sent}-from-{name}"

    # ------------------------------------------------------------ link weather

    def edge_profiles(self) -> list[LinkProfile]:
        """The client-edge conditioning this campaign installs.

        Loss applies to conversation submissions only: a lost conversation
        request is exactly the §3.1 offline case (the client retransmits
        next round), while a lost ``DIAL_DOWNLOAD`` would surface as a hard
        :class:`~repro.errors.NetworkError` — that is a *fault*, the chaos
        campaign's department.  Latency / jitter / bandwidth shape both
        submission kinds (timing only, never bytes).
        """
        profiles: list[LinkProfile] = []
        if self.loss > 0.0:
            profiles.append(
                LinkProfile(
                    destination="entry",
                    kind=MessageKind.CONVERSATION_REQUEST,
                    loss=self.loss,
                )
            )
        spec = None
        if self.latency_seconds > 0.0 or self.bandwidth_bytes_per_sec is not None:
            spec = LinkSpec(
                bandwidth_bytes_per_sec=self.bandwidth_bytes_per_sec or _UNMETERED,
                latency_seconds=self.latency_seconds,
            )
        if spec is not None or self.jitter_seconds > 0.0:
            for kind in (MessageKind.CONVERSATION_REQUEST, MessageKind.DIALING_REQUEST):
                profiles.append(
                    LinkProfile(
                        destination="entry",
                        kind=kind,
                        spec=spec,
                        jitter_seconds=self.jitter_seconds,
                    )
                )
        return profiles

    # ------------------------------------------------------------ chain faults

    def _draw_fault_rules(self) -> list[dict]:
        """Deterministic, count-bounded chain-hop rules (see ChaosCampaign)."""
        budget = {
            "conversation": self.config.max_round_attempts - 1,
            "dialing": self.config.max_round_attempts - 1,
        }
        rules = []
        for _ in range(self._randrange(2)):  # 0..1 rules per segment
            hop = 1 + self._randrange(self.config.num_servers - 1)
            protocol = self._choice(("conversation", "dialing"))
            if budget[protocol] < 1:
                continue
            count = 1 + self._randrange(budget[protocol])
            budget[protocol] -= count
            rules.append(
                {
                    "action": self._choice(("kill", "drop")),
                    "destination": f"server-{hop}/{protocol}",
                    "count": count,
                    "probability": 1.0,
                }
            )
        return rules

    def _apply_fault_rules(self, driver, rules: list[dict]) -> None:
        for target in sorted(self._fault_targets):
            driver.heal_faults(target)
        for rule in rules:
            # "server-H/<protocol>" is *received* by chain hop H; the rule
            # must live in the process that sends to it, hop H - 1.
            hop = int(rule["destination"].split("/")[0].split("-")[1])
            driver.inject_fault(hop - 1, rule, seed=self.seed)
            self._fault_targets.add(hop - 1)

    # ------------------------------------------------------------------- churn

    def _draw_churn(self, alice_key_hex: str, report: WanCampaignReport) -> list[ChurnEvent]:
        """A segment's churn script: 0..2 events at interior boundaries.

        Boundaries are drawn first and sorted, so the script's application
        order matches the draw order — a client is never resumed at an
        earlier boundary than the park that stranded it.
        """
        count = self._randrange(3)
        boundaries = sorted(
            1 + self._randrange(self.rounds_per_segment - 1) for _ in range(count)
        )
        events: list[ChurnEvent] = []
        for boundary in boundaries:
            options = ["join", "say"]
            if self._churn_active:
                options += ["park", "remove"]
            if self._churn_parked:
                options.append("resume")
            action = self._choice(options)
            if action == "join":
                name = f"churn-{self._joined}"
                self._joined += 1
                self._churn_active.add(name)
                report.clients_joined += 1
                events.append(
                    ChurnEvent(
                        before_round=boundary,
                        action="join",
                        name=name,
                        peer=alice_key_hex,
                        message=self._next_message(name),
                    )
                )
            elif action == "park":
                name = self._choice(sorted(self._churn_active))
                self._churn_active.discard(name)
                self._churn_parked.add(name)
                report.clients_parked += 1
                events.append(
                    ChurnEvent(before_round=boundary, action="park", name=name)
                )
            elif action == "resume":
                name = self._choice(sorted(self._churn_parked))
                self._churn_parked.discard(name)
                self._churn_active.add(name)
                report.clients_resumed += 1
                events.append(
                    ChurnEvent(before_round=boundary, action="resume", name=name)
                )
            elif action == "remove":
                name = self._choice(sorted(self._churn_active))
                self._churn_active.discard(name)
                report.clients_removed += 1
                events.append(
                    ChurnEvent(before_round=boundary, action="remove", name=name)
                )
            else:  # say
                events.append(
                    ChurnEvent(
                        before_round=boundary,
                        action="say",
                        name="anchor-alice",
                        message=self._next_message("anchor-alice"),
                    )
                )
        return events

    # -------------------------------------------------------------- invariants

    def _check_invariants(self, driver, segment: int) -> list[tuple[str, str]]:
        failures: list[tuple[str, str]] = []

        # Exactly-once delivery, across the *whole* population — parked
        # clients keep their mailboxes, and a resume that replayed a batch
        # would plant its duplicate right there.
        for name in sorted(driver.ledger_client_digests()):
            bodies = [message.body for message in driver.client(name).received]
            if len(bodies) != len(set(bodies)):
                failures.append(
                    (
                        "exactly_once",
                        f"client {name} holds duplicate plaintexts after "
                        f"segment {segment}",
                    )
                )

        # Refund conservation: a settled deployment holds no parked messages
        # even after churn removed some of the submitters.
        parked = driver.resubmission_parked()
        if parked:
            failures.append(
                (
                    "refund_conservation",
                    f"permanently failed submissions parked after segment "
                    f"{segment}: {parked}",
                )
            )
        buffered = driver.buffered_total()
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
            spent = driver._accountants[protocol].rounds_used
            if spent != len(recorded):
                failures.append(
                    (
                        "accountant",
                        f"{protocol} accountant spent {spent} rounds but "
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

    # ------------------------------------------------------------- flood curve

    def _flood_point(self, driver, schedule, victim_bucket: int, writer) -> dict | None:
        """The victim bucket's load vs the accountant, after one segment."""
        if not schedule.dialing:
            return None
        from ..adversary.workloads import PrivacyLoadPoint

        round_number = schedule.dialing[-1].round_number
        sizes = driver.invitation_store(round_number).bucket_sizes()
        others = [
            size for index, size in sizes.items() if int(index) != victim_bucket
        ]
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
                startup_timeout=self.startup_timeout,
                round_deadline_seconds=self.round_deadline_seconds,
                # Lost client submissions mean expected counts can never be
                # met: windows must close on their deadline, like the paper's.
                deadline_only_windows=True,
            )
        from ..core.system import VuvuzelaSystem

        return VuvuzelaSystem(self.config)

    def run(self, segments: int) -> WanCampaignReport:
        """Run ``segments`` degraded-mode segments; stop early on a violation."""
        report = WanCampaignReport(
            shape=self.shape, seed=self.seed, ledger_path=str(self.ledger_path)
        )
        # The writer outlives the driver: teardown appends ``session_end``.
        writer = LedgerWriter(self.ledger_path, fsync=self.fsync)
        try:
            with self._build_driver() as driver:
                self._run_segments(driver, writer, report, segments)
        finally:
            writer.close()
            report.ledger_records = writer.records_written
        return report

    def _run_segments(self, driver, writer, report: WanCampaignReport, segments: int) -> None:
        from ..crypto import invitation_dead_drop

        driver.attach_ledger(writer)
        alice = driver.add_session("anchor-alice")
        driver.add_session("anchor-bob")
        alice.dial(driver.client("anchor-bob").public_key)
        alice.say(self._next_message("anchor-alice"))
        driver.add_session("victim")
        victim_key = driver.client("victim").public_key
        victim_bucket = invitation_dead_drop(victim_key, self.config.num_dialing_buckets)
        for index in range(self.flood_attackers):
            driver.add_session(f"flooder-{index}", flood_target=victim_key)
        alice_key_hex = bytes(driver.client("anchor-alice").public_key).hex()

        for profile in self.edge_profiles():
            driver.condition_clients(profile, seed=self.seed)

        for segment in range(segments):
            writer.append("campaign_segment", {"segment": segment})
            rules = self._draw_fault_rules() if self.chain_faults else []
            if self.chain_faults:
                self._apply_fault_rules(driver, rules)
            report.fault_rules_drawn += len(rules)
            churn = self._draw_churn(alice_key_hex, report) if segment > 0 else []

            try:
                schedule = driver.run_continuous(
                    self.rounds_per_segment,
                    dialing_interval=self.dialing_interval,
                    pipeline_depth=self.config.pipeline_depth,
                    churn=churn,
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
            report.aborted_attempts = driver.aborted_total()
            point = self._flood_point(driver, schedule, victim_bucket, writer)
            if point is not None:
                report.flood_points.append(point)

            failures = self._check_invariants(driver, segment)
            if failures:
                for invariant, detail in failures:
                    self._violate(report, writer, segment, invariant, detail)
                break

        report.messages_delivered = sum(
            len(driver.client(name).received) for name in driver.ledger_client_digests()
        )
        report.link_stats = driver.link_stats()

    def _violate(
        self,
        report: WanCampaignReport,
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
    "CAMPAIGN_SHAPES",
    "WanCampaignReport",
    "WanChurnCampaign",
]
