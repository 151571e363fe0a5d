"""Adversarial *load* workloads: flooding and surveillance under DP noise.

The attacks in :mod:`repro.adversary.attacks` try to break privacy directly;
the workloads here attack the system's *capacity* and watch what that buys
the adversary.  Each one emits a privacy-vs-load curve: per round, the load
the adversary induces (or observes) next to the Laplace accountant's
cumulative (ε, δ) — making the paper's point quantitative: an attacker can
make the system *work harder*, but the differential-privacy guarantee decays
at exactly the same per-round rate whether or not the attack runs.

* **Targeted dead-drop flooding** — a clique of Sybil clients dials one
  victim every dialing round.  The victim's invitation bucket balloons (its
  download cost is the load curve), but bucket counts are already published
  with Laplace noise, so the flood neither speeds up the (ε, δ) spend nor
  distinguishes the victim's *real* callers.
* **Compromised entry observation** — the untrusted entry records per-client
  request counts per round (all the metadata it ever sees; requests are
  onion-encrypted past it).  The load curve is total observed requests; the
  privacy curve shows the guarantee the entry *cannot* erode by watching.

Both workloads run through the ordinary scheduler, so they compose with WAN
conditioning, churn and fault injection in a campaign
(:class:`~repro.runtime.Campaign` wires the flood in).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from .observer import GlobalObserver
from ..crypto import invitation_dead_drop
from ..net import MessageKind


@dataclass(frozen=True)
class PrivacyLoadPoint:
    """One round on a privacy-vs-load curve."""

    round_number: int
    #: The workload's load measure for this round (bucket invitations for the
    #: flood, observed requests for the entry view).
    load: int
    #: What the same measure looks like without the adversary's contribution.
    baseline: float
    #: The Laplace accountant's cumulative guarantee *after* this round.
    epsilon: float
    delta: float
    rounds_used: int

    def to_dict(self) -> dict:
        return {
            "round": self.round_number,
            "load": self.load,
            "baseline": self.baseline,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "rounds_used": self.rounds_used,
        }


@dataclass
class DeadDropFloodResult:
    """What a targeted invitation flood achieved, round by round."""

    target: str
    target_bucket: int
    attackers: int
    points: list[PrivacyLoadPoint] = field(default_factory=list)

    @property
    def peak_load(self) -> int:
        return max((point.load for point in self.points), default=0)

    @property
    def mean_baseline(self) -> float:
        if not self.points:
            return 0.0
        return statistics.mean(point.baseline for point in self.points)

    @property
    def amplification(self) -> float:
        """Victim bucket load relative to an unattacked bucket (≥ 1 ⇒ the
        flood is landing; the privacy curve shows what it is *not* buying)."""
        return self.peak_load / max(self.mean_baseline, 1.0)

    def curve(self) -> list[dict]:
        return [point.to_dict() for point in self.points]

    def summary(self) -> str:
        last = self.points[-1] if self.points else None
        guarantee = f"ε={last.epsilon:.3f}" if last else "ε=?"
        return (
            f"dead-drop flood on {self.target!r} (bucket {self.target_bucket}): "
            f"{self.attackers} attackers, peak bucket load {self.peak_load} vs "
            f"baseline {self.mean_baseline:.1f} "
            f"({self.amplification:.1f}x) over {len(self.points)} rounds, {guarantee}"
        )


def run_deaddrop_flood(
    system,
    target: str,
    *,
    attackers: int = 4,
    rounds: int = 4,
    prefix: str = "flooder-",
) -> DeadDropFloodResult:
    """Flood ``target``'s invitation bucket for ``rounds`` dialing rounds.

    ``attackers`` Sybil sessions join the deployment and dial the victim
    every dialing round without ever entering a conversation
    (:attr:`~repro.runtime.ClientSession.flood_target`), so the victim's
    bucket carries ``attackers`` extra invitations per round on top of the
    published Laplace noise.  The attackers stay registered afterwards (a
    real flood does not politely deregister); remove them with
    ``system.remove_client`` if the scenario moves on.
    """
    target_key = system.client(target).public_key
    bucket = invitation_dead_drop(target_key, system.config.num_dialing_buckets)
    for index in range(attackers):
        system.add_session(f"{prefix}{index}", flood_target=target_key)

    result = DeadDropFloodResult(
        target=target, target_bucket=bucket, attackers=attackers
    )
    for _ in range(rounds):
        round_number = system.next_dialing_round
        # One dialing round, then the conversation round it fronts — through
        # the ordinary schedule so session hooks (the flood dials) fire.
        system.run_continuous(1, dialing_interval=1, pipeline_depth=1)
        store = system.invitation_store(round_number)
        sizes = store.bucket_sizes()
        others = [size for index, size in sizes.items() if index != bucket]
        guarantee = system.dialing_accountant.current_guarantee()
        result.points.append(
            PrivacyLoadPoint(
                round_number=round_number,
                load=sizes.get(bucket, 0),
                baseline=statistics.mean(others) if others else 0.0,
                epsilon=guarantee.epsilon,
                delta=guarantee.delta,
                rounds_used=system.dialing_accountant.rounds_used,
            )
        )
    return result


@dataclass
class EntryObservationResult:
    """The compromised entry's complete take, round by round."""

    rounds_observed: int = 0
    points: list[PrivacyLoadPoint] = field(default_factory=list)
    #: Per round: the per-client request counts the entry saw — everything
    #: it will ever learn (requests are onion-encrypted past it).
    participation: dict[int, dict[str, int]] = field(default_factory=dict)

    @property
    def total_requests_observed(self) -> int:
        return sum(point.load for point in self.points)

    def curve(self) -> list[dict]:
        return [point.to_dict() for point in self.points]

    def summary(self) -> str:
        last = self.points[-1] if self.points else None
        guarantee = f"ε={last.epsilon:.3f}" if last else "ε=?"
        return (
            f"compromised entry: {self.total_requests_observed} requests "
            f"observed over {self.rounds_observed} rounds, {guarantee} — "
            f"metadata only, plaintexts stay onion-encrypted"
        )


def run_entry_observation(
    system,
    *,
    rounds: int = 4,
    observer: GlobalObserver | None = None,
) -> EntryObservationResult:
    """Watch ``rounds`` conversation rounds through a compromised entry.

    The observer records exactly the entry's view — which clients submitted,
    how many requests each sent — while the accountant keeps spending at its
    ordinary per-round rate: the curve shows surveillance load rising with
    zero extra (ε, δ) cost to any user.
    """
    if observer is None:
        observer = GlobalObserver(system, entry_compromised=True)
    elif not observer.entry_compromised:
        observer.entry_compromised = True

    result = EntryObservationResult()
    for _ in range(rounds):
        metrics = system.run_conversation_round()
        round_number = metrics.round_number
        view = observer.entry_view(MessageKind.CONVERSATION_REQUEST, round_number)
        guarantee = system.conversation_accountant.current_guarantee()
        result.points.append(
            PrivacyLoadPoint(
                round_number=round_number,
                load=sum(view.values()),
                baseline=float(len(view)),
                epsilon=guarantee.epsilon,
                delta=guarantee.delta,
                rounds_used=system.conversation_accountant.rounds_used,
            )
        )
        result.participation[round_number] = view
        result.rounds_observed += 1
    return result


__all__ = [
    "DeadDropFloodResult",
    "EntryObservationResult",
    "PrivacyLoadPoint",
    "run_deaddrop_flood",
    "run_entry_observation",
]
