"""Privacy budget accounting for a long-running deployment.

A Vuvuzela deployment is provisioned for a target multi-round guarantee
(eps', delta') over a budget of k rounds.  The :class:`PrivacyAccountant`
tracks how many rounds have actually been consumed, what guarantee currently
holds, and when the budget will be exhausted — the operational counterpart of
Theorem 2.

Only rounds in which a user's real actions could differ from her cover story
consume budget (§6.3): a user who is idle, and whose cover story is also
idleness, spends nothing.  The accountant exposes both the conservative
"every round counts" view used by the paper's headline numbers and a
per-user view that exploits idle rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .composition import DEFAULT_COMPOSITION_D, ComposedGuarantee, compose, max_rounds
from .mechanism import NO_PRIVACY, PrivacyGuarantee
from ..errors import PrivacyBudgetError


@dataclass
class PrivacyAccountant:
    """Tracks cumulative privacy loss for one protocol of one deployment."""

    per_round: PrivacyGuarantee
    target_epsilon: float
    target_delta: float
    composition_d: float = DEFAULT_COMPOSITION_D
    rounds_used: int = 0
    _budget_rounds: int | None = field(default=None, init=False, repr=False)

    @property
    def budget_rounds(self) -> int:
        """Total rounds the deployment can support within its target."""
        if self._budget_rounds is None:
            self._budget_rounds = max_rounds(
                self.per_round, self.target_epsilon, self.target_delta, self.composition_d
            )
        return self._budget_rounds

    @property
    def rounds_remaining(self) -> int:
        return max(0, self.budget_rounds - self.rounds_used)

    @property
    def exhausted(self) -> bool:
        return self.rounds_used >= self.budget_rounds

    def spend(self, rounds: int = 1) -> ComposedGuarantee:
        """Record ``rounds`` more rounds of observation and return the new total."""
        if rounds < 0:
            raise PrivacyBudgetError("cannot spend a negative number of rounds")
        self.rounds_used += rounds
        return self.current_guarantee()

    def current_guarantee(self) -> ComposedGuarantee:
        """The (eps', delta') that holds after the rounds spent so far."""
        return compose(self.per_round, self.rounds_used, self.composition_d)

    def guarantee_after(self, rounds: int) -> ComposedGuarantee:
        """The guarantee that would hold after ``rounds`` total rounds."""
        return compose(self.per_round, rounds, self.composition_d)

    def within_target(self) -> bool:
        """True while the accumulated loss is still within the deployment target."""
        current = self.current_guarantee()
        return current.epsilon <= self.target_epsilon and current.delta <= self.target_delta


@dataclass
class LedgerAuditReport:
    """Outcome of a post-hoc audit of ledger-recorded accountant checkpoints."""

    protocol: str
    rounds_audited: int = 0
    #: Human-readable descriptions of every checkpoint that diverged from the
    #: independently recomputed Theorem-2 composition.
    divergences: list[str] = field(default_factory=list)
    #: The final checkpoint still satisfies the deployment's (ε', δ') target.
    within_target: bool = True

    @property
    def ok(self) -> bool:
        return not self.divergences


def audit_ledger_records(
    records,
    *,
    protocol: str,
    per_round: PrivacyGuarantee,
    target_epsilon: float,
    target_delta: float,
    composition_d: float = DEFAULT_COMPOSITION_D,
) -> LedgerAuditReport:
    """Recompute the (ε, δ) trail of one protocol's ledger-recorded rounds.

    ``records`` is an iterable of round-record dicts (the round ledger's
    ``round_metrics`` payloads, any shape), each carrying an ``accountant``
    checkpoint ``{rounds_used, epsilon, delta}``.  For the protocol's k-th
    resolved round the auditor independently recomposes Theorem 2 for k
    rounds and checks that the recorded checkpoint matches it exactly —
    which catches a deployment whose accountant lost rounds (e.g. across a
    crash), double-spent, or was recomputed with different noise parameters
    than the config it claims.  A leading ``session_start`` payload whose
    config says ``exact_noise`` voids the guarantee: ε must be ``None``.
    """
    report = LedgerAuditReport(protocol=protocol)
    last: ComposedGuarantee | None = None
    exact = False
    for data in records:
        if "config" in data:  # the session_start that opens the trail
            exact = bool(data["config"].get("exact_noise"))
            continue
        if data.get("protocol") != protocol:
            continue
        checkpoint = data.get("accountant")
        round_number = data.get("round")
        report.rounds_audited += 1
        k = report.rounds_audited
        if checkpoint is None:
            report.divergences.append(f"round {round_number}: no accountant checkpoint")
            continue
        if int(checkpoint.get("rounds_used", -1)) != k:
            report.divergences.append(
                f"round {round_number}: recorded rounds_used="
                f"{checkpoint.get('rounds_used')} but this is resolved round {k}"
            )
        expected = compose(NO_PRIVACY if exact else per_round, k, composition_d)
        for name, recomputed in (("epsilon", expected.epsilon), ("delta", expected.delta)):
            recorded = checkpoint.get(name)
            if recorded is None and math.isinf(recomputed):
                continue  # exact noise: no finite ε to record
            if recorded is None or not math.isclose(
                float(recorded), recomputed, rel_tol=1e-9, abs_tol=0.0
            ):
                report.divergences.append(
                    f"round {round_number}: recorded {name}={recorded} but "
                    f"Theorem 2 over {k} rounds gives {recomputed}"
                )
        if last is not None and checkpoint.get("epsilon") is not None:
            if float(checkpoint["epsilon"]) < last.epsilon:
                report.divergences.append(
                    f"round {round_number}: epsilon decreased "
                    f"({last.epsilon} -> {checkpoint['epsilon']}) — privacy "
                    "loss never un-happens"
                )
        last = expected
    if last is not None:
        report.within_target = (
            last.epsilon <= target_epsilon and last.delta <= target_delta
        )
    return report
