"""Round-level metrics collected while the system runs.

These are the operational counterparts of the numbers the paper reports:
requests processed per round, noise added, bytes moved, wall-clock time.  The
deployment simulator uses the same structures, filling the timing fields from
its cost model instead of the wall clock.

Both protocols share one :class:`RoundMetrics` base: the submission-window
accounting (refusals, stragglers), the §6 abort/retry counters and the
transport totals are protocol-agnostic — a dialing round that hits a crashed
link reports its ``attempts`` exactly like a conversation round does.  The
subclasses add only what each protocol actually observes: the conversation
access histogram on one side, the invitation buckets on the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..deaddrop import AccessHistogram


@dataclass
class RoundMetrics:
    """Protocol-agnostic accounting shared by every kind of round."""

    round_number: int
    client_requests: int = 0
    #: Requests the entry server's §9 admission control turned away.
    refused_requests: int = 0
    #: Stragglers that missed the round's submission window (§7 deadlines).
    late_requests: int = 0
    #: Chain-drive attempts the round took (1 = clean, §6 availability).
    attempts: int = 1
    #: Attempts aborted by a server/link failure before the successful re-run.
    aborted_attempts: int = 0
    bytes_moved: int = 0
    wall_clock_seconds: float = 0.0

    def ledger_fields(self) -> dict:
        """The window accounting this round contributes to its ledger record
        (timing fields are never recorded)."""
        return {
            "attempts": self.attempts,
            "aborted_attempts": self.aborted_attempts,
            "client_requests": self.client_requests,
            "refused": self.refused_requests,
            "late": self.late_requests,
        }


@dataclass
class ConversationRoundMetrics(RoundMetrics):
    """What happened during one conversation round."""

    delivered_responses: int = 0
    lost_requests: int = 0
    noise_requests: int = 0
    histogram: AccessHistogram | None = None

    def ledger_fields(self) -> dict:
        return {
            **super().ledger_fields(),
            "delivered": self.delivered_responses,
            "lost": self.lost_requests,
        }

    @property
    def total_requests(self) -> int:
        return self.client_requests + self.noise_requests

    @property
    def messages_exchanged(self) -> int:
        """Dead drops accessed twice, i.e. successful exchanges (§4.2)."""
        return self.histogram.pairs if self.histogram is not None else 0


@dataclass
class DialingRoundMetrics(RoundMetrics):
    """What happened during one dialing round."""

    real_invitations: int = 0
    noise_invitations: int = 0
    bucket_sizes: dict[int, int] = field(default_factory=dict)

    def ledger_fields(self) -> dict:
        return {**super().ledger_fields(), "real_invitations": self.real_invitations}

    @property
    def total_invitations(self) -> int:
        return self.real_invitations + self.noise_invitations
