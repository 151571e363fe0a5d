"""One round's submission window: a pure state machine.

A window lives through one *attempt* of one round::

    OPEN ──close──▶ CLOSED ──resolve──▶ RESOLVED
                      │ ├────fail─────▶ FAILED
                      │ └────abort────▶ ABORTED  (+ an OPEN retry window)

(a coordinator shutting down also fails a window that is still OPEN).  The
window alone writes its admission bookkeeping: every method takes the
current time as an argument and touches no lock, clock, timer, entry server
or ledger — the :class:`~repro.runtime.coordinator.RoundCoordinator` calls
them under its lock and asks the entry server for the §9 admission verdict
on each fresh arrival.

Invariants, after every method: ``accepted == sum(per_client.values())``
until the per-client state is released; ``arrivals`` counts distinct
check-ins (a fresh verdict, or an accepted slot's first claim on this
attempt); a resubmitted digest gets its original slot index back and is
never admitted twice; nothing is admitted once the window stops being OPEN.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from enum import Enum

from ..errors import RoundAbortedError
from ..net import MessageKind
from ..server.wire import VERDICT_ACCEPTED, VERDICT_LATE, VERDICT_REFUSED


class Phase(Enum):
    OPEN = "open"
    CLOSED = "closed"
    RESOLVED = "resolved"
    FAILED = "failed"
    ABORTED = "aborted"


def digest(payload: bytes) -> bytes:
    """The idempotency key of one payload (hashes memoryviews without a copy)."""
    return hashlib.sha256(payload).digest()


@dataclass
class RoundResult:
    """Outcome of one coordinated round."""

    kind: MessageKind
    round_number: int
    accepted: int
    refused: int
    late: int
    #: Responses grouped per client, aligned with each client's submission
    #: order; ``None`` on the coordinator's own copy once the payloads were
    #: released (see :data:`~repro.runtime.coordinator.RESPONSE_WINDOWS`).
    responses: dict[str, list[bytes]] | None
    #: How many attempts the round took (1 = no abort).
    attempts: int = 1
    #: How many responses the chain returned (survives the payloads' release).
    responded: int = 0


@dataclass
class SubmissionWindow:
    """Admission state and outcome of one round attempt."""

    kind: MessageKind
    round_number: int
    #: Absolute close time on the caller's clock, or ``None`` for no deadline.
    deadline: float | None
    #: Close early once this many distinct check-ins arrived — accepted *or*
    #: refused; a refused client has still checked in (networked mode).
    expected_requests: int | None
    #: The relative deadline the window was opened with, kept so a retry of
    #: an aborted round can rearm the same deadline from its own open time.
    deadline_seconds: float | None = None
    #: 1 for a round's first window; incremented by each abort/retry.
    attempt: int = 1
    accepted: int = 0
    refused: int = 0
    late: int = 0
    #: Distinct check-ins — the counter ``expected_requests`` closes on.
    arrivals: int = 0
    #: Idempotent resubmissions re-attached to an existing batch slot.
    resubmissions: int = 0
    phase: Phase = Phase.OPEN
    #: ``None`` until the attempt settles; then the :class:`RoundResult`, the
    #: permanent failure, or the :class:`~repro.errors.RoundAbortedError`.
    outcome: RoundResult | Exception | None = None
    #: Per-client count of accepted submissions, for response alignment.
    per_client: dict[str, int] = field(default_factory=dict)
    #: Per-client digests of accepted payloads, in slot order (networked
    #: mode): a payload whose digest is present re-attaches to its slot.
    submitted: dict[str, list[bytes]] = field(default_factory=dict)
    #: ``(client, slot)`` pairs whose owner checked in on *this* attempt, so
    #: a duplicate resubmission (a client retrying a cut long-poll) cannot
    #: push the window over its expected count.
    claimed: set[tuple[str, int]] = field(default_factory=set)
    #: ``(client, digest)`` of refused payloads: a retried refusal whose
    #: reply was lost is answered again without counting twice.
    refused_digests: set[tuple[str, bytes]] = field(default_factory=set)

    @property
    def due(self) -> bool:
        """Open, with every expected check-in in."""
        return (
            self.phase is Phase.OPEN
            and self.expected_requests is not None
            and self.arrivals >= self.expected_requests
        )

    def admits(self, now: float) -> bool:
        return self.phase is Phase.OPEN and (self.deadline is None or now <= self.deadline)

    # ------------------------------------------------------------- admission

    def check_in(self, source: str, key: bytes | None, now: float) -> tuple[int, int] | None:
        """Answer an arrival the window can answer alone.

        Returns ``(verdict, slot)`` for a straggler (``VERDICT_LATE``), a
        resubmission of an accepted payload (its original slot) or a retried
        refusal; ``None`` when the entry server must decide and
        :meth:`admit` record its verdict.  ``key`` is the payload's
        :func:`digest`, or ``None`` where nobody resubmits (synchronous
        mode keeps no dedup state).
        """
        if not self.admits(now):
            self.late += 1
            return VERDICT_LATE, -1
        if key is None:
            return None
        keys = self.submitted.get(source)
        if keys is not None and key in keys:
            slot = keys.index(key)
            self.resubmissions += 1
            if (source, slot) not in self.claimed:
                self.claimed.add((source, slot))
                self.arrivals += 1
            return VERDICT_ACCEPTED, slot
        if (source, key) in self.refused_digests:
            return VERDICT_REFUSED, -1
        return None

    def admit(self, source: str, key: bytes | None, accepted: bool) -> tuple[int, int]:
        """Record the entry server's verdict on a fresh arrival."""
        self.arrivals += 1
        if not accepted:
            self.refused += 1
            if key is not None:
                self.refused_digests.add((source, key))
            return VERDICT_REFUSED, -1
        slot = self.per_client.get(source, 0)
        self.per_client[source] = slot + 1
        self.accepted += 1
        if key is not None:
            self.submitted.setdefault(source, []).append(key)
            self.claimed.add((source, slot))
        return VERDICT_ACCEPTED, slot

    def admit_chunk(self, tallies: dict[str, int]) -> None:
        """Record a chunk the entry admitted whole: per-source multiplicities
        of fresh arrivals with no deadline, no dedup and no refusal."""
        added = sum(tallies.values())
        self.arrivals += added
        self.accepted += added
        for source, count in tallies.items():
            self.per_client[source] = self.per_client.get(source, 0) + count

    def forget(self, name: str) -> None:
        """Drop a departed client's bookkeeping once the attempt settled (an
        in-flight attempt still runs its accepted wires as cover traffic)."""
        if self.outcome is None:
            return
        self.per_client.pop(name, None)
        self.submitted.pop(name, None)
        self.claimed = {claim for claim in self.claimed if claim[0] != name}
        self.refused_digests = {entry for entry in self.refused_digests if entry[0] != name}

    # ------------------------------------------------------------- lifecycle

    def close(self) -> bool:
        """OPEN → CLOSED; ``False`` when the window was no longer open."""
        if self.phase is not Phase.OPEN:
            return False
        self.phase = Phase.CLOSED
        return True

    def resolve(self, responses: dict[str, list[bytes]]) -> RoundResult:
        self.phase = Phase.RESOLVED
        self.outcome = RoundResult(
            kind=self.kind,
            round_number=self.round_number,
            accepted=self.accepted,
            refused=self.refused,
            late=self.late,
            responses=responses,
            attempts=self.attempt,
            responded=sum(len(grouped) for grouped in responses.values()),
        )
        return self.outcome

    def fail(self, error: Exception) -> None:
        self.phase = Phase.FAILED
        self.outcome = error

    def abort(
        self,
        refunds: list[tuple[str, bytes | None]],
        now: float,
        retry_seconds: float | None,
        reason: Exception,
    ) -> SubmissionWindow:
        """End this attempt and return the retry window, seeded with the
        refunds (``(client, digest or None)`` in batch order): each keeps its
        slot index and idempotency key, so a resubmitting client re-attaches
        to its original slot.  The attempt's refusals and stragglers are the
        round's history and carry over."""
        retry = SubmissionWindow(
            kind=self.kind,
            round_number=self.round_number,
            deadline=None if retry_seconds is None else now + retry_seconds,
            deadline_seconds=retry_seconds,
            # Only refunded (accepted) clients will resubmit — refused ones
            # were answered immediately and are done with the round.
            expected_requests=len(refunds) if self.expected_requests is not None else None,
            attempt=self.attempt + 1,
            refused=self.refused,
            late=self.late,
            refused_digests=set(self.refused_digests),
        )
        for client, key in refunds:
            retry.per_client[client] = retry.per_client.get(client, 0) + 1
            retry.accepted += 1
            if key is not None:
                retry.submitted.setdefault(client, []).append(key)
        self.phase = Phase.ABORTED
        self.outcome = RoundAbortedError(
            f"round {self.round_number} ({self.kind.value}) attempt {self.attempt} "
            f"aborted ({reason}); retrying as attempt {retry.attempt}"
        )
        self.outcome.__cause__ = reason
        return retry

    def release_responses(self) -> None:
        """Drop the held response payloads and the per-client state (a late
        submission is answered before :meth:`check_in` reads it); the counts
        stay, and a caller already handed the :class:`RoundResult` keeps its
        own."""
        if self.outcome is None:
            return
        if isinstance(self.outcome, RoundResult) and self.outcome.responses is not None:
            self.outcome = replace(self.outcome, responses=None)
        self.per_client = {}
        self.submitted = {}
        self.claimed = set()
        self.refused_digests = set()
