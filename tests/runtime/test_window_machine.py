"""A bare SubmissionWindow against a reference model: no coordinator, no
threads, a fake clock.

Hypothesis drives one round through admissions, resubmissions, retried
refusals, stragglers, close, abort-into-retry and resolve, in networked
mode (payload digests kept for idempotent resubmission) and synchronous
mode (none kept), and checks the window against a small model of what the
entry buffer and the round's counters must be after every step.  Two
boundaries the machine's steps cannot reach are pinned directly: the
deadline instant itself, and what :meth:`SubmissionWindow.forget` keeps.
"""

from __future__ import annotations

import math
from collections import Counter

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import RoundAbortedError
from repro.net import MessageKind
from repro.runtime.window import Phase, RoundResult, SubmissionWindow, digest
from repro.server.wire import VERDICT_ACCEPTED, VERDICT_LATE, VERDICT_REFUSED

CLIENTS = ("alice", "bob", "mallory")
PAYLOADS = (b"p0", b"p1", b"p2")
DEADLINE = 10.0


class Model:
    """What a round's window must hold: the entry buffer (accepted
    ``(client, payload)`` pairs in admission order, surviving aborts) and
    the counters, derived from first principles."""

    def __init__(self, dedup: bool, expected: int | None) -> None:
        self.dedup = dedup
        self.expected = expected
        self.open = True
        self.buffer: list[tuple[str, bytes]] = []
        self.refusals: set[tuple[str, bytes]] = set()
        self.claimed: set[tuple[str, int]] = set()
        self.refused = self.late = self.arrivals = self.resubmissions = 0

    def slots(self, client: str) -> list[bytes]:
        return [payload for owner, payload in self.buffer if owner == client]

    def submit(self, client: str, payload: bytes, accepts: bool, late: bool) -> tuple[int, int]:
        if not self.open or late:
            self.late += 1
            return VERDICT_LATE, -1
        if self.dedup and payload in self.slots(client):
            slot = self.slots(client).index(payload)
            self.resubmissions += 1
            if (client, slot) not in self.claimed:
                self.claimed.add((client, slot))
                self.arrivals += 1
            return VERDICT_ACCEPTED, slot
        if self.dedup and (client, payload) in self.refusals:
            return VERDICT_REFUSED, -1
        self.arrivals += 1
        if not accepts:
            self.refused += 1
            if self.dedup:
                self.refusals.add((client, payload))
            return VERDICT_REFUSED, -1
        slot = len(self.slots(client))
        self.buffer.append((client, payload))
        if self.dedup:
            self.claimed.add((client, slot))
        return VERDICT_ACCEPTED, slot

    def retry(self) -> None:
        """The next attempt: the buffer, refusals and stragglers carry over;
        only refunded clients are expected back."""
        self.open = True
        self.claimed = set()
        self.arrivals = self.resubmissions = 0
        if self.expected is not None:
            self.expected = len(self.buffer)

    def keys(self) -> dict[str, list[bytes]]:
        if not self.dedup:
            return {}
        owners = {client for client, _ in self.buffer}
        return {client: [digest(p) for p in self.slots(client)] for client in owners}


class WindowMachine(RuleBasedStateMachine):
    blocking = True

    @initialize(
        deadline=st.sampled_from([None, DEADLINE]), expected=st.none() | st.integers(0, 4)
    )
    def open_window(self, deadline, expected):
        self.window = SubmissionWindow(
            kind=MessageKind.CONVERSATION_REQUEST,
            round_number=7,
            deadline=deadline,
            deadline_seconds=deadline,
            expected_requests=expected,
        )
        self.model = Model(self.blocking, expected)

    def submit(self, client: str, payload: bytes, accepts: bool, now: float = 0.0):
        window, model = self.window, self.model
        accepted_before = window.accepted
        key = digest(payload) if self.blocking else None
        answer = window.check_in(client, key, now) or window.admit(client, key, accepts)
        late = window.deadline is not None and now > window.deadline
        assert answer == model.submit(client, payload, accepts, late)
        if window.phase is not Phase.OPEN or late:
            assert answer == (VERDICT_LATE, -1) and window.accepted == accepted_before
        return answer

    @rule(
        client=st.sampled_from(CLIENTS), payload=st.sampled_from(PAYLOADS), accepts=st.booleans()
    )
    def admit_new(self, client, payload, accepts):
        self.submit(client, payload, accepts)

    @precondition(lambda self: self.model.buffer)
    @rule(data=st.data())
    def resubmit_accepted(self, data):
        client, payload = data.draw(st.sampled_from(self.model.buffer))
        accepted_before = self.window.accepted
        verdict, slot = self.submit(client, payload, accepts=True)
        if self.blocking and verdict == VERDICT_ACCEPTED:
            # Re-attached to its original slot, never admitted twice.
            assert slot == self.model.slots(client).index(payload)
            assert self.window.accepted == accepted_before

    @precondition(lambda self: self.model.refusals)
    @rule(data=st.data())
    def resend_refused(self, data):
        client, payload = data.draw(st.sampled_from(sorted(self.model.refusals)))
        refused_before = self.window.refused
        verdict, _ = self.submit(client, payload, accepts=True)
        assert verdict in (VERDICT_REFUSED, VERDICT_LATE)
        assert self.window.refused == refused_before

    @precondition(lambda self: self.window.deadline is not None)
    @rule(client=st.sampled_from(CLIENTS), payload=st.sampled_from(PAYLOADS))
    def submit_past_deadline(self, client, payload):
        late = self.window.deadline + 1
        assert self.submit(client, payload, True, now=late) == (VERDICT_LATE, -1)

    @precondition(lambda self: not self.blocking and self.window.deadline is None)
    @rule(entries=st.lists(st.tuples(st.sampled_from(CLIENTS), st.sampled_from(PAYLOADS))))
    def admit_chunk(self, entries):
        """The synchronous fast path: a whole chunk admitted by tallies."""
        if self.window.phase is not Phase.OPEN:
            return
        self.window.admit_chunk(Counter(client for client, _ in entries))
        for client, payload in entries:
            self.model.submit(client, payload, True, False)

    @rule()
    def close(self):
        assert self.window.close() is self.model.open
        self.model.open = False

    @precondition(lambda self: self.window.phase is Phase.CLOSED)
    @rule()
    def abort_into_retry(self):
        old = self.window
        refunds = [(c, digest(p) if self.blocking else None) for c, p in self.model.buffer]
        retry = old.abort(refunds, 3.0, old.deadline_seconds, ConnectionError("hop died"))
        assert old.phase is Phase.ABORTED and isinstance(old.outcome, RoundAbortedError)
        assert retry.phase is Phase.OPEN and retry.attempt == old.attempt + 1
        assert (retry.refused, retry.late) == (old.refused, old.late)
        assert retry.refused_digests == old.refused_digests
        assert retry.per_client == old.per_client and retry.submitted == old.submitted
        self.window = retry
        self.model.retry()

    @precondition(lambda self: self.window.phase is Phase.CLOSED)
    @rule()
    def resolve(self):
        window = self.window
        result = window.resolve({c: [b"r"] * n for c, n in window.per_client.items()})
        assert window.phase is Phase.RESOLVED and window.outcome is result
        assert isinstance(result, RoundResult) and result.attempts == window.attempt
        assert (result.accepted, result.refused, result.late) == (
            len(self.model.buffer), self.model.refused, self.model.late
        )
        assert result.responded == len(self.model.buffer)

    @invariant()
    def bookkeeping_matches_the_model(self):
        window, model = self.window, self.model
        assert window.accepted == sum(window.per_client.values()) == len(model.buffer)
        assert window.per_client == dict(Counter(c for c, _ in model.buffer))
        assert window.submitted == model.keys()
        assert window.arrivals == model.arrivals
        assert window.claimed == model.claimed
        assert (window.refused, window.late) == (model.refused, model.late)
        assert window.resubmissions == model.resubmissions
        assert window.refused_digests == {(c, digest(p)) for c, p in model.refusals}
        assert window.due == (
            window.phase is Phase.OPEN
            and model.expected is not None
            and model.arrivals >= model.expected
        )


class SynchronousWindowMachine(WindowMachine):
    blocking = False


MACHINE_SETTINGS = settings(max_examples=150, stateful_step_count=30, deadline=None)
TestNetworkedWindow = WindowMachine.TestCase
TestNetworkedWindow.settings = MACHINE_SETTINGS
TestSynchronousWindow = SynchronousWindowMachine.TestCase
TestSynchronousWindow.settings = MACHINE_SETTINGS


def window_for(deadline: float | None) -> SubmissionWindow:
    return SubmissionWindow(
        kind=MessageKind.CONVERSATION_REQUEST,
        round_number=7,
        deadline=deadline,
        deadline_seconds=deadline,
        expected_requests=None,
    )


def test_the_deadline_instant_is_still_admitted():
    window = window_for(DEADLINE)
    just_after = math.nextafter(DEADLINE, math.inf)
    assert window.admits(DEADLINE) and not window.admits(just_after)
    assert window.check_in("alice", digest(b"p0"), DEADLINE) is None
    assert window.check_in("alice", digest(b"p0"), just_after) == (VERDICT_LATE, -1)
    assert window.late == 1


def test_forget_drops_only_the_departed_clients_bookkeeping():
    window = window_for(None)
    for client in CLIENTS:
        for payload, accepts in ((b"kept", True), (b"refused", False)):
            key = digest(client.encode() + payload)
            assert window.check_in(client, key, 0.0) is None
            window.admit(client, key, accepts)
    def bookkeeping():
        return (window.per_client, window.submitted, window.claimed, window.refused_digests)

    unsettled = tuple(entry.copy() for entry in bookkeeping())
    window.forget("alice")  # an attempt in flight keeps everything
    assert bookkeeping() == unsettled

    window.close()
    window.resolve({client: [b"r"] for client in CLIENTS})
    window.forget("alice")
    stay = ("bob", "mallory")
    assert window.per_client == {client: 1 for client in stay}
    assert window.submitted == {client: [digest(client.encode() + b"kept")] for client in stay}
    assert window.claimed == {(client, 0) for client in stay}
    assert window.refused_digests == {
        (client, digest(client.encode() + b"refused")) for client in stay
    }

