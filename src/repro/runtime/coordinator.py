"""Deadline-driven round sequencing over any transport, with abort/retry.

The split: each round attempt's admission bookkeeping and outcome live in a
pure :class:`~repro.runtime.window.SubmissionWindow`; :class:`RoundCoordinator`
keeps what needs a process — the lock and its one wait, deadline timers,
the entry's transport handler, the in-order drive turn, the retry-or-fail
decision around :meth:`~repro.server.entry.EntryServer.run_round_grouped`,
and ledger records.  In synchronous mode (``blocking_responses=False``, the
in-process system) submissions are acknowledged at once and the caller
closes the window; in networked mode (``repro.server.entry_main``) each
accepted submission holds its reply until the round resolves, and the window
closes at its deadline or its expected count.

**§6 retry rules.**  A chain drive that fails on a connection-level error
with attempts left *aborts* the attempt: the batch stays buffered at the
entry, a retry window for the same round opens pre-seeded with those
refunds, and blocked long-polls are answered :data:`ABORTED` so clients
resubmit (idempotently, by payload digest).  The re-run draws fresh noise and
a fresh permutation at every hop, which is how the paper keeps an aborted
round private.  A round that fails for good parks its batch in
``resubmission_queue``.

A :class:`~repro.errors.TransportTimeout` (or a malformed round result) is
*not* retried: the chain may have committed the batch before the deadline
passed, and re-driving it would execute every message twice.  Those rounds
fail; §3.1 retransmission recovers next round.  A
:class:`~repro.errors.ConnectTimeout` is retried — the connect never
completed, so nothing was delivered.  Retried connection failures keep a
narrow two-generals residue: a hop that dies *after* forwarding can leave
the tail of the chain committed, so the re-run executes that batch again.
Conversation delivery stays exactly-once (the receiver's sequence tracker
suppresses the duplicate); a dialing invitation may be seen twice.
"""

from __future__ import annotations

import hashlib
import threading
import time
from typing import Callable

from ..errors import (
    ConnectTimeout,
    NetworkError,
    ProtocolError,
    RoundAbortedError,
    TransportTimeout,
)
from ..net import Envelope, MessageKind, Transport
from ..server import ACK, REFUSED, EntryServer
from ..server.wire import (
    VERDICT_ACCEPTED,
    VERDICT_LATE,
    VERDICT_REFUSED,
    decode_collect_request,
    decode_download_request,
    decode_submission_batch,
    encode_batch_verdicts,
    encode_collect_reply,
)
from .window import Phase, RoundResult, SubmissionWindow, digest

#: Reply sent to requests that arrive outside their round's open window.
LATE = b"late"

#: Reply sent to blocked long-polls when their round attempt was aborted by a
#: chain failure: the client resubmits the same request to the retry.
ABORTED = b"aborted"

_REPLIES = {VERDICT_ACCEPTED: ACK, VERDICT_REFUSED: REFUSED, VERDICT_LATE: LATE}

#: Resolved rounds per kind whose response payloads are still held.  Every
#: reader takes a round's responses before the next round of its kind can
#: resolve (drives are serialized per kind); one more round of slack covers a
#: reader that is slow to wake.  Older windows keep their verdict metadata
#: (see ``keep_windows``) but none of the round's bytes.
RESPONSE_WINDOWS = 2


class RoundCoordinator:
    """Opens, gates, deadlines, drives and — on failure — retries rounds.

    On construction the coordinator registers the entry server's endpoint on
    ``transport``: every envelope addressed to the entry passes through the
    window gate first.
    """

    def __init__(
        self,
        transport: Transport,
        entry: EntryServer,
        *,
        deadline_seconds: float | None = None,
        blocking_responses: bool = False,
        response_wait_seconds: float = 120.0,
        max_round_attempts: int = 3,
        # repro-lint: allow[nd-wallclock] injectable deadline clock: shapes timing only, never protocol bytes; deterministic tests swap in a fake
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_round_attempts < 1:
            raise ProtocolError("a round needs at least one attempt")
        self.transport = transport
        self.entry = entry
        self.deadline_seconds = deadline_seconds
        self.blocking_responses = blocking_responses
        self.response_wait_seconds = response_wait_seconds
        #: Chain-drive attempts per round (1 = abort immediately on failure).
        self.max_round_attempts = max_round_attempts
        self._clock = clock
        #: Handler for :data:`MessageKind.CONTROL` traffic (set by the
        #: networked entry process to expose its command API).
        self.control_handler: Callable[[Envelope], bytes] | None = None
        self._lock = threading.RLock()
        self._resolved_cond = threading.Condition(self._lock)
        #: The current attempt of every round not yet pruned.
        self._windows: dict[tuple[MessageKind, int], SubmissionWindow] = {}
        #: Force-close timers of open windows (blocking mode), by round: an
        #: uncancelled timer is a thread leak per round.
        self._timers: dict[tuple[MessageKind, int], threading.Timer] = {}
        self._highest_closed: dict[MessageKind, int] = {}
        #: ``(client, payload)`` pairs of rounds that failed *permanently*,
        #: withdrawn from the entry buffer and kept for inspection until the
        #: pruning horizon passes them.  Refunds of an aborted-and-retried
        #: attempt never appear here — they stay in the entry buffer.
        self.resubmission_queue: dict[
            tuple[MessageKind, int], list[tuple[str, bytes]]
        ] = {}
        #: Deadline for a retry window when the round has none of its own
        #: (blocking mode), so refunds still run if no refunded client
        #: ever resubmits.
        self.retry_deadline_seconds = 30.0
        #: Settled windows older than this many rounds are dropped; their
        #: stragglers find no window and are answered with LATE.
        self.keep_windows = 64
        self.late_requests = 0
        self.rounds_run = 0
        #: Round attempts aborted by a chain failure (and retried).
        self.rounds_aborted = 0
        #: Optional round ledger the lifecycle is recorded into.
        self.ledger = None
        self._shutdown = False
        transport.register(entry.name, self.handle)

    # ---------------------------------------------------------------- ledger

    def _record(self, type_: str, window: SubmissionWindow, **data) -> None:
        if self.ledger is not None:
            self.ledger.append(
                type_, {"kind": window.kind.value, "round": window.round_number, **data}
            )

    def _submissions_digest(self, window: SubmissionWindow) -> str:
        """SHA-256 over the batch about to enter the chain, in buffer order,
        so a replayed round can be checked to have submitted the same wires."""
        batch = hashlib.sha256()
        for client, payload in self.entry.submissions(window.kind, window.round_number):
            batch.update(client.encode("utf-8"))
            batch.update(len(payload).to_bytes(4, "big"))
            batch.update(payload)
        return batch.hexdigest()

    # -------------------------------------------------------------- windowing

    def open_round(
        self,
        kind: MessageKind,
        round_number: int,
        *,
        deadline_seconds: float | None = None,
        expected_requests: int | None = None,
        attempt: int = 1,
    ) -> SubmissionWindow:
        """Open the submission window for one round.

        ``deadline_seconds`` defaults to the coordinator-wide setting.  In
        blocking mode a deadline starts a timer that force-closes the window;
        in synchronous mode it only marks later submissions as stragglers.
        ``attempt`` pre-forces the attempt number: ledger replay jumps
        straight to a recorded round's final retry, whose chain rng streams
        are labelled ``round-R/attempt-N``.
        """
        if kind not in self.entry.first_server:
            raise ProtocolError(f"the entry server does not handle {kind}")
        if attempt < 1:
            raise ProtocolError("a round's attempt number starts at 1")
        seconds = deadline_seconds if deadline_seconds is not None else self.deadline_seconds
        key = (kind, round_number)
        with self._lock:
            if self._shutdown:
                raise ProtocolError("the coordinator has been shut down")
            if key in self._windows:
                raise ProtocolError(f"round {round_number} ({kind.value}) is already open")
            if round_number <= self._highest_closed.get(kind, -1):
                raise ProtocolError(f"round {round_number} ({kind.value}) has already run")
            window = SubmissionWindow(
                kind=kind,
                round_number=round_number,
                deadline=None if seconds is None else self._clock() + seconds,
                deadline_seconds=seconds,
                expected_requests=expected_requests,
                attempt=attempt,
            )
            self._windows[key] = window
            self._arm_deadline(window)
            horizon = round_number - self.keep_windows
            for old in [
                k
                for k, other in self._windows.items()
                if k[0] is kind and k[1] < horizon and other.outcome is not None
            ]:
                del self._windows[old]
                self.resubmission_queue.pop(old, None)
        self._record(
            "window_open", window, deadline_seconds=seconds, expected_requests=expected_requests
        )
        return window

    def _arm_deadline(self, window: SubmissionWindow) -> None:
        """Start a window's force-close timer (lock held)."""
        if not self.blocking_responses or window.deadline_seconds is None:
            return
        # repro-lint: allow[nd-wallclock] the deadline timer is real time by design (degraded-mode force-close); its firing aborts the attempt, it never writes bytes
        timer = threading.Timer(window.deadline_seconds, self._close_unattended, args=(window,))
        timer.daemon = True
        self._timers[(window.kind, window.round_number)] = timer
        timer.start()

    def window(self, kind: MessageKind, round_number: int) -> SubmissionWindow | None:
        with self._lock:
            return self._windows.get((kind, round_number))

    def forget_client(self, name: str) -> int:
        """Drop every trace of a permanently-departed client: its parked
        refunds and its bookkeeping on settled windows.  Returns the number
        of parked refund payloads discarded."""
        discarded = 0
        with self._lock:
            for key, entries in self.resubmission_queue.items():
                kept = [entry for entry in entries if entry[0] != name]
                discarded += len(entries) - len(kept)
                self.resubmission_queue[key] = kept
            for window in self._windows.values():
                window.forget(name)
        return discarded

    def _close_unattended(self, window: SubmissionWindow) -> None:
        """Close a window for a caller with nobody to re-raise to (the
        deadline timer, the arrival that completed the expected count, an
        empty retry); a failure lands in the window's outcome."""
        try:
            self.close_round(window)
        except (NetworkError, ProtocolError):
            pass

    def _close_if_due(self, window: SubmissionWindow | None) -> None:
        if self.blocking_responses and window is not None and window.due:
            self._close_unattended(window)

    # ------------------------------------------------------------- submission

    def handle(self, envelope: Envelope) -> bytes | None:
        """Transport handler for everything addressed to the entry server."""
        if envelope.kind is MessageKind.CONTROL:
            # Control traffic is neither gated by a window nor a straggler.
            if self.control_handler is None:
                raise ProtocolError(f"the entry server does not handle {envelope.kind}")
            return self.control_handler(envelope)
        if envelope.kind is MessageKind.DIAL_DOWNLOAD:
            # Public reads (§5.3), never gated; serving one may block on a
            # fetch from the last chain server, so never under the lock.
            return self.entry.serve_invitations(decode_download_request(envelope.payload))
        if envelope.kind is MessageKind.SUBMISSION_BATCH:
            kind, round_number, entries = decode_submission_batch(envelope.payload)
            # Immediate per-entry verdicts, never a long-poll: the sender's
            # wait on each chunk bounds its in-flight memory.
            window, verdicts, _ = self._gate(kind, round_number, entries)
            self._close_if_due(window)
            return encode_batch_verdicts(round_number, verdicts)
        if envelope.kind is MessageKind.RESPONSE_COLLECT:
            kind, round_number, names = decode_collect_request(envelope.payload)
            responses = self.wait_for_result(kind, round_number).responses
            if responses is None:
                raise ProtocolError(
                    f"round {round_number} ({kind.value}) resolved too long ago: "
                    "its responses are no longer held"
                )
            return encode_collect_reply(round_number, [responses.get(name, []) for name in names])
        window, verdicts, slots = self._gate(
            envelope.kind, envelope.round_number, [(envelope.source, envelope.payload)]
        )
        self._close_if_due(window)
        if verdicts[0] != VERDICT_ACCEPTED or not self.blocking_responses:
            return _REPLIES[verdicts[0]]
        return self._await_response(window, envelope.source, slots[0])

    def _gate(
        self, kind: MessageKind, round_number: int, entries: list[tuple[str, bytes]]
    ) -> tuple[SubmissionWindow | None, bytes | bytearray, list[int]]:
        """The one gate loop, for a lone submission and a swarm chunk alike.

        Returns the round's window, one verdict per entry and the per-wire
        loop's slot indices.  Networked mode hashes every payload (its
        idempotency key) before taking the lock.
        """
        keys = [digest(payload) for _, payload in entries] if self.blocking_responses else None
        with self._lock:
            window = self._windows.get((kind, round_number))
            slots: list[int] = []
            if window is None:
                verdicts: bytes | bytearray = bytes([VERDICT_LATE]) * len(entries)
            elif (
                window.phase is Phase.OPEN
                and window.deadline is None
                and keys is None
                and not self.entry.require_registration
            ):
                # Fast path (the in-process swarm): no deadline, no dedup and
                # an entry that cannot refuse, so the chunk is one buffer
                # extend and one tally merge, leaving every observable as the
                # per-wire loop would.
                tallies: dict[str, int] = {}
                for source, _ in entries:
                    tallies[source] = tallies.get(source, 0) + 1
                self.entry.admit_chunk(kind, round_number, entries, tallies)
                window.admit_chunk(tallies)
                verdicts = bytes([VERDICT_ACCEPTED]) * len(entries)
            else:
                verdicts = bytearray()
                for position, (source, payload) in enumerate(entries):
                    key = keys[position] if keys is not None else None
                    # The deadline may pass while a long chunk is gated.
                    verdict, slot = window.check_in(source, key, self._clock()) or window.admit(
                        source, key, self.entry.admit(kind, round_number, source, payload) == ACK
                    )
                    verdicts.append(verdict)
                    slots.append(slot)
            self.late_requests += verdicts.count(VERDICT_LATE)
        return window, verdicts, slots

    def _await_response(self, window: SubmissionWindow, source: str, slot: int) -> bytes | None:
        """Block an accepted networked submission until its attempt settles."""
        outcome = self._outcome(
            (window.kind, window.round_number), window, self.response_wait_seconds
        )
        if isinstance(outcome, RoundAbortedError):
            return ABORTED  # a retry window is open: the client resubmits
        if isinstance(outcome, Exception):
            raise ProtocolError(f"round {window.round_number} failed: {outcome}") from outcome
        # A waiter that slept through RESPONSE_WINDOWS later rounds finds the
        # payloads released: a lost round, like any missing response.
        responses = (outcome.responses or {}).get(source, [])
        return responses[slot] if slot < len(responses) else None

    # ---------------------------------------------------------------- closing

    def close_round(self, window: SubmissionWindow) -> RoundResult:
        """Close the window, drive the chain, resolve (or abort) the round.

        Idempotent: a second close returns (or re-raises) the first close's
        outcome.  A failure with retry budget left aborts the attempt and
        opens its retry: blocking mode raises :class:`RoundAbortedError`,
        synchronous mode re-runs the round inline and returns the retry's
        result.
        """
        with self._lock:
            if not window.close():
                outcome = self._outcome(
                    (window.kind, window.round_number), window, self.response_wait_seconds
                )
                if isinstance(outcome, Exception):
                    raise outcome
                return outcome
            timer = self._timers.pop((window.kind, window.round_number), None)
            if timer is not None:
                timer.cancel()
            self._highest_closed[window.kind] = max(
                self._highest_closed.get(window.kind, -1), window.round_number
            )
        try:
            self._await_drive_turn(window)
        except (NetworkError, ProtocolError) as exc:
            self._fail(window, exc)
            raise
        batch_digest = self._submissions_digest(window) if self.ledger is not None else None
        try:
            grouped = self.entry.run_round_grouped(
                window.kind, window.round_number, window.attempt
            )
        except Exception as exc:
            retryable = isinstance(exc, ConnectTimeout) or (
                isinstance(exc, NetworkError) and not isinstance(exc, TransportTimeout)
            )
            if retryable and window.attempt < self.max_round_attempts and not self._shutdown:
                return self._abort_and_retry(window, exc)
            error = exc
            if isinstance(exc, TransportTimeout):
                error = ProtocolError(
                    f"round {window.round_number} ({window.kind.value}): a chain hop "
                    f"timed out: {exc}"
                )
                error.__cause__ = exc
            self._fail(window, error)
            raise error
        self._record(
            "window_close",
            window,
            attempt=window.attempt,
            accepted=window.accepted,
            refused=window.refused,
            late=window.late,
            submissions_sha256=batch_digest,
            # The fork label every chain server derives this attempt's noise,
            # wrap scalars and permutation from: the seed trail replay re-walks.
            rng_label=f"round-{window.round_number}/attempt-{window.attempt}",
        )
        with self._resolved_cond:
            result = window.resolve(grouped)
            self.rounds_run += 1
            stale = self._windows.get((window.kind, window.round_number - RESPONSE_WINDOWS))
            if stale is not None:
                stale.release_responses()
            self._resolved_cond.notify_all()
        return result

    def _abort_and_retry(self, window: SubmissionWindow, exc: Exception) -> RoundResult:
        """Abort a failed attempt and open its retry window atomically.

        The retry opens in the same lock hold that settles the attempt, so a
        networked client told :data:`ABORTED` finds it open; it is seeded
        with the batch still buffered at the entry, so refunded clients that
        never come back still have their messages run.
        """
        key = (window.kind, window.round_number)
        with self._resolved_cond:
            retry_seconds = window.deadline_seconds
            if retry_seconds is None and self.blocking_responses:
                retry_seconds = self.retry_deadline_seconds
            refunds = [
                (client, digest(payload) if self.blocking_responses else None)
                for client, payload in self.entry.submissions(*key)
            ]
            retry = window.abort(refunds, self._clock(), retry_seconds, exc)
            self._windows[key] = retry
            self._arm_deadline(retry)
            self.rounds_aborted += 1
            self._resolved_cond.notify_all()
        self._record(
            "round_aborted",
            window,
            attempt=window.attempt,
            error=str(exc),
            retry_attempt=retry.attempt,
        )
        if not self.blocking_responses:
            # No long-polls to answer: re-run the round inline (fresh noise,
            # fresh permutations) and hand the caller the retry's result.
            return self.close_round(retry)
        # Nothing refunded means nobody resubmits: re-run the empty round
        # now so wait_for_result still resolves.
        self._close_if_due(retry)
        raise window.outcome

    def _fail(self, window: SubmissionWindow, error: Exception) -> None:
        """Settle a permanently failed round: withdraw its batch from the
        entry buffer (the round number never comes back) into
        :attr:`resubmission_queue`, and record ``round_failed``."""
        self._record("round_failed", window, attempt=window.attempt, error=str(error))
        key = (window.kind, window.round_number)
        with self._resolved_cond:
            self.resubmission_queue[key] = self.entry.withdraw(*key)
            window.fail(error)
            self._resolved_cond.notify_all()

    def _wait_until(self, done: Callable[[], bool], seconds: float) -> bool:
        """The one wait: on the resolution condition, until ``done()`` holds
        (the caller holds the lock, which each wait releases).  ``False``
        when ``seconds`` ran out first."""
        deadline = self._clock() + seconds
        while not done():
            remaining = deadline - self._clock()
            if remaining <= 0:
                return False
            self._resolved_cond.wait(remaining)
        return True

    def _await_drive_turn(self, window: SubmissionWindow) -> None:
        """Serialize chain drives of one kind in round-number order.

        The scheduler opens round N+1's window while round N mixes; if both
        batches reached the chain at once, each server's rng streams (noise,
        wrap scalars, permutation) would interleave nondeterministically.  So
        a closed window waits until every earlier round of its kind settled.
        Kinds never block each other (disjoint endpoints and rng streams).
        """

        def earliest() -> int:
            return min(
                (
                    number
                    for (kind, number), other in self._windows.items()
                    if kind is window.kind and other.outcome is None
                ),
                default=window.round_number,
            )

        with self._resolved_cond:
            if not self._wait_until(
                lambda: self._shutdown or earliest() >= window.round_number,
                self.response_wait_seconds,
            ):
                raise ProtocolError(
                    f"round {window.round_number} ({window.kind.value}) waited "
                    f"{self.response_wait_seconds}s for round {earliest()} to resolve"
                )
            if self._shutdown:
                raise NetworkError(
                    f"round {window.round_number} ({window.kind.value}): "
                    "the coordinator is shutting down"
                )

    def _outcome(
        self, key: tuple[MessageKind, int], attempt: SubmissionWindow | None, seconds: float
    ) -> RoundResult | Exception:
        """The one read of an outcome: wait until ``attempt`` — or, without
        one, whichever attempt holds the round's table entry (a retry
        replaces an aborted attempt there) — settles, and return its outcome."""

        def settled() -> bool:
            window = attempt or self._windows.get(key)
            return window is not None and window.outcome is not None

        with self._resolved_cond:
            if not self._wait_until(settled, seconds):
                raise TransportTimeout(
                    f"round {key[1]} ({key[0].value}) did not resolve within {seconds}s"
                )
            return (attempt or self._windows[key]).outcome

    def wait_for_result(
        self, kind: MessageKind, round_number: int, timeout: float | None = None
    ) -> RoundResult:
        """Block until a round resolves, across its aborts (the networked
        control plane's view): the attempt that ran, or the final error."""
        outcome = self._outcome(
            (kind, round_number), None, self.response_wait_seconds if timeout is None else timeout
        )
        if isinstance(outcome, Exception):
            raise ProtocolError(f"round {round_number} failed: {outcome}") from outcome
        return outcome

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Shut down: cancel timers and fail every unsettled window, so
        blocked long-polls return to their clients.  Idempotent."""
        with self._resolved_cond:
            if self._shutdown:
                return
            self._shutdown = True
            for timer in self._timers.values():
                timer.cancel()
            for window in self._windows.values():
                if window.outcome is None:
                    window.fail(
                        NetworkError(
                            f"round {window.round_number} ({window.kind.value}): "
                            "the coordinator is shutting down"
                        )
                    )
            self._resolved_cond.notify_all()
