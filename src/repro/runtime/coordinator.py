"""Deadline-driven round sequencing over any transport, with abort/retry.

:class:`RoundCoordinator` owns the lifecycle of one Vuvuzela round that
:class:`~repro.core.system.VuvuzelaSystem` used to hand-sequence inline: it
opens a submission window, admits client requests (delegating the §9
admission decisions to the :class:`~repro.server.entry.EntryServer`), closes
the batch at a deadline or on demand, drives it through the chain — every hop
of which runs on the PR 2 :class:`~repro.runtime.engine.RoundEngine` — and
hands the grouped responses back.  Requests that miss the window are refused
with :data:`LATE` and counted; a chain hop that exceeds its transport
deadline surfaces as a :class:`~repro.errors.ProtocolError`.

The same coordinator serves both deployment shapes:

* **synchronous** (``blocking_responses=False``, the in-process
  :class:`~repro.core.system.VuvuzelaSystem`): submissions are acknowledged
  immediately and the caller closes the window explicitly; responses are
  pushed to clients by the system, exactly as before.
* **networked** (``blocking_responses=True``, ``repro.server.entry_main``):
  each accepted submission *holds its reply* until the round resolves — the
  client's TCP request is its response channel, so the entry server never
  needs a route back to the client.  The window closes when its deadline
  timer fires or when ``expected_requests`` submissions have arrived,
  whichever comes first.

**Fault tolerance** (the paper's §6 availability model: any server can fail,
the system aborts the round and runs it again).  When the chain drive fails —
a killed hop, a dead link, a refused connection — and the retry budget
(``max_round_attempts``) is not exhausted, the coordinator *aborts* the
attempt instead of failing the round: accepted submissions are refunded —
they stay buffered at the entry — and a fresh window for the same round
number opens immediately, pre-seeded with those refunds (so nothing is lost
even if a client never comes back), while blocked long-polls are answered
with the :data:`ABORTED` marker so networked clients resubmit.  Rounds that
fail *permanently* park their undelivered submissions in
``resubmission_queue`` for inspection instead.  Resubmission is
idempotent: a window remembers each accepted payload's digest per client, so
a resubmitted request re-attaches to its original batch slot instead of being
admitted twice — every accepted message runs through the chain exactly once.
The re-run draws fresh noise and a fresh mix permutation at every hop, which
is exactly how the paper preserves privacy across an aborted round.  A
:class:`~repro.errors.TransportTimeout` (or a malformed round result) is
*not* retried: the chain may have committed the batch before the deadline
passed, so re-driving it could execute messages twice — those rounds fail,
clients experience a lost round, and §3.1 retransmission (with its
sequence-number duplicate suppression) recovers on the next round.  Retried
connection-level failures keep a narrow two-generals residue: a hop that
dies *after* forwarding can leave the tail of the chain committed while the
failure still propagates upstream, so the re-run would execute that batch a
second time.  Conversation delivery stays exactly-once regardless (the
receiving client's sequence tracker suppresses the duplicate); a dialing
invitation deposited in that window may be seen twice by its callee.

Every submission needs an open window for its ``(kind, round)``: one that
arrives before its round opens, after it closed, past its deadline or after
its window was pruned is answered :data:`LATE` and counted in
``late_requests``, so nothing is ever buffered at the entry outside a
window's accounting.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field, replace
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

#: Reply sent to requests that arrive after their round's window closed.
LATE = b"late"

#: Resolved rounds per kind whose response payloads are still held.  Every
#: reader — a long-poll woken by the resolution, the swarm's collect, the
#: in-process driver — takes a round's responses before the next round of its
#: kind can resolve (drives are serialized per kind); one more round of slack
#: covers a reader that is slow to wake.  Older windows keep their verdict
#: metadata (see ``keep_windows``) but none of the round's bytes.
RESPONSE_WINDOWS = 2

#: Reply sent to blocked long-polls when their round attempt was aborted by a
#: chain failure.  The round is being retried under the same number — the
#: client resubmits the same request (idempotently) to re-attach its reply
#: channel to the retry.
ABORTED = b"aborted"


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
    #: released (see :data:`RESPONSE_WINDOWS`).
    responses: dict[str, list[bytes]] | None
    #: How many attempts the round took (1 = no abort).
    attempts: int = 1
    #: How many responses the chain returned (survives the payloads' release).
    responded: int = 0


@dataclass
class SubmissionWindow:
    """Mutable state of one round's submission window (one attempt of it)."""

    kind: MessageKind
    round_number: int
    #: Absolute monotonic close time, or ``None`` for no deadline.
    deadline: float | None
    #: Close early once this many submissions were handled — accepted *or*
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
    #: Submissions gated through this window (accepted, refused or idempotent
    #: resubmissions) — the counter ``expected_requests`` closes on.
    arrivals: int = 0
    #: Idempotent resubmissions re-attached to an existing batch slot.
    resubmissions: int = 0
    closed: bool = False
    resolved: bool = False
    #: This attempt failed and a retry window took over the round.
    aborted: bool = False
    result: RoundResult | None = None
    error: Exception | None = None
    #: Deadline timer handle (blocking mode), cancelled when the window
    #: closes early — an uncancelled timer is a thread leak per round.
    timer: threading.Timer | None = None
    #: Per-client count of accepted submissions, for response alignment.
    per_client: dict[str, int] = field(default_factory=dict)
    #: Per-client digests of accepted payloads, in submission order: the
    #: idempotency key ``(kind, round, client, index)`` of abort/retry
    #: resubmission — a payload whose digest is already present re-attaches
    #: to its original index instead of being admitted again.
    submitted: dict[str, list[bytes]] = field(default_factory=dict)
    #: Accepted slots whose owner has checked in *on this window* — a fresh
    #: acceptance, or the first resubmission of a refund-seeded slot.  Keeps
    #: ``arrivals`` counting distinct check-ins: a duplicate resubmission
    #: (a client retrying a cut long-poll) must not push a first-attempt
    #: window over its expected count while other clients are still coming.
    claimed: set[tuple[str, int]] = field(default_factory=set)
    #: ``(client, digest)`` of payloads this round already refused, so a
    #: client retrying a REFUSED reply it never received is answered again
    #: without being re-handled — re-handling would double-count the
    #: refusal and could close an expected-count window early.
    refused_digests: set[tuple[str, bytes]] = field(default_factory=set)


def _digest(payload: bytes) -> bytes:
    # hashlib hashes memoryviews directly; copying first doubled the gate's
    # per-submission allocation.
    return hashlib.sha256(payload).digest()


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
        self._windows: dict[tuple[MessageKind, int], SubmissionWindow] = {}
        self._highest_closed: dict[MessageKind, int] = {}
        #: Post-mortem parking lot for rounds that failed *permanently*
        #: (retry budget exhausted, or a non-retryable error), keyed by
        #: (kind, round): the ``(client, payload)`` pairs that were accepted
        #: but never ran, withdrawn from the entry buffer so they cannot
        #: leak there, kept for inspection until the pruning horizon passes
        #: them.  Refunds of an *aborted-and-retried* attempt never appear
        #: here — they stay in the entry buffer, pre-seeded into the retry
        #: window.
        self.resubmission_queue: dict[
            tuple[MessageKind, int], list[tuple[str, bytes]]
        ] = {}
        #: Deadline for a retry window when the round has none of its own
        #: (blocking mode): without it, a refunded client that never
        #: resubmits would leave the retry window open forever and its
        #: refunded messages would never run.
        self.retry_deadline_seconds = 30.0
        #: Resolved windows older than this many rounds are dropped, so a
        #: long-running entry server's memory stays bounded; their
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

    def _record(self, type_: str, data: dict) -> None:
        if self.ledger is not None:
            self.ledger.append(type_, data)

    def _submissions_digest(self, window: SubmissionWindow) -> str:
        """SHA-256 fingerprint of the batch about to enter the chain.

        Covers every (client, payload) pair in the entry buffer in buffer
        order — the order the batch is driven in — so a replayed round can
        be checked to have submitted byte-identical wires."""
        digest = hashlib.sha256()
        for client, payload in self.entry.submissions(window.kind, window.round_number):
            digest.update(client.encode("utf-8"))
            digest.update(len(payload).to_bytes(4, "big"))
            digest.update(payload)
        return digest.hexdigest()

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
        in synchronous mode it only marks later submissions as stragglers —
        the caller still closes explicitly.

        ``attempt`` pre-forces the window's attempt number.  Ledger replay
        uses it to jump straight to a recorded round's final retry: the
        chain's rng streams are labelled ``round-R/attempt-N``, so forcing N
        reproduces the recorded bytes without re-running the aborted
        attempts (which leave no observable trace).
        """
        if kind not in self.entry.first_server:
            raise ProtocolError(f"the entry server does not handle {kind}")
        if attempt < 1:
            raise ProtocolError("a round's attempt number starts at 1")
        seconds = deadline_seconds if deadline_seconds is not None else self.deadline_seconds
        with self._lock:
            if self._shutdown:
                raise ProtocolError("the coordinator has been shut down")
            key = (kind, round_number)
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
            horizon = round_number - self.keep_windows
            for old_key in [
                k
                for k, old in self._windows.items()
                if k[0] is kind and k[1] < horizon and old.resolved
            ]:
                del self._windows[old_key]
                self.resubmission_queue.pop(old_key, None)
        self._arm_deadline(window, seconds)
        self._record(
            "window_open",
            {
                "kind": kind.value,
                "round": round_number,
                "deadline_seconds": seconds,
                "expected_requests": expected_requests,
            },
        )
        return window

    def _arm_deadline(self, window: SubmissionWindow, seconds: float | None) -> None:
        """Start (and keep a handle on) a window's force-close timer."""
        if not self.blocking_responses or seconds is None:
            return
        # repro-lint: allow[nd-wallclock] the deadline timer is real time by design (degraded-mode force-close); its firing aborts the attempt, it never writes bytes
        timer = threading.Timer(seconds, self._close_unattended, args=(window,))
        timer.daemon = True
        window.timer = timer
        timer.start()

    def window(self, kind: MessageKind, round_number: int) -> SubmissionWindow | None:
        with self._lock:
            return self._windows.get((kind, round_number))

    def forget_client(self, name: str) -> int:
        """Drop every trace of a permanently-departed client.

        Without this, a long churny session leaks per departed client: its
        parked refunds in :attr:`resubmission_queue` (kept until the
        keep-windows horizon — forever, for the rounds that failed last),
        and its payload-digest dedup entries / pending per-round state on
        resolved windows.  In-flight (unresolved) windows are deliberately
        left alone: an accepted submission still runs through the chain as
        cover traffic even though nobody will read the response — the same
        §6 behaviour as a client crashing after its request was accepted.

        Returns the number of parked refund payloads discarded.
        """
        discarded = 0
        with self._lock:
            for key in list(self.resubmission_queue):
                entries = self.resubmission_queue[key]
                kept = [(client, payload) for client, payload in entries if client != name]
                discarded += len(entries) - len(kept)
                if kept:
                    self.resubmission_queue[key] = kept
                else:
                    del self.resubmission_queue[key]
            for window in self._windows.values():
                if not window.resolved:
                    continue
                window.per_client.pop(name, None)
                window.submitted.pop(name, None)
                window.claimed = {
                    claim for claim in window.claimed if claim[0] != name
                }
                window.refused_digests = {
                    entry for entry in window.refused_digests if entry[0] != name
                }
        return discarded

    def _close_unattended(self, window: SubmissionWindow) -> None:
        """Close a window for a caller with nobody to re-raise to: the deadline
        timer, the submission that completed the expected count, an empty
        retry.  A failure is recorded on the window; waiters and
        :meth:`wait_for_result` observe it there."""
        try:
            self.close_round(window)
        except (NetworkError, ProtocolError):
            pass

    # ------------------------------------------------------------- submission

    def handle(self, envelope: Envelope) -> bytes | None:
        """Transport handler for everything addressed to the entry server."""
        if envelope.kind is MessageKind.CONTROL:
            # Control traffic is not a round submission: it must neither be
            # gated by a window nor counted as a straggler.
            if self.control_handler is None:
                raise ProtocolError(f"the entry server does not handle {envelope.kind}")
            return self.control_handler(envelope)
        if envelope.kind is MessageKind.DIAL_DOWNLOAD:
            # Invitation downloads are public reads (the adversary can read
            # any bucket anyway, §5.3), served to unregistered sources too and
            # never gated by a window.  Serving one may block on a fetch from
            # the last chain server, so it must not run under the coordinator
            # lock (it would wedge every submission and close until the fetch
            # resolved).
            return self.entry.serve_invitations(decode_download_request(envelope.payload))
        if envelope.kind is MessageKind.SUBMISSION_BATCH:
            return self._handle_submission_batch(envelope)
        if envelope.kind is MessageKind.RESPONSE_COLLECT:
            return self._handle_response_collect(envelope)
        with self._lock:
            window = self._windows.get((envelope.kind, envelope.round_number))
            if not self._admits(window):
                self._count_late(window, 1)
                return LATE
            reply, refused, index = self._gate_one(window, envelope.source, envelope.payload)
        self._close_if_expected(window)
        if refused or not self.blocking_responses:
            return reply
        return self._await_response(window, envelope.source, index)

    def _admits(self, window: SubmissionWindow | None) -> bool:
        """The one admission gate (caller holds the lock): a submission needs
        its round's window, still open and inside its deadline."""
        return (
            window is not None
            and not window.closed
            and (window.deadline is None or self._clock() <= window.deadline)
        )

    def _count_late(self, window: SubmissionWindow | None, count: int) -> None:
        """Count ``count`` submissions the gate refused as stragglers."""
        if window is not None:
            window.late += count
        self.late_requests += count

    def _gate_one(
        self,
        window: SubmissionWindow,
        source: str,
        payload: bytes,
        digest: bytes | None = None,
    ) -> tuple[bytes, bool, int]:
        """Gate one submission through an open window (caller holds the lock).

        Returns ``(reply, refused, accepted index)``; index is -1 for a
        refusal.  Shared verbatim by the per-envelope path and the batched
        swarm path, so both produce identical window observables.  ``digest``
        lets the batched path hand in payload hashes it computed outside the
        lock.
        """
        # The digest bookkeeping exists for networked resubmission (abort
        # recovery, retried long-polls); synchronous deployments push
        # responses and never resubmit, so they skip the per-message hash.
        digests: list[bytes] | None = None
        if self.blocking_responses:
            if digest is None:
                digest = _digest(payload)
            digests = window.submitted.setdefault(source, [])
        else:
            digest = b""
        if digests is not None and digest in digests:
            # Idempotent resubmission (abort recovery, or a client whose
            # long-poll timed out): the payload already occupies a batch
            # slot — re-attach to it instead of admitting it twice.  Only
            # the slot owner's *first* check-in on this window counts
            # toward the expected-close: re-claiming a slot the client
            # already checked in (a duplicate retry) must not close a
            # window other clients are still submitting into.
            window.resubmissions += 1
            reply, refused = ACK, False
            index = digests.index(digest)
            if (source, index) not in window.claimed:
                window.claimed.add((source, index))
                window.arrivals += 1
        elif digests is not None and (source, digest) in window.refused_digests:
            # A retry of a refusal whose reply was lost in transit:
            # answer it again, but it already counted.
            reply, refused, index = REFUSED, True, -1
        else:
            reply = self.entry.admit(window.kind, window.round_number, source, payload)
            refused = reply == REFUSED
            window.arrivals += 1
            if refused:
                window.refused += 1
                if digests is not None:
                    window.refused_digests.add((source, digest))
                index = -1
            else:
                index = window.per_client.get(source, 0)
                if digests is not None:
                    digests.append(digest)
                    window.claimed.add((source, index))
                window.accepted += 1
                window.per_client[source] = index + 1
        return reply, refused, index

    def _close_if_expected(self, window: SubmissionWindow) -> None:
        """Close a networked window once its expected submissions arrived."""
        with self._lock:
            due = (
                self.blocking_responses
                and window.expected_requests is not None
                and window.arrivals >= window.expected_requests
            )
        if due:
            self._close_unattended(window)

    def _handle_submission_batch(self, envelope: Envelope) -> bytes:
        """Gate one chunk of submissions under a single lock acquisition.

        The swarm's ingest path: every entry runs through the same
        :meth:`_gate_one` logic as a per-envelope submission — same dedup,
        refund and counter observables — but the reply is a per-entry verdict
        frame returned *immediately*, never a long-poll, so the sender's
        synchronous wait on each chunk bounds its in-flight memory (the
        explicit backpressure of the chunked ingest).  Responses are fetched
        afterwards with :data:`MessageKind.RESPONSE_COLLECT` (networked) or
        read off the :class:`RoundResult` directly (in-process).
        """
        kind, round_number, entries = decode_submission_batch(envelope.payload)
        reply_to = {ACK: VERDICT_ACCEPTED, REFUSED: VERDICT_REFUSED}
        # Everything computable per wire is hoisted out of the lock: the
        # dedup digests (networked mode's most expensive per-wire work) and
        # the chunk's per-source multiplicities (what the fast path below
        # merges into the window and entry counters in bulk).
        digests = (
            [_digest(payload) for _, payload in entries]
            if self.blocking_responses
            else None
        )
        tallies: dict[str, int] = {}
        for source, _ in entries:
            tallies[source] = tallies.get(source, 0) + 1
        verdicts: bytes | bytearray = bytearray()
        with self._lock:
            window = self._windows.get((kind, round_number))
            if not self._admits(window):
                self._count_late(window, len(entries))
                return encode_batch_verdicts(
                    round_number, bytes([VERDICT_LATE]) * len(entries)
                )
            if (
                window.deadline is None
                and not self.blocking_responses
                and not self.entry.require_registration
            ):
                # Fast path — the in-process swarm configuration: no deadline
                # clock to consult per wire, no long-poll dedup, and
                # admission control that cannot refuse.  The whole chunk is
                # one buffer extend, two tally merges and one verdict string;
                # every observable (buffer order, per-source counts, window
                # arrivals/accepted) lands exactly as the per-wire loop
                # below would leave it.
                self.entry.admit_chunk(kind, round_number, entries, tallies)
                window.arrivals += len(entries)
                window.accepted += len(entries)
                per_client = window.per_client
                for source, added in tallies.items():
                    per_client[source] = per_client.get(source, 0) + added
                verdicts = bytes([VERDICT_ACCEPTED]) * len(entries)
            else:
                for position, (source, payload) in enumerate(entries):
                    # The deadline may pass while a long chunk is gated.
                    if not self._admits(window):
                        self._count_late(window, 1)
                        verdicts.append(VERDICT_LATE)
                        continue
                    reply, _, _ = self._gate_one(
                        window,
                        source,
                        payload,
                        digest=digests[position] if digests is not None else None,
                    )
                    verdicts.append(reply_to[reply])
        self._close_if_expected(window)
        return encode_batch_verdicts(round_number, verdicts)

    def _handle_response_collect(self, envelope: Envelope) -> bytes:
        """Return a resolved round's responses for many clients in one frame.

        Blocks until the round resolves (waiting across aborts, like the
        per-client long-poll does) — the swarm collects after it closed the
        round, so in practice the result is already there.
        """
        kind, round_number, names = decode_collect_request(envelope.payload)
        responses = self.wait_for_result(kind, round_number).responses
        if responses is None:
            raise ProtocolError(
                f"round {round_number} ({kind.value}) resolved too long ago: "
                "its responses are no longer held"
            )
        return encode_collect_reply(round_number, [responses.get(name, []) for name in names])

    def _await_response(self, window: SubmissionWindow, source: str, index: int) -> bytes | None:
        """Block an accepted networked submission until its round resolves."""
        with self._resolved_cond:
            self._wait_resolved(window)
            if window.aborted:
                # The attempt died to a chain failure and a retry window is
                # already open: tell the client to resubmit, don't error out.
                return ABORTED
            if window.error is not None:
                raise ProtocolError(
                    f"round {window.round_number} failed: {window.error}"
                ) from window.error
            assert window.result is not None
            # A waiter that slept through RESPONSE_WINDOWS later rounds finds
            # the payloads released: a lost round, like any missing response.
            responses = (window.result.responses or {}).get(source, [])
        return responses[index] if index < len(responses) else None

    # ---------------------------------------------------------------- closing

    def close_round(self, window: SubmissionWindow) -> RoundResult:
        """Close the window, drive the chain, resolve (or abort) the round.

        Idempotent: a second close (deadline timer racing an explicit or
        expected-count close) returns the first close's result.  A hop that
        times out surfaces as :class:`ProtocolError`; a failure with retry
        budget left aborts the attempt instead — refunding submissions,
        opening a retry window for the same round number and (blocking mode)
        raising :class:`RoundAbortedError` / (synchronous mode) re-running
        the round inline and returning the retry's result.
        """
        with self._lock:
            if window.closed:
                return self._resolved_result(window)
            window.closed = True
            if window.timer is not None:
                window.timer.cancel()
            self._highest_closed[window.kind] = max(
                self._highest_closed.get(window.kind, -1), window.round_number
            )
        try:
            self._await_drive_turn(window)
        except (NetworkError, ProtocolError) as exc:
            # The drive turn never came (an earlier round is wedged, or the
            # coordinator shut down): a permanent failure like any other.
            self._fail(window, exc)
            raise
        batch_digest = (
            self._submissions_digest(window) if self.ledger is not None else None
        )
        try:
            grouped = self.entry.run_round_grouped(
                window.kind, window.round_number, window.attempt
            )
        except Exception as exc:
            # The failed batch is still in the entry buffer; decide between
            # abort-and-retry and permanent failure.
            # Only *unambiguous* link failures are retried: after a
            # request-phase TransportTimeout (or a malformed result) the
            # chain may in fact have committed its dead-drop writes, and
            # re-driving the batch would execute every message twice.  Those
            # rounds fail instead — clients lose the round and retransmit
            # next round, where sequence numbers already suppress any
            # duplicate delivery.  A ConnectTimeout is the exception within
            # the timeout family: the connect never completed, so nothing
            # was delivered and the retry is provably safe (this is the
            # common signature of a crashed-or-partitioned host that drops
            # SYNs instead of refusing them).
            retryable = isinstance(exc, ConnectTimeout) or (
                isinstance(exc, NetworkError) and not isinstance(exc, TransportTimeout)
            )
            if retryable and window.attempt < self.max_round_attempts and not self._shutdown:
                retry = self._abort_and_reopen(window)
                self._record(
                    "round_aborted",
                    {
                        "kind": window.kind.value,
                        "round": window.round_number,
                        "attempt": window.attempt,
                        "error": str(exc),
                        "retry_attempt": retry.attempt,
                    },
                )
                if not self.blocking_responses:
                    # Synchronous callers hold no long-polls: re-run the
                    # round inline (fresh noise, fresh permutations) and hand
                    # them the retry's result directly.
                    return self.close_round(retry)
                if retry.expected_requests == 0:
                    # Nothing was refunded and nobody will resubmit (every
                    # submission was refused): re-run the empty round now so
                    # wait_for_result still resolves.
                    self._close_unattended(retry)
                raise RoundAbortedError(
                    f"round {window.round_number} ({window.kind.value}) attempt "
                    f"{window.attempt} aborted ({exc}); retrying as attempt "
                    f"{retry.attempt}"
                ) from exc
            error = exc
            if isinstance(exc, TransportTimeout):
                error = ProtocolError(
                    f"round {window.round_number} ({window.kind.value}): a chain hop "
                    f"timed out: {exc}"
                )
                error.__cause__ = exc
            self._fail(window, error)
            if error is exc:
                raise
            raise error
        result = RoundResult(
            kind=window.kind,
            round_number=window.round_number,
            accepted=window.accepted,
            refused=window.refused,
            late=window.late,
            responses=grouped,
            attempts=window.attempt,
            responded=sum(len(responses) for responses in grouped.values()),
        )
        self._record(
            "window_close",
            {
                "kind": window.kind.value,
                "round": window.round_number,
                "attempt": window.attempt,
                "accepted": window.accepted,
                "refused": window.refused,
                "late": window.late,
                "submissions_sha256": batch_digest,
                # The fork label every chain server derives this attempt's
                # noise, wrap scalars and mix permutation from (see
                # MixServer.round_rng): the seed trail replay re-walks.
                "rng_label": f"round-{window.round_number}/attempt-{window.attempt}",
            },
        )
        self._resolve(window, result=result)
        return result

    def _fail(self, window: SubmissionWindow, error: Exception) -> None:
        """Resolve a permanently failed round with ``error``.

        The one path for every permanent failure — retry budget exhausted, a
        non-retryable chain error, a drive turn that never came.  The batch
        is withdrawn from the entry buffer, where it would leak (the round
        number never comes back), and parked in :attr:`resubmission_queue`
        for inspection; the ledger records ``round_failed``.
        """
        key = (window.kind, window.round_number)
        with self._lock:
            self.resubmission_queue[key] = self.entry.withdraw(*key)
        self._record(
            "round_failed",
            {
                "kind": window.kind.value,
                "round": window.round_number,
                "attempt": window.attempt,
                "error": str(error),
            },
        )
        self._resolve(window, error=error)

    def _wait_until(self, done: Callable[[], bool], seconds: float) -> bool:
        """Wait on the resolution condition until ``done()`` holds.

        The one wait of the coordinator: the caller holds the lock, which
        each wait releases.  ``False`` when ``seconds`` ran out first.
        """
        deadline = self._clock() + seconds
        while not done():
            remaining = deadline - self._clock()
            if remaining <= 0:
                return False
            self._resolved_cond.wait(remaining)
        return True

    def _wait_resolved(self, window: SubmissionWindow) -> None:
        """Wait until one attempt's window resolves (caller holds the lock)."""
        if not self._wait_until(lambda: window.resolved, self.response_wait_seconds):
            raise TransportTimeout(
                f"round {window.round_number} did not resolve within "
                f"{self.response_wait_seconds}s"
            )

    def _await_drive_turn(self, window: SubmissionWindow) -> None:
        """Serialize chain drives of one kind in round-number order.

        The continuous scheduler opens round N+1's submission window while
        round N's chain is still mixing; if both batches reached the chain
        concurrently, each server's per-protocol rng stream (noise, wrap
        scalars, the mix permutation) would interleave nondeterministically
        and overlapped execution would no longer be byte-identical to serial
        execution.  So a closed window waits here until every earlier round
        of its kind has resolved — successfully, permanently, or through an
        abort whose retry resolved — before its batch may enter the chain.
        Different kinds never block each other: a dialing round mixes
        concurrently with a conversation round (disjoint endpoints, disjoint
        rng streams).
        """

        def earliest() -> int:
            return min(
                (
                    number
                    for (kind, number), other in self._windows.items()
                    if kind is window.kind and not other.resolved
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

    def _abort_and_reopen(self, window: SubmissionWindow) -> SubmissionWindow:
        """Abort a failed attempt and open its retry window atomically.

        The retry window opens *before* the aborted one resolves, so a
        networked client that is told :data:`ABORTED` and instantly
        resubmits finds an open window, never a straggler refusal.  The
        retry is pre-seeded with the refunded submissions: their batch slots,
        per-client ordering and idempotency digests survive, so resubmitting
        clients re-attach to their original indices and clients that never
        come back still have their accepted messages run through the chain.
        """
        key = (window.kind, window.round_number)
        with self._lock:
            # The failed batch is still in the entry buffer; the refunds stay
            # right there for the re-run — only their window bookkeeping
            # needs rebuilding.
            refunds = self.entry.submissions(window.kind, window.round_number)
            # A retry must always be able to close on its own: fall back to
            # the coordinator-wide retry deadline when the round has no
            # deadline of its own, so refunded messages still run even if
            # every refunded client is gone for good (blocking mode).
            retry_seconds = window.deadline_seconds
            if retry_seconds is None and self.blocking_responses:
                retry_seconds = self.retry_deadline_seconds
            retry = SubmissionWindow(
                kind=window.kind,
                round_number=window.round_number,
                deadline=(
                    None if retry_seconds is None else self._clock() + retry_seconds
                ),
                deadline_seconds=retry_seconds,
                # Only refunded (accepted) clients will resubmit — refused
                # ones were answered immediately and are done with the round.
                expected_requests=(
                    len(refunds) if window.expected_requests is not None else None
                ),
                attempt=window.attempt + 1,
                # The attempt's admission history is the round's history.
                refused=window.refused,
                late=window.late,
                refused_digests=set(window.refused_digests),
            )
            for client, payload in refunds:
                index = retry.per_client.get(client, 0)
                if self.blocking_responses:
                    retry.submitted.setdefault(client, []).append(_digest(payload))
                retry.per_client[client] = index + 1
                retry.accepted += 1
            self._windows[key] = retry
            self.rounds_aborted += 1
        self._arm_deadline(retry, retry.deadline_seconds)
        with self._resolved_cond:
            window.aborted = True
            window.resolved = True
            self._resolved_cond.notify_all()
        return retry

    def _resolve(
        self,
        window: SubmissionWindow,
        *,
        result: RoundResult | None = None,
        error: Exception | None = None,
    ) -> None:
        with self._resolved_cond:
            window.result = result
            window.error = error
            window.resolved = True
            if result is not None:
                self.rounds_run += 1
                self._release_responses(window.kind)
            self._resolved_cond.notify_all()

    def _release_responses(self, kind: MessageKind) -> None:
        """Drop the response payloads of all but the newest
        :data:`RESPONSE_WINDOWS` resolved rounds of ``kind`` (lock held).

        Only the coordinator's reference goes: a caller that was handed the
        :class:`RoundResult` keeps its own.  Everything the late/duplicate
        verdicts need stays on the window until ``keep_windows`` prunes it.
        """
        holding = sorted(
            number
            for (window_kind, number), window in self._windows.items()
            if window_kind is kind
            and window.result is not None
            and window.result.responses is not None
        )
        for number in holding[:-RESPONSE_WINDOWS]:
            window = self._windows[(kind, number)]
            window.result = replace(window.result, responses=None)

    def _resolved_result(self, window: SubmissionWindow) -> RoundResult:
        """Wait out a concurrent close and return (or re-raise) its outcome."""
        with self._resolved_cond:
            self._wait_resolved(window)
            if window.aborted:
                raise RoundAbortedError(
                    f"round {window.round_number} ({window.kind.value}) attempt "
                    f"{window.attempt} was aborted and is being retried"
                )
            if window.error is not None:
                raise window.error
            assert window.result is not None
            return window.result

    def wait_for_result(
        self, kind: MessageKind, round_number: int, timeout: float | None = None
    ) -> RoundResult:
        """Block until a round resolves (the networked control plane's view).

        An aborted attempt does not resolve the round: its retry window
        replaces it in the window table, so this keeps waiting across
        aborts and returns the attempt that actually ran (or the final
        error once the retry budget is exhausted).
        """
        key = (kind, round_number)

        def settled() -> bool:
            window = self._windows.get(key)
            return window is not None and window.resolved and not window.aborted

        with self._resolved_cond:
            if not self._wait_until(
                settled, timeout if timeout is not None else self.response_wait_seconds
            ):
                raise TransportTimeout(
                    f"round {round_number} ({kind.value}) did not resolve in time"
                )
            window = self._windows[key]
            if window.error is not None:
                raise ProtocolError(
                    f"round {round_number} failed: {window.error}"
                ) from window.error
            assert window.result is not None
            return window.result

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Shut the coordinator down: cancel timers, unblock every waiter.

        Idempotent.  Open windows resolve with an error so blocked
        long-polls return to their clients instead of leaking until the
        transport is torn down under them.
        """
        with self._resolved_cond:
            if self._shutdown:
                return
            self._shutdown = True
            for window in self._windows.values():
                if window.timer is not None:
                    window.timer.cancel()
                if not window.resolved:
                    window.error = NetworkError(
                        f"round {window.round_number} ({window.kind.value}): "
                        "the coordinator is shutting down"
                    )
                    window.resolved = True
            self._resolved_cond.notify_all()
