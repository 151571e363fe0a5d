"""Tests for the round coordinator: windows, deadlines, stragglers, blocking
mode, and the abort/retry fault-tolerance path."""

from __future__ import annotations

import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.crypto import DeterministicRandom, KeyPair, unwrap_response, wrap_request
from repro.errors import ConnectTimeout, NetworkError, ProtocolError, TransportTimeout
from repro.mixnet import MixServer
from repro.net import Envelope, MessageKind, Network, TcpTransport
from repro.runtime import ABORTED, LATE, RoundCoordinator
from repro.runtime.coordinator import RESPONSE_WINDOWS
from repro.runtime.window import Phase
from repro.server import ACK, REFUSED, ChainServerEndpoint, EntryServer
from repro.server.wire import (
    VERDICT_ACCEPTED,
    VERDICT_LATE,
    decode_batch_verdicts,
    decode_collect_reply,
    encode_collect_request,
    encode_submission_batch,
)


def build_stack(rng, *, require_registration=False, **coordinator_kwargs):
    """Entry + two-server conversation chain + coordinator on one Network."""
    network = Network()
    keypairs = [KeyPair.generate(rng) for _ in range(2)]
    publics = [k.public for k in keypairs]

    def processor(round_number, payloads):
        return [bytes(payload).upper() for payload in payloads]

    for index, keypair in enumerate(keypairs):
        is_last = index == 1
        ChainServerEndpoint(
            name=f"server-{index}/conversation",
            mix_server=MixServer(
                index=index, keypair=keypair, chain_public_keys=publics, rng=rng.fork(f"s{index}")
            ),
            network=network,
            next_endpoint=None if is_last else "server-1/conversation",
            processor=processor if is_last else None,
        )
    entry = EntryServer(
        network=network,
        first_server={MessageKind.CONVERSATION_REQUEST: "server-0/conversation"},
        require_registration=require_registration,
    )
    coordinator = RoundCoordinator(network, entry, **coordinator_kwargs)
    return network, entry, publics, coordinator


class TestSynchronousWindows:
    def test_round_through_coordinator(self, rng):
        network, entry, publics, coordinator = build_stack(rng)
        window = coordinator.open_round(MessageKind.CONVERSATION_REQUEST, 0)
        wire, ctx = wrap_request(b"hello", publics, 0, rng)
        ack = network.send("alice", "entry", wire, MessageKind.CONVERSATION_REQUEST, 0)
        assert ack == ACK
        result = coordinator.close_round(window)
        assert result.accepted == 1 and result.refused == 0 and result.late == 0
        assert unwrap_response(result.responses["alice"][0], ctx) == b"HELLO"
        assert coordinator.rounds_run == 1

    def test_submission_after_close_is_late(self, rng):
        network, entry, publics, coordinator = build_stack(rng)
        window = coordinator.open_round(MessageKind.CONVERSATION_REQUEST, 0)
        coordinator.close_round(window)
        wire, _ = wrap_request(b"slow", publics, 0, rng)
        reply = network.send("straggler", "entry", wire, MessageKind.CONVERSATION_REQUEST, 0)
        assert reply == LATE
        assert coordinator.late_requests == 1
        # The straggler never reached the entry server's buffers.
        assert entry.pending_requests(MessageKind.CONVERSATION_REQUEST, 0) == 0

    def test_submission_after_deadline_is_late(self, rng):
        clock = [0.0]
        network, entry, publics, coordinator = build_stack(rng, clock=lambda: clock[0])
        window = coordinator.open_round(
            MessageKind.CONVERSATION_REQUEST, 0, deadline_seconds=10.0
        )
        wire, _ = wrap_request(b"on time", publics, 0, rng)
        assert network.send("alice", "entry", wire, MessageKind.CONVERSATION_REQUEST, 0) == ACK
        clock[0] = 11.0  # the deadline passes while a straggler is still uploading
        wire, _ = wrap_request(b"too late", publics, 0, rng)
        assert network.send("bob", "entry", wire, MessageKind.CONVERSATION_REQUEST, 0) == LATE
        result = coordinator.close_round(window)
        assert result.accepted == 1
        assert result.late == 1
        assert set(result.responses) == {"alice"}

    def test_refusals_are_counted_per_window(self, rng):
        network, entry, publics, coordinator = build_stack(rng, require_registration=True)
        entry.register_account("alice")
        window = coordinator.open_round(MessageKind.CONVERSATION_REQUEST, 0)
        wire, _ = wrap_request(b"a", publics, 0, rng)
        assert network.send("alice", "entry", wire, MessageKind.CONVERSATION_REQUEST, 0) == ACK
        wire, _ = wrap_request(b"x", publics, 0, rng)
        assert network.send("mallory", "entry", wire, MessageKind.CONVERSATION_REQUEST, 0) == REFUSED
        result = coordinator.close_round(window)
        assert result.accepted == 1
        assert result.refused == 1
        assert entry.refused_requests == 1

    def test_reopening_a_run_round_is_rejected(self, rng):
        _, _, _, coordinator = build_stack(rng)
        window = coordinator.open_round(MessageKind.CONVERSATION_REQUEST, 0)
        coordinator.close_round(window)
        with pytest.raises(ProtocolError):
            coordinator.open_round(MessageKind.CONVERSATION_REQUEST, 0)

    def test_double_open_is_rejected(self, rng):
        _, _, _, coordinator = build_stack(rng)
        coordinator.open_round(MessageKind.CONVERSATION_REQUEST, 3)
        with pytest.raises(ProtocolError):
            coordinator.open_round(MessageKind.CONVERSATION_REQUEST, 3)

    def test_unknown_kind_is_rejected(self, rng):
        _, _, _, coordinator = build_stack(rng)
        with pytest.raises(ProtocolError):
            coordinator.open_round(MessageKind.DIALING_REQUEST, 0)

    def test_close_is_idempotent(self, rng):
        network, entry, publics, coordinator = build_stack(rng)
        window = coordinator.open_round(MessageKind.CONVERSATION_REQUEST, 0)
        first = coordinator.close_round(window)
        assert coordinator.close_round(window) is first

    def test_hop_timeout_surfaces_as_protocol_error(self, rng):
        network, entry, publics, coordinator = build_stack(rng)

        def timeout_hop(envelope):
            raise TransportTimeout("server-1 took 30s")

        network.register("server-1/conversation", timeout_hop)
        window = coordinator.open_round(MessageKind.CONVERSATION_REQUEST, 0)
        wire, _ = wrap_request(b"doomed", publics, 0, rng)
        network.send("alice", "entry", wire, MessageKind.CONVERSATION_REQUEST, 0)
        with pytest.raises(ProtocolError, match="timed out"):
            coordinator.close_round(window)


class TestOneGate:
    @pytest.mark.parametrize("frame", ["envelope", "batch"])
    @pytest.mark.parametrize("blocking", [False, True], ids=["synchronous", "blocking"])
    def test_submission_before_its_window_opens_is_late(self, rng, blocking, frame):
        """Regression: a submission for a round not yet opened was admitted
        outside any window.  Synchronously it ran in the later window's batch
        uncounted (``responded`` exceeded ``accepted``); in blocking mode its
        ACK came back at once, where a client reads its round's response."""
        network, entry, publics, coordinator = build_stack(rng, blocking_responses=blocking)
        kind = MessageKind.CONVERSATION_REQUEST
        early, _ = wrap_request(b"too early", publics, 3, rng)
        if frame == "envelope":
            assert network.send("mallory", "entry", early, kind, 3) == LATE
        else:
            verdicts = network.send(
                "swarm",
                "entry",
                encode_submission_batch(kind, 3, [("mallory", early)]),
                kind=MessageKind.SUBMISSION_BATCH,
                round_number=3,
            )
            assert decode_batch_verdicts(verdicts) == (3, bytes([VERDICT_LATE]))
        assert coordinator.late_requests == 1
        assert entry.buffered_total() == 0
        window = coordinator.open_round(kind, 3, expected_requests=1 if blocking else None)
        wire, ctx = wrap_request(b"on time", publics, 3, rng)
        reply = network.send("alice", "entry", wire, kind, 3)
        if blocking:
            # The one expected submission closed the window; its long-poll
            # carries its response.
            assert unwrap_response(reply, ctx) == b"ON TIME"
            result = coordinator.wait_for_result(kind, 3, timeout=10.0)
        else:
            assert reply == ACK
            result = coordinator.close_round(window)
        assert result.accepted == result.responded == 1
        assert set(result.responses) == {"alice"}


class TestBlockingMode:
    def test_submissions_hold_replies_until_the_round_resolves(self, rng):
        network, entry, publics, coordinator = build_stack(rng, blocking_responses=True)
        coordinator.open_round(
            MessageKind.CONVERSATION_REQUEST, 0, expected_requests=2
        )
        contexts = {}
        replies = {}

        def client(name: str, payload: bytes) -> None:
            wire, ctx = contexts[name]
            replies[name] = network.send(name, "entry", wire, MessageKind.CONVERSATION_REQUEST, 0)

        for name, payload in (("alice", b"from alice"), ("bob", b"from bob")):
            contexts[name] = wrap_request(payload, publics, 0, rng)
        threads = [
            threading.Thread(target=client, args=(name, payload))
            for name, payload in (("alice", b"from alice"), ("bob", b"from bob"))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        # The second submission hit the expected count, closed the window and
        # drove the chain; both clients got their own response as the reply.
        assert unwrap_response(replies["alice"], contexts["alice"][1]) == b"FROM ALICE"
        assert unwrap_response(replies["bob"], contexts["bob"][1]) == b"FROM BOB"
        result = coordinator.wait_for_result(MessageKind.CONVERSATION_REQUEST, 0, timeout=1.0)
        assert result.accepted == 2

    def test_deadline_timer_closes_an_empty_round(self, rng):
        network, entry, publics, coordinator = build_stack(rng, blocking_responses=True)
        coordinator.open_round(MessageKind.CONVERSATION_REQUEST, 0, deadline_seconds=0.05)
        result = coordinator.wait_for_result(MessageKind.CONVERSATION_REQUEST, 0, timeout=10.0)
        assert result.accepted == 0
        assert result.responses == {}

    def test_wait_for_result_times_out_on_an_open_round(self, rng):
        _, _, _, coordinator = build_stack(rng, blocking_responses=True)
        coordinator.open_round(MessageKind.CONVERSATION_REQUEST, 0)
        with pytest.raises(TransportTimeout):
            coordinator.wait_for_result(MessageKind.CONVERSATION_REQUEST, 0, timeout=0.05)


def flaky_hop(network, endpoint, failures=1):
    """Wrap a chain endpoint's handler to fail its first ``failures`` batches."""
    original = network._handlers[endpoint]
    remaining = {"n": failures}

    def handler(envelope):
        if remaining["n"] > 0:
            remaining["n"] -= 1
            raise NetworkError(f"{endpoint} crashed mid-round")
        return original(envelope)

    network.register(endpoint, handler)
    return remaining


class TestTimerLifecycle:
    def test_deadline_timer_is_kept_and_cancelled_on_early_close(self, rng):
        """Regression: the deadline Timer handle used to be discarded, so a
        window closed early by its expected count leaked a live timer."""
        network, entry, publics, coordinator = build_stack(rng, blocking_responses=True)
        window = coordinator.open_round(
            MessageKind.CONVERSATION_REQUEST, 0, deadline_seconds=60.0, expected_requests=1
        )
        timer = coordinator._timers[(window.kind, window.round_number)]
        assert timer.is_alive()
        wire, _ = wrap_request(b"x", publics, 0, rng)
        network.send("alice", "entry", wire, MessageKind.CONVERSATION_REQUEST, 0)
        # The expected-count close must cancel the 60s timer immediately.
        assert timer.finished.is_set()

    def test_coordinator_close_cancels_open_window_timers(self, rng):
        network, entry, publics, coordinator = build_stack(rng, blocking_responses=True)
        window = coordinator.open_round(
            MessageKind.CONVERSATION_REQUEST, 0, deadline_seconds=60.0
        )
        timer = coordinator._timers[(window.kind, window.round_number)]
        coordinator.close()
        assert timer.finished.is_set()
        # Shutdown also unblocks anyone waiting on the round.
        with pytest.raises(ProtocolError):
            coordinator.wait_for_result(MessageKind.CONVERSATION_REQUEST, 0, timeout=1.0)

    def test_open_round_after_close_is_rejected(self, rng):
        _, _, _, coordinator = build_stack(rng)
        coordinator.close()
        with pytest.raises(ProtocolError, match="shut down"):
            coordinator.open_round(MessageKind.CONVERSATION_REQUEST, 0)


class TestPruningHorizon:
    def test_straggler_for_a_pruned_round_is_still_late(self, rng):
        """A LATE reply must be served even for rounds whose windows were
        pruned past the keep_windows horizon (the watermark answers)."""
        network, entry, publics, coordinator = build_stack(rng)
        coordinator.keep_windows = 2
        for round_number in range(5):
            window = coordinator.open_round(MessageKind.CONVERSATION_REQUEST, round_number)
            coordinator.close_round(window)
        assert coordinator.window(MessageKind.CONVERSATION_REQUEST, 0) is None  # pruned
        wire, _ = wrap_request(b"ancient", publics, 0, rng)
        reply = network.send("rip-van-winkle", "entry", wire, MessageKind.CONVERSATION_REQUEST, 0)
        assert reply == LATE
        assert coordinator.late_requests == 1
        assert entry.pending_requests(MessageKind.CONVERSATION_REQUEST, 0) == 0

    def test_recent_unpruned_round_still_answers_late_too(self, rng):
        network, entry, publics, coordinator = build_stack(rng)
        coordinator.keep_windows = 2
        for round_number in range(5):
            coordinator.close_round(
                coordinator.open_round(MessageKind.CONVERSATION_REQUEST, round_number)
            )
        wire, _ = wrap_request(b"recent", publics, 4, rng)
        assert (
            network.send("slow", "entry", wire, MessageKind.CONVERSATION_REQUEST, 4) == LATE
        )


class TestResponseRetention:
    @pytest.mark.parametrize("blocking", [False, True])
    def test_old_windows_keep_their_verdicts_but_no_response_bytes(self, rng, blocking):
        """70 resolved rounds: only the newest RESPONSE_WINDOWS hold payloads;
        every unpruned window still answers stragglers and duplicates as
        before, and a result the caller was handed is the caller's to keep."""
        kind = MessageKind.CONVERSATION_REQUEST
        network, entry, publics, coordinator = build_stack(rng, blocking_responses=blocking)
        wires, results = {}, {}
        for round_number in range(70):
            window = coordinator.open_round(kind, round_number, expected_requests=1)
            wires[round_number], ctx = wrap_request(b"ping", publics, round_number, rng)
            reply = network.send("alice", "entry", wires[round_number], kind, round_number)
            results[round_number] = coordinator.close_round(window)
            if blocking:  # the submission long-polled its own response
                assert unwrap_response(reply, ctx) == b"PING"

        assert coordinator.window(kind, 0) is None  # past keep_windows: pruned
        for round_number in range(70 - coordinator.keep_windows, 70):
            window = coordinator.window(kind, round_number)
            held = window.outcome.responses
            if round_number >= 70 - RESPONSE_WINDOWS:
                assert list(held) == ["alice"] and len(held["alice"][0]) > 0
            else:
                assert held is None
            # The metadata the verdicts are computed from is all still there.
            assert (window.outcome.accepted, window.outcome.responded) == (1, 1)
            assert window.per_client == ({} if held is None else {"alice": 1})
            assert (len(window.submitted.get("alice", [])) == 1) is (blocking and held is not None)
            # The caller's own handle is untouched by the release.
            assert len(results[round_number].responses["alice"][0]) > 0

        # Stragglers and duplicates for an old, released round: LATE, as ever.
        old = 70 - coordinator.keep_windows + 3
        window = coordinator.window(kind, old)
        assert network.send("alice", "entry", wires[old], kind, old) == LATE  # duplicate
        fresh, _ = wrap_request(b"late", publics, old, rng)
        assert network.send("bob", "entry", fresh, kind, old) == LATE  # straggler
        verdicts = network.send(
            "swarm",
            "entry",
            encode_submission_batch(kind, old, [("alice", wires[old]), ("carol", fresh)]),
            kind=MessageKind.SUBMISSION_BATCH,
            round_number=old,
        )
        assert decode_batch_verdicts(verdicts) == (old, bytes([VERDICT_LATE]) * 2)
        assert window.late == 4 and coordinator.late_requests == 4

        # Collecting a recent round works; a released one fails loudly rather
        # than answering with silence.
        def collect(round_number):
            return network.send(
                "swarm",
                "entry",
                encode_collect_request(kind, round_number, ["alice"]),
                kind=MessageKind.RESPONSE_COLLECT,
                round_number=round_number,
            )

        got_round, ((response,),) = decode_collect_reply(collect(69))
        assert got_round == 69 and bytes(response) == results[69].responses["alice"][0]
        with pytest.raises(ProtocolError, match="no longer held"):
            collect(old)


def non_utf8_name_frame(kind: MessageKind) -> bytes:
    """A submission batch or collect request naming the 2-byte client b"\\xff\\xfe"."""
    conversation = MessageKind.CONVERSATION_REQUEST
    if kind is MessageKind.SUBMISSION_BATCH:
        frame = encode_submission_batch(conversation, 0, [("zz", b"payload")])
    else:
        frame = encode_collect_request(conversation, 0, ["zz"])
    return frame.replace(b"zz", b"\xff\xfe")


@pytest.mark.parametrize("kind", [MessageKind.SUBMISSION_BATCH, MessageKind.RESPONSE_COLLECT])
class TestNonUtf8ClientNames:
    """A name that is not UTF-8 is the sender's protocol violation, refused
    as such in both deployment shapes — never a handler failure."""

    def test_in_process(self, rng, kind):
        network, _, _, _ = build_stack(rng)
        with pytest.raises(ProtocolError, match="not UTF-8"):
            network.send("swarm", "entry", non_utf8_name_frame(kind), kind=kind)

    def test_over_tcp(self, rng, kind, capfd):
        _, _, _, coordinator = build_stack(rng)
        server, client = TcpTransport(), TcpTransport(request_timeout=10.0)
        try:
            server.register("entry", coordinator.handle)
            client.add_route("entry", *server.listen())
            with pytest.raises(ProtocolError, match="not UTF-8"):
                client.send("swarm", "entry", non_utf8_name_frame(kind), kind=kind)
        finally:
            client.close()
            server.close()
        assert "handler" not in capfd.readouterr().err


class TestControlTraffic:
    def test_control_with_no_window_is_not_counted_as_straggler(self, rng):
        """Regression: CONTROL envelopes for an already-closed round number
        used to be refused as LATE stragglers, polluting the accounting."""
        network, entry, publics, coordinator = build_stack(rng)
        coordinator.close_round(coordinator.open_round(MessageKind.CONVERSATION_REQUEST, 0))
        with pytest.raises(ProtocolError, match="does not handle"):
            network.send("operator", "entry", b"{}", MessageKind.CONTROL, 0)
        assert coordinator.late_requests == 0

    def test_control_handler_bypasses_the_window_gate(self, rng):
        network, entry, publics, coordinator = build_stack(rng)
        coordinator.control_handler = lambda envelope: b"pong"
        coordinator.close_round(coordinator.open_round(MessageKind.CONVERSATION_REQUEST, 0))
        # Even for a closed round number, control traffic reaches the handler.
        assert network.send("operator", "entry", b"ping", MessageKind.CONTROL, 0) == b"pong"
        assert coordinator.late_requests == 0


class TestAbortAndRetry:
    def test_synchronous_chain_failure_retries_inline(self, rng):
        network, entry, publics, coordinator = build_stack(rng)
        flaky_hop(network, "server-1/conversation", failures=1)
        window = coordinator.open_round(MessageKind.CONVERSATION_REQUEST, 0)
        wire, ctx = wrap_request(b"survives the crash", publics, 0, rng)
        assert network.send("alice", "entry", wire, MessageKind.CONVERSATION_REQUEST, 0) == ACK
        result = coordinator.close_round(window)
        assert result.attempts == 2
        assert result.accepted == 1
        assert coordinator.rounds_aborted == 1
        assert len(result.responses["alice"]) == 1  # exactly once
        assert unwrap_response(result.responses["alice"][0], ctx) == b"SURVIVES THE CRASH"

    def test_retry_budget_exhaustion_fails_the_round(self, rng):
        network, entry, publics, coordinator = build_stack(rng, max_round_attempts=2)
        flaky_hop(network, "server-1/conversation", failures=2)  # the whole budget
        window = coordinator.open_round(MessageKind.CONVERSATION_REQUEST, 0)
        wire, _ = wrap_request(b"doomed", publics, 0, rng)
        network.send("alice", "entry", wire, MessageKind.CONVERSATION_REQUEST, 0)
        with pytest.raises(NetworkError):
            coordinator.close_round(window)
        assert coordinator.rounds_aborted == 1  # one abort, then the final failure
        # The accepted submission was refunded for inspection, not lost.
        refunds = coordinator.resubmission_queue[(MessageKind.CONVERSATION_REQUEST, 0)]
        assert [client for client, _ in refunds] == ["alice"]
        # The next round is unaffected.
        window = coordinator.open_round(MessageKind.CONVERSATION_REQUEST, 1)
        assert coordinator.close_round(window).attempts == 1

    def test_blocking_abort_answers_long_poll_and_idempotent_resubmit(self, rng):
        network, entry, publics, coordinator = build_stack(rng, blocking_responses=True)
        flaky_hop(network, "server-1/conversation", failures=1)
        coordinator.open_round(MessageKind.CONVERSATION_REQUEST, 0, expected_requests=1)
        wire, ctx = wrap_request(b"resubmitted", publics, 0, rng)

        # First submission closes the window; the chain fails; the blocked
        # long-poll is answered with ABORTED, not an exception.
        first = network.send("alice", "entry", wire, MessageKind.CONVERSATION_REQUEST, 0)
        assert first == ABORTED
        retry_window = coordinator.window(MessageKind.CONVERSATION_REQUEST, 0)
        assert retry_window is not None and retry_window.attempt == 2
        assert retry_window.phase is Phase.OPEN

        # Resubmitting the identical wire re-attaches to the original batch
        # slot (no duplicate), closes the retry and returns the real response.
        second = network.send("alice", "entry", wire, MessageKind.CONVERSATION_REQUEST, 0)
        assert unwrap_response(second, ctx) == b"RESUBMITTED"
        result = coordinator.wait_for_result(MessageKind.CONVERSATION_REQUEST, 0, timeout=5.0)
        assert result.attempts == 2
        assert result.accepted == 1
        assert result.responses["alice"] and len(result.responses["alice"]) == 1
        assert retry_window.resubmissions == 1
        assert coordinator.rounds_aborted == 1

    def test_refunded_submissions_run_even_without_resubmission(self, rng):
        """A client that never comes back after an abort still has its
        accepted message run through the retried round (blocking mode)."""
        network, entry, publics, coordinator = build_stack(rng, blocking_responses=True)
        flaky_hop(network, "server-1/conversation", failures=1)
        coordinator.open_round(
            MessageKind.CONVERSATION_REQUEST, 0, deadline_seconds=0.2, expected_requests=1
        )
        wire, _ = wrap_request(b"orphaned", publics, 0, rng)
        assert network.send("alice", "entry", wire, MessageKind.CONVERSATION_REQUEST, 0) == ABORTED
        # Alice never resubmits; the retry window's deadline closes it and
        # the refunded submission is in the batch regardless.
        result = coordinator.wait_for_result(MessageKind.CONVERSATION_REQUEST, 0, timeout=10.0)
        assert result.attempts == 2
        assert result.accepted == 1
        assert len(result.responses["alice"]) == 1

    def test_duplicate_resubmission_does_not_close_a_first_attempt_early(self, rng):
        """Regression: a client retrying a cut long-poll (same wire, same
        window) must not advance the expected-count close past clients that
        have not checked in yet."""
        network, entry, publics, coordinator = build_stack(rng, blocking_responses=True)
        coordinator.open_round(MessageKind.CONVERSATION_REQUEST, 0, expected_requests=2)
        alice_wire, alice_ctx = wrap_request(b"from alice", publics, 0, rng)
        bob_wire, bob_ctx = wrap_request(b"from bob", publics, 0, rng)
        replies: dict[str, bytes | None] = {}

        def submit(key: str, source: str, wire: bytes) -> None:
            replies[key] = network.send(source, "entry", wire, MessageKind.CONVERSATION_REQUEST, 0)

        threads = [
            threading.Thread(target=submit, args=("alice", "alice", alice_wire)),
            # The same source and payload again: a duplicate resubmission,
            # not a second check-in — it must long-poll on alice's slot, not
            # close the window while bob is still on his way.
            threading.Thread(target=submit, args=("alice-retry", "alice", alice_wire)),
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.3)  # both of alice's sends are in flight / blocked
        window = coordinator.window(MessageKind.CONVERSATION_REQUEST, 0)
        assert window is not None and window.phase is Phase.OPEN  # bob still owed a slot
        submit("bob", "bob", bob_wire)
        for thread in threads:
            thread.join(timeout=30.0)
        result = coordinator.wait_for_result(MessageKind.CONVERSATION_REQUEST, 0, timeout=5.0)
        assert result.accepted == 2
        assert window.resubmissions == 1
        assert unwrap_response(replies["alice"], alice_ctx) == b"FROM ALICE"
        assert unwrap_response(replies["alice-retry"], alice_ctx) == b"FROM ALICE"
        assert unwrap_response(replies["bob"], bob_ctx) == b"FROM BOB"

    def test_retry_window_without_a_deadline_still_closes(self, rng):
        """Regression: a deadline-less round that aborted could leave its
        retry window open forever if the refunded client never resubmits;
        the coordinator's fallback retry deadline bounds it."""
        network, entry, publics, coordinator = build_stack(rng, blocking_responses=True)
        coordinator.retry_deadline_seconds = 0.2
        flaky_hop(network, "server-1/conversation", failures=1)
        coordinator.open_round(MessageKind.CONVERSATION_REQUEST, 0, expected_requests=1)
        wire, _ = wrap_request(b"abandoned", publics, 0, rng)
        assert network.send("alice", "entry", wire, MessageKind.CONVERSATION_REQUEST, 0) == ABORTED
        # Alice never returns; the fallback deadline closes the retry and the
        # refunded submission still runs.
        result = coordinator.wait_for_result(MessageKind.CONVERSATION_REQUEST, 0, timeout=10.0)
        assert result.attempts == 2
        assert result.accepted == 1
        assert len(result.responses["alice"]) == 1

    def test_refused_retry_is_answered_again_without_recounting(self, rng):
        """Regression: a client retrying a REFUSED reply it never received
        must not be re-handled — that double-counted the refusal and could
        close an expected-count window before other clients checked in."""
        network, entry, publics, coordinator = build_stack(
            rng, blocking_responses=True, require_registration=True
        )
        entry.register_account("alice")
        window = coordinator.open_round(
            MessageKind.CONVERSATION_REQUEST, 0, expected_requests=2
        )
        wire, _ = wrap_request(b"m", publics, 0, rng)
        assert network.send("mallory", "entry", wire, MessageKind.CONVERSATION_REQUEST, 0) == REFUSED
        # Mallory's reply was lost in transit; she resubmits the same wire.
        assert network.send("mallory", "entry", wire, MessageKind.CONVERSATION_REQUEST, 0) == REFUSED
        assert window.refused == 1
        assert window.arrivals == 1
        assert entry.refused_requests == 1
        assert window.phase is Phase.OPEN  # alice still has her slot

    def test_connect_timeout_is_retried(self, rng):
        """A connect that never completed delivered nothing — the common
        crash signature of a partitioned host (dropped SYNs) must engage
        abort/retry, unlike the ambiguous request-phase timeout."""
        network, entry, publics, coordinator = build_stack(rng)
        original = network._handlers["server-1/conversation"]
        remaining = {"n": 1}

        def syn_blackhole(envelope):
            if remaining["n"] > 0:
                remaining["n"] -= 1
                raise ConnectTimeout("connecting to server-1 exceeded 10s")
            return original(envelope)

        network.register("server-1/conversation", syn_blackhole)
        window = coordinator.open_round(MessageKind.CONVERSATION_REQUEST, 0)
        wire, ctx = wrap_request(b"partitioned", publics, 0, rng)
        network.send("alice", "entry", wire, MessageKind.CONVERSATION_REQUEST, 0)
        result = coordinator.close_round(window)
        assert result.attempts == 2
        assert coordinator.rounds_aborted == 1
        assert unwrap_response(result.responses["alice"][0], ctx) == b"PARTITIONED"

    def test_chain_timeout_is_not_retried(self, rng):
        """A timed-out chain may have committed its dead-drop writes, so the
        round must fail (clients retransmit) rather than re-run the batch."""
        network, entry, publics, coordinator = build_stack(rng)

        def timeout_hop(envelope):
            raise TransportTimeout("server-1 never answered")

        network.register("server-1/conversation", timeout_hop)
        window = coordinator.open_round(MessageKind.CONVERSATION_REQUEST, 0)
        wire, _ = wrap_request(b"ambiguous", publics, 0, rng)
        network.send("alice", "entry", wire, MessageKind.CONVERSATION_REQUEST, 0)
        with pytest.raises(ProtocolError, match="timed out"):
            coordinator.close_round(window)
        assert coordinator.rounds_aborted == 0
        # The submission is parked for inspection, not silently dropped.
        refunds = coordinator.resubmission_queue[(MessageKind.CONVERSATION_REQUEST, 0)]
        assert [client for client, _ in refunds] == ["alice"]

    def test_unexpected_chain_error_does_not_leak_the_entry_buffer(self, rng):
        """Regression: a failure outside the Network/ProtocolError family
        left the restored batch in the entry buffer forever."""
        network, entry, publics, coordinator = build_stack(rng)

        def broken(envelope):
            raise ValueError("a bug, not a network failure")

        network.register("server-1/conversation", broken)
        window = coordinator.open_round(MessageKind.CONVERSATION_REQUEST, 0)
        wire, _ = wrap_request(b"stuck", publics, 0, rng)
        network.send("alice", "entry", wire, MessageKind.CONVERSATION_REQUEST, 0)
        with pytest.raises(ValueError):
            coordinator.close_round(window)
        assert entry.pending_requests(MessageKind.CONVERSATION_REQUEST, 0) == 0
        refunds = coordinator.resubmission_queue[(MessageKind.CONVERSATION_REQUEST, 0)]
        assert [client for client, _ in refunds] == ["alice"]

    def test_refusals_carry_across_retries(self, rng):
        network, entry, publics, coordinator = build_stack(rng, require_registration=True)
        entry.register_account("alice")
        flaky_hop(network, "server-1/conversation", failures=1)
        window = coordinator.open_round(MessageKind.CONVERSATION_REQUEST, 0)
        wire, _ = wrap_request(b"a", publics, 0, rng)
        assert network.send("alice", "entry", wire, MessageKind.CONVERSATION_REQUEST, 0) == ACK
        wire, _ = wrap_request(b"m", publics, 0, rng)
        assert network.send("mallory", "entry", wire, MessageKind.CONVERSATION_REQUEST, 0) == REFUSED
        result = coordinator.close_round(window)
        assert result.attempts == 2
        assert result.accepted == 1
        assert result.refused == 1  # mallory's refusal survives the abort

    def test_concurrent_duplicates_through_an_abort_land_exactly_once(self, rng):
        """Sixteen clients each submit twice at once (a retried long-poll
        racing the original) into one window, the first drive fails and
        every client resubmits after ABORTED.  Under a short switch interval
        a lost update to the window shows as a wrong count or response."""
        kind, clients = MessageKind.CONVERSATION_REQUEST, 16
        network, entry, publics, coordinator = build_stack(rng, blocking_responses=True)
        flaky_hop(network, "server-1/conversation", failures=1)
        coordinator.open_round(kind, 0, expected_requests=clients)
        wires = {
            f"c{i}": wrap_request(f"from {i}".encode(), publics, 0, rng) for i in range(clients)
        }
        replies: dict[str, list] = {name: [] for name in wires}

        def submit(name):
            for _ in range(3):
                reply = network.send(name, "entry", wires[name][0], kind, 0)
                if reply != ABORTED:
                    replies[name].append(reply)
                    return

        threads = [threading.Thread(target=submit, args=(n,)) for n in wires for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        result = coordinator.wait_for_result(kind, 0, timeout=5.0)
        window = coordinator.window(kind, 0)
        assert (result.attempts, result.accepted, result.refused) == (2, clients, 0)
        assert window.arrivals == clients == sum(window.per_client.values())
        for name, (_, ctx) in wires.items():
            assert len(result.responses[name]) == 1
            # A duplicate that lost the race to a close is a straggler; every
            # other reply is the client's own response.
            answered = [reply for reply in replies[name] if reply != LATE]
            assert answered and {unwrap_response(r, ctx) for r in answered} == {
                f"FROM {name[1:]}".encode()
            }


def build_dialing_stack(rng, **coordinator_kwargs):
    """Entry + two-server *dialing* chain + coordinator on one Network.

    The protocol-agnostic pipeline refactor's promise: the coordinator's
    windows, stragglers and abort/retry machinery treat a DIALING_REQUEST
    round exactly like a conversation round.
    """
    network = Network()
    keypairs = [KeyPair.generate(rng) for _ in range(2)]
    publics = [k.public for k in keypairs]

    def processor(round_number, payloads):
        # A stand-in invitation collector: acknowledge every request.
        return [b"ack:" + bytes(payload)[:4] for payload in payloads]

    for index, keypair in enumerate(keypairs):
        is_last = index == 1
        ChainServerEndpoint(
            name=f"server-{index}/dialing",
            mix_server=MixServer(
                index=index, keypair=keypair, chain_public_keys=publics, rng=rng.fork(f"d{index}")
            ),
            network=network,
            next_endpoint=None if is_last else "server-1/dialing",
            processor=processor if is_last else None,
            request_kind=MessageKind.DIALING_REQUEST,
        )
    entry = EntryServer(
        network=network,
        first_server={MessageKind.DIALING_REQUEST: "server-0/dialing"},
    )
    coordinator = RoundCoordinator(network, entry, **coordinator_kwargs)
    return network, entry, publics, coordinator


class TestOneFailurePath:
    @pytest.mark.parametrize("failure", ["retries exhausted", "hop timeout", "drive turn"])
    def test_every_permanent_failure_leaves_the_same_trace(self, rng, failure):
        """Regression (drive turn): a round whose drive turn never came was
        parked and resolved with its error, but left no ``round_failed``."""
        network, entry, publics, coordinator = build_stack(
            rng, max_round_attempts=1, response_wait_seconds=0.2
        )
        records: list[tuple[str, dict]] = []
        coordinator.ledger = SimpleNamespace(append=lambda *record: records.append(record))
        kind = MessageKind.CONVERSATION_REQUEST
        if failure == "retries exhausted":
            flaky_hop(network, "server-1/conversation", failures=1)
        elif failure == "hop timeout":

            def timeout_hop(envelope):
                raise TransportTimeout("server-1 took 30s")

            network.register("server-1/conversation", timeout_hop)
        else:
            # Round 0 stays open, so round 1's drive turn never comes.
            coordinator.open_round(kind, 0)
        window = coordinator.open_round(kind, 1)
        wire, _ = wrap_request(b"parked", publics, 1, rng)
        assert network.send("alice", "entry", wire, kind, 1) == ACK
        with pytest.raises((NetworkError, ProtocolError)):
            coordinator.close_round(window)
        failed = [data for type_, data in records if type_ == "round_failed"]
        assert [(data["round"], data["attempt"]) for data in failed] == [(1, 1)]
        assert [client for client, _ in coordinator.resubmission_queue[(kind, 1)]] == ["alice"]
        assert entry.buffered_total() == 0
        assert window.phase is Phase.FAILED


class TestDialingRoundsShareThePipeline:
    """Satellite coverage: dialing stragglers and abort/retry mirror the
    conversation protocol's fault-tolerance story through the same code."""

    def test_dialing_straggler_past_the_window_is_late(self, rng):
        network, entry, publics, coordinator = build_dialing_stack(rng)
        window = coordinator.open_round(MessageKind.DIALING_REQUEST, 0)
        wire, _ = wrap_request(b"on time", publics, 0, rng)
        assert network.send("alice", "entry", wire, MessageKind.DIALING_REQUEST, 0) == ACK
        result = coordinator.close_round(window)
        assert result.accepted == 1
        wire, _ = wrap_request(b"too late", publics, 0, rng)
        assert network.send("dave", "entry", wire, MessageKind.DIALING_REQUEST, 0) == LATE
        assert coordinator.late_requests == 1
        assert entry.pending_requests(MessageKind.DIALING_REQUEST, 0) == 0

    def test_killed_link_dialing_round_refunds_and_reruns(self, rng):
        network, entry, publics, coordinator = build_dialing_stack(rng)
        flaky_hop(network, "server-1/dialing", failures=1)
        window = coordinator.open_round(MessageKind.DIALING_REQUEST, 0)
        wire, ctx = wrap_request(b"invite bob", publics, 0, rng)
        assert network.send("alice", "entry", wire, MessageKind.DIALING_REQUEST, 0) == ACK
        result = coordinator.close_round(window)
        assert result.kind is MessageKind.DIALING_REQUEST
        assert result.attempts == 2
        assert result.accepted == 1
        assert coordinator.rounds_aborted == 1
        assert len(result.responses["alice"]) == 1  # exactly once
        assert unwrap_response(result.responses["alice"][0], ctx) == b"ack:invi"

    def test_exhausted_dialing_retries_park_refunds(self, rng):
        network, entry, publics, coordinator = build_dialing_stack(rng, max_round_attempts=2)
        flaky_hop(network, "server-1/dialing", failures=2)
        window = coordinator.open_round(MessageKind.DIALING_REQUEST, 0)
        wire, _ = wrap_request(b"doomed", publics, 0, rng)
        network.send("alice", "entry", wire, MessageKind.DIALING_REQUEST, 0)
        with pytest.raises(NetworkError):
            coordinator.close_round(window)
        refunds = coordinator.resubmission_queue[(MessageKind.DIALING_REQUEST, 0)]
        assert [client for client, _ in refunds] == ["alice"]
        # The next dialing round is unaffected.
        window = coordinator.open_round(MessageKind.DIALING_REQUEST, 1)
        assert coordinator.close_round(window).attempts == 1

    def test_blocking_dialing_abort_answers_long_poll(self, rng):
        network, entry, publics, coordinator = build_dialing_stack(
            rng, blocking_responses=True
        )
        flaky_hop(network, "server-1/dialing", failures=1)
        coordinator.open_round(MessageKind.DIALING_REQUEST, 0, expected_requests=1)
        wire, ctx = wrap_request(b"resubmitted", publics, 0, rng)
        first = network.send("alice", "entry", wire, MessageKind.DIALING_REQUEST, 0)
        assert first == ABORTED
        second = network.send("alice", "entry", wire, MessageKind.DIALING_REQUEST, 0)
        assert unwrap_response(second, ctx) == b"ack:resu"
        result = coordinator.wait_for_result(MessageKind.DIALING_REQUEST, 0, timeout=5.0)
        assert result.attempts == 2
        assert result.accepted == 1


class TestForgetClient:
    def test_forget_prunes_refunds_and_resolved_window_state(self, rng):
        """Satellite audit: a permanently-departed client leaves no parked
        refunds, dedup digests or per-round pending state behind."""
        network, entry, publics, coordinator = build_stack(rng, max_round_attempts=2)
        flaky_hop(network, "server-1/conversation", failures=2)
        window = coordinator.open_round(MessageKind.CONVERSATION_REQUEST, 0)
        for name, body in (("alice", b"doomed a"), ("bob", b"doomed b")):
            wire, _ = wrap_request(body, publics, 0, rng)
            network.send(name, "entry", wire, MessageKind.CONVERSATION_REQUEST, 0)
        with pytest.raises(NetworkError):
            coordinator.close_round(window)
        key = (MessageKind.CONVERSATION_REQUEST, 0)
        assert {client for client, _ in coordinator.resubmission_queue[key]} == {
            "alice",
            "bob",
        }

        clean = coordinator.open_round(MessageKind.CONVERSATION_REQUEST, 1)
        wire, _ = wrap_request(b"clean", publics, 1, rng)
        network.send("alice", "entry", wire, MessageKind.CONVERSATION_REQUEST, 1)
        coordinator.close_round(clean)
        assert "alice" in clean.per_client

        assert coordinator.forget_client("alice") == 1
        assert [client for client, _ in coordinator.resubmission_queue[key]] == ["bob"]
        assert "alice" not in clean.per_client
        assert "alice" not in clean.submitted
        # Idempotent: forgetting a forgotten (or never-seen) client is a no-op.
        assert coordinator.forget_client("alice") == 0
        assert coordinator.forget_client("nobody") == 0

    def test_forget_leaves_unresolved_windows_alone(self, rng):
        """An in-flight window keeps the departed client's accepted
        submission: it runs through the chain as cover traffic (§6), exactly
        as if the client crashed after its request was accepted."""
        network, entry, publics, coordinator = build_stack(rng)
        window = coordinator.open_round(MessageKind.CONVERSATION_REQUEST, 0)
        wire, _ = wrap_request(b"in flight", publics, 0, rng)
        network.send("alice", "entry", wire, MessageKind.CONVERSATION_REQUEST, 0)
        coordinator.forget_client("alice")
        assert "alice" in window.per_client  # untouched while unresolved
        result = coordinator.close_round(window)
        assert result.accepted == 1


class TestAdmissionFastPath:
    """The chunk fast path (no deadline, no blocking, no registration) must
    leave every observable exactly where the per-wire gate loop leaves it."""

    def submit_chunk(self, *, deadline_seconds):
        """One duplicate-heavy chunk through the batched gate; returns the
        observables both branches must agree on."""
        rng = DeterministicRandom(77)
        network, entry, publics, coordinator = build_stack(rng)
        window = coordinator.open_round(
            MessageKind.CONVERSATION_REQUEST, 0, deadline_seconds=deadline_seconds
        )
        wire_rng = rng.fork("wires")
        entries = []
        for index in range(9):
            wire, _ = wrap_request(b"m%d" % index, publics, 0, wire_rng)
            entries.append((f"client-{index % 4}", wire))  # repeated sources
        reply = network.send(
            "swarm",
            entry.name,
            encode_submission_batch(MessageKind.CONVERSATION_REQUEST, 0, entries),
            kind=MessageKind.SUBMISSION_BATCH,
            round_number=0,
        )
        _, verdicts = decode_batch_verdicts(reply)
        observables = (
            verdicts,
            window.arrivals,
            window.accepted,
            dict(window.per_client),
            [
                (source, bytes(payload))
                for source, payload in entry.submissions(
                    MessageKind.CONVERSATION_REQUEST, 0
                )
            ],
        )
        result = coordinator.close_round(window)
        return observables, result.accepted

    def test_fast_path_matches_the_gate_loop(self):
        fast, fast_accepted = self.submit_chunk(deadline_seconds=None)
        # Any deadline (even one that never fires) forces the per-wire loop.
        slow, slow_accepted = self.submit_chunk(deadline_seconds=3600.0)
        assert fast == slow
        assert fast_accepted == slow_accepted == 9
        assert fast[0] == bytes([VERDICT_ACCEPTED]) * 9
