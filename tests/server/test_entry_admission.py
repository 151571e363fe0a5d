"""Entry-server admission control (§9): registration, per-account caps, counters."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.net import Envelope, MessageKind, Network
from repro.runtime import RoundCoordinator
from repro.server import ACK, REFUSED, EntryServer


@pytest.fixture
def entry() -> EntryServer:
    network = Network()
    network.register("server-0/conversation", lambda envelope: b"")
    network.register("server-0/dialing", lambda envelope: b"")
    return EntryServer(
        network=network,
        first_server={
            MessageKind.CONVERSATION_REQUEST: "server-0/conversation",
            MessageKind.DIALING_REQUEST: "server-0/dialing",
        },
        require_registration=True,
        max_requests_per_account_per_round=2,
    )


def submit(entry, source, round_number=0, kind=MessageKind.CONVERSATION_REQUEST):
    return entry.admit(kind, round_number, source, b"x")


class TestRegistrationRequired:
    def test_unregistered_source_is_refused_and_counted(self, entry):
        assert submit(entry, "mallory") == REFUSED
        assert entry.refused_requests == 1
        assert entry.pending_requests(MessageKind.CONVERSATION_REQUEST, 0) == 0

    def test_registered_source_is_admitted(self, entry):
        entry.register_account("alice")
        assert submit(entry, "alice") == ACK
        assert entry.refused_requests == 0
        assert entry.pending_requests(MessageKind.CONVERSATION_REQUEST, 0) == 1

    def test_revocation_takes_effect_immediately(self, entry):
        entry.register_account("alice")
        assert submit(entry, "alice") == ACK
        entry.revoke_account("alice")
        assert submit(entry, "alice", round_number=1) == REFUSED
        assert entry.is_registered("alice") is False
        assert entry.refused_requests == 1

    def test_registration_is_idempotent(self, entry):
        entry.register_account("alice")
        entry.register_account("alice")
        assert entry.is_registered("alice")
        entry.revoke_account("alice")
        entry.revoke_account("alice")  # revoking twice is harmless
        assert not entry.is_registered("alice")


class TestPerAccountCap:
    def test_cap_applies_per_account_per_protocol_per_round(self, entry):
        entry.register_account("alice")
        # Two conversation slots allowed (max_requests_per_account_per_round=2).
        assert submit(entry, "alice") == ACK
        assert submit(entry, "alice") == ACK
        assert submit(entry, "alice") == REFUSED
        # The cap is per protocol: dialing still has its own allowance...
        assert submit(entry, "alice", kind=MessageKind.DIALING_REQUEST) == ACK
        # ...and per round: the next round starts fresh.
        assert submit(entry, "alice", round_number=1) == ACK
        assert entry.refused_requests == 1
        assert entry.pending_requests(MessageKind.CONVERSATION_REQUEST, 0) == 2
        assert entry.pending_requests(MessageKind.CONVERSATION_REQUEST, 1) == 1

    def test_one_flooder_cannot_crowd_out_other_accounts(self, entry):
        entry.register_account("alice")
        entry.register_account("flooder")
        for _ in range(5):
            submit(entry, "flooder")
        assert submit(entry, "alice") == ACK
        assert entry.pending_requests(MessageKind.CONVERSATION_REQUEST, 0) == 3  # 2 flooder + 1 alice
        assert entry.refused_requests == 3

    def test_refused_counter_matches_every_refusal_source(self, entry):
        entry.register_account("alice")
        refusals = 0
        # Unregistered refusals...
        for _ in range(2):
            assert submit(entry, "mallory") == REFUSED
            refusals += 1
        # ...and over-cap refusals land in the same counter.
        for i in range(4):
            reply = submit(entry, "alice")
            if i >= 2:
                assert reply == REFUSED
                refusals += 1
        assert entry.refused_requests == refusals == 4


class TestOpenAdmission:
    def test_without_registration_everything_is_admitted_uncounted(self):
        network = Network()
        network.register("server-0/conversation", lambda envelope: b"")
        entry = EntryServer(
            network=network,
            first_server={MessageKind.CONVERSATION_REQUEST: "server-0/conversation"},
        )
        for _ in range(10):
            assert submit(entry, "anyone") == ACK
        assert entry.refused_requests == 0
        assert entry.pending_requests(MessageKind.CONVERSATION_REQUEST, 0) == 10

    def test_unhandled_kind_still_raises(self, entry):
        with pytest.raises(ProtocolError):
            submit(entry, "alice", kind=MessageKind.CONTROL)


class TestInvitationDownloads:
    """The entry server as the paper's CDN front (DIAL_DOWNLOAD envelopes)."""

    def download(self, entry, round_number, source="anyone"):
        """One ``DIAL_DOWNLOAD`` envelope through the entry's endpoint, which
        the round coordinator owns; no window is open."""
        from repro.server.wire import encode_download_request

        return RoundCoordinator(entry.network, entry).handle(
            Envelope(
                source=source,
                destination=entry.name,
                payload=encode_download_request(round_number),
                kind=MessageKind.DIAL_DOWNLOAD,
                round_number=round_number,
            )
        )

    def test_download_is_served_from_the_fetcher_and_cached(self, entry):
        fetches: list[int] = []

        def fetcher(round_number: int) -> dict:
            fetches.append(round_number)
            return {"num_buckets": 1, "buckets": {"0": []}, "noise": {"0": 0}}

        entry.invitation_fetcher = fetcher
        first = self.download(entry, 3)
        second = self.download(entry, 3, source="someone-else")
        assert first == second  # byte-identical for every downloader
        assert fetches == [3]  # one fetch per round, not one per client
        assert entry.downloads_served == 2

    def test_download_is_public_even_with_registration_required(self, entry):
        entry.invitation_fetcher = lambda r: {
            "num_buckets": 1, "buckets": {"0": []}, "noise": {"0": 0},
        }
        # "mallory" is unregistered; the buckets are public anyway (§5.3).
        assert self.download(entry, 0, source="mallory")
        assert entry.refused_requests == 0

    def test_download_without_a_fetcher_is_an_error(self, entry):
        with pytest.raises(ProtocolError, match="no invitation downloads"):
            self.download(entry, 0)

    def test_snapshot_cache_is_pruned_for_continuous_operation(self, entry):
        entry.invitation_fetcher = lambda r: {
            "num_buckets": 1, "buckets": {"0": []}, "noise": {"0": 0},
        }
        entry.keep_snapshots = 2
        for round_number in range(6):
            self.download(entry, round_number)
        # Snapshots older than keep_snapshots rounds behind round 5 are gone.
        assert set(entry._snapshots) == {3, 4, 5}
