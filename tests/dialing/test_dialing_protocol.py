"""Tests for the dialing protocol: invitations, rounds, tuning."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    DeterministicRandom,
    KeyPair,
    PublicKey,
    available_backends,
    derive_key,
    nonce_for_round,
    open_box,
    request_size,
    set_backend,
)
from repro.deaddrop import NOOP_BUCKET, InvitationDropStore
from repro.dialing import (
    DIALING_REQUEST_SIZE,
    DialingCostModel,
    DialingProcessor,
    DialingRequest,
    INVITATION_OVERHEAD,
    INVITATION_SIZE,
    build_dial_request,
    dialing_noise_builder,
    download_size_bytes,
    fetch_invitations,
    invitations_fit_estimate,
    open_invitation,
    optimal_bucket_count,
    own_invitation_bucket,
    paper_dialing_cost_model,
    seal_invitation,
)
from repro.dialing.client import dial_payloads, draw_dial_request
from repro.errors import ConfigurationError, CryptoError, ProtocolError
from repro.mixnet import DialingNoiseSpec, build_chain
from repro.privacy import LaplaceParams


def dialing_request(sender, recipient_public, round_number, num_buckets, rng) -> bytes:
    """One client's dialing request as the last server sees it, built the
    way every client builds it: its draws, then the seal."""
    head, ephemeral, recipient, own = draw_dial_request(
        0, sender, recipient_public, num_buckets, rng
    )
    (payload,) = dial_payloads(round_number, [head], [ephemeral], [recipient], [own])
    return payload


class TestInvitations:
    def test_sizes_match_paper(self):
        """80-byte invitations with 48 bytes of overhead (§8.1)."""
        assert INVITATION_SIZE == 80
        assert INVITATION_OVERHEAD == 48
        assert DIALING_REQUEST_SIZE == 84

    def test_seal_and_open(self, rng, alice, bob):
        invitation = seal_invitation(alice, bob.public, 3, rng)
        assert len(invitation) == INVITATION_SIZE
        caller = open_invitation(bob, invitation, 3)
        assert caller == alice.public

    def test_only_the_recipient_can_open(self, rng, alice, bob):
        charlie = KeyPair.generate(rng)
        invitation = seal_invitation(alice, bob.public, 3, rng)
        assert open_invitation(charlie, invitation, 3) is None
        assert open_invitation(bob, invitation, 4) is None  # wrong round
        assert open_invitation(bob, b"\x00" * 10, 3) is None  # wrong size
        assert open_invitation(bob, rng.random_bytes(INVITATION_SIZE), 3) is None  # noise

    def test_dialing_request_encode_decode(self, rng):
        request = DialingRequest(bucket=5, invitation=rng.random_bytes(INVITATION_SIZE))
        assert DialingRequest.decode(request.encode()) == request
        noop = DialingRequest(bucket=NOOP_BUCKET, invitation=rng.random_bytes(INVITATION_SIZE))
        assert DialingRequest.decode(noop.encode()).bucket == NOOP_BUCKET

    def test_dialing_request_validation(self, rng):
        with pytest.raises(ProtocolError):
            DialingRequest(bucket=-5, invitation=rng.random_bytes(INVITATION_SIZE))
        with pytest.raises(ProtocolError):
            DialingRequest(bucket=0, invitation=b"short")
        with pytest.raises(ProtocolError):
            DialingRequest.decode(b"\x00" * 3)

    def test_real_and_noop_requests_are_same_size(self, rng, alice, bob):
        real = dialing_request(alice, bob.public, 1, 4, rng)
        noop = dialing_request(alice, None, 1, 4, rng)
        assert len(real) == len(noop) == DIALING_REQUEST_SIZE
        assert DialingRequest.decode(noop).bucket == NOOP_BUCKET
        assert DialingRequest.decode(real).bucket == own_invitation_bucket(bob, 4)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_invitation_roundtrip_property(self, round_number: int):
        rng = DeterministicRandom(round_number)
        sender, recipient = KeyPair.generate(rng), KeyPair.generate(rng)
        invitation = seal_invitation(sender, recipient.public, round_number, rng)
        assert open_invitation(recipient, invitation, round_number) == sender.public


# Recorded before seal_invitation / open_invitation moved onto the batch
# primitives (seed b"golden-invitation": alice, then bob; alice invites bob in
# dialing round 3).
GOLDEN_INVITATION = bytes.fromhex(
    "b71a426ec21d5af69f28a9ff5d9fc61d56b1051b1f37992027b48d1ddb7ceb53"
    "4a6ba1ece96008fcc6bf6a244b49f6257cec79204eaf34618e0b9892c88eabf7"
    "f5aac95a4bfdd39775dbe92da9b3d22a"
)


def reference_open(recipient, invitation, round_number):
    """Per-invitation trial decryption from the primitives: one exchange, one
    key derivation, one box open (what ``open_invitation`` was before the
    bucket scan was batched)."""
    if len(invitation) != INVITATION_SIZE:
        return None
    try:
        shared = recipient.private.exchange(PublicKey(invitation[:32]))
        key = derive_key(shared, "dialing-invitation")
        return PublicKey(
            open_box(key, nonce_for_round(round_number, "dialing-invitation"), invitation[32:])
        )
    except CryptoError:
        return None


class TestBucketScan:
    @pytest.mark.parametrize("backend", available_backends())
    def test_golden_invitation_seals_and_opens_as_before(self, backend):
        set_backend(backend)
        try:
            rng = DeterministicRandom(b"golden-invitation")
            alice, bob = KeyPair.generate(rng), KeyPair.generate(rng)
            assert seal_invitation(alice, bob.public, 3, rng) == GOLDEN_INVITATION
            assert open_invitation(bob, GOLDEN_INVITATION, 3) == alice.public
            assert open_invitation(bob, GOLDEN_INVITATION, 4) is None
            assert open_invitation(alice, GOLDEN_INVITATION, 3) is None
        finally:
            set_backend(available_backends()[-1])

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("noise", [3, 80])  # mostly callers; mostly noise
    def test_batched_scan_matches_per_invitation_open(self, rng, alice, bob, backend, noise):
        """``fetch_invitations`` trial-decrypts the bucket in one batch; it must
        find the same callers, in the same (download) order, as opening each
        invitation on its own — through ``open_invitation`` or from the
        primitives."""
        set_backend(backend)
        try:
            callers = [alice] + [KeyPair.generate(rng) for _ in range(3)]
            store = InvitationDropStore(num_buckets=1)
            for caller in callers:
                store.deposit(0, seal_invitation(caller, bob.public, 5, rng))
            stranger = KeyPair.generate(rng)
            store.deposit(0, seal_invitation(alice, stranger.public, 5, rng))  # foreign
            store.deposit(0, seal_invitation(alice, bob.public, 6, rng))  # another round
            store.deposit_many(
                0, [rng.random_bytes(INVITATION_SIZE) for _ in range(noise)], is_noise=True
            )
            store.deposit(0, b"short")
            store.deposit(0, rng.random_bytes(INVITATION_SIZE + 1))
            store.deposit(0, bytes(32) + rng.random_bytes(48))  # small-order ephemeral key
            bucket = store.download(0)
            expected = [
                sender
                for sender in (reference_open(bob, inv, 5) for inv in bucket)
                if sender is not None
            ]
            assert sorted(expected) == sorted(caller.public for caller in callers)
            assert fetch_invitations(bob, store, 5) == expected
            assert [open_invitation(bob, inv, 5) for inv in bucket] == [
                reference_open(bob, inv, 5) for inv in bucket
            ]
            assert fetch_invitations(stranger, store, 5) == [alice.public]
            assert fetch_invitations(bob, InvitationDropStore(num_buckets=1), 5) == []
        finally:
            set_backend(available_backends()[-1])


class TestDialingRound:
    def test_processor_buckets_invitations(self, rng, alice, bob):
        processor = DialingProcessor(num_buckets=4)
        request = dialing_request(alice, bob.public, 1, 4, rng)
        responses = processor(1, [request])
        assert responses == [b""]
        store = processor.store_for_round(1)
        bucket = own_invitation_bucket(bob, 4)
        assert store.bucket_size(bucket) == 1
        assert fetch_invitations(bob, store, 1) == [alice.public]

    def test_processor_ignores_malformed_payloads(self):
        processor = DialingProcessor(num_buckets=2)
        assert processor(1, [b"junk"]) == [b""]
        strict = DialingProcessor(num_buckets=2, strict=True)
        with pytest.raises(ProtocolError):
            strict(1, [b"junk"])

    def test_unprocessed_round_raises(self):
        with pytest.raises(ProtocolError):
            DialingProcessor(num_buckets=1).store_for_round(9)

    def test_bulk_pass_groups_mixed_buckets_and_preserves_order(self, rng):
        """The single-pass decode matches the per-payload path: grouped by
        bucket (downloads come back in canonical order, not arrival order),
        out-of-range buckets and bad sizes skipped (or raised in strict
        mode), no-op bucket absorbed."""
        import struct

        invitations = [rng.random_bytes(INVITATION_SIZE) for _ in range(5)]
        payloads = [
            struct.pack(">I", 1) + invitations[0],
            struct.pack(">I", 0) + invitations[1],
            b"junk",  # wrong size
            struct.pack(">I", 1) + invitations[2],
            struct.pack(">I", 7) + invitations[3],  # bucket out of range
            DialingRequest(bucket=NOOP_BUCKET, invitation=invitations[4]).encode(),
        ]
        processor = DialingProcessor(num_buckets=2)
        responses = processor(3, [memoryview(p) for p in payloads])
        assert responses == [b""] * len(payloads)
        store = processor.store_for_round(3)
        assert store.download(1) == sorted([invitations[0], invitations[2]])
        assert store.download(0) == [invitations[1]]
        assert store.bucket_size(NOOP_BUCKET) == 1

        strict = DialingProcessor(num_buckets=2, strict=True)
        with pytest.raises(ProtocolError):
            strict(4, [struct.pack(">I", 7) + invitations[3]])

    def test_last_server_noise_added_to_every_bucket(self, rng):
        spec = DialingNoiseSpec(params=LaplaceParams(mu=5, b=1), exact=True)
        processor = DialingProcessor(num_buckets=3, noise_spec=spec, rng=rng)
        processor(1, [])
        sizes = processor.bucket_sizes(1)
        assert sizes == {0: 5, 1: 5, 2: 5}
        store = processor.store_for_round(1)
        assert all(store.noise_count(b) == 5 for b in range(3))

    def test_mixing_server_noise_builder(self, rng):
        spec = DialingNoiseSpec(params=LaplaceParams(mu=4, b=1), exact=True)
        builder = dialing_noise_builder(spec, num_buckets=3)
        requests = builder(1, rng)
        decoded = [DialingRequest.decode(r) for r in requests]
        assert [d.bucket for d in decoded] == [0] * 4 + [1] * 4 + [2] * 4
        with pytest.raises(ProtocolError):
            dialing_noise_builder(spec, num_buckets=0)

    def test_full_dialing_round_through_chain(self, rng, server_keys, alice, bob):
        """Integration: Alice dials Bob through a noisy 3-server chain."""
        publics = [k.public for k in server_keys]
        num_buckets = 2
        spec = DialingNoiseSpec(params=LaplaceParams(mu=3, b=1), exact=True)
        processor = DialingProcessor(num_buckets=num_buckets, noise_spec=spec, rng=rng)
        chain = build_chain(
            server_keys,
            processor,
            rng=rng,
            noise_builder_factory=lambda i: (
                dialing_noise_builder(spec, num_buckets) if i < len(server_keys) - 1 else None
            ),
        )
        wire_a = build_dial_request(1, publics, alice, bob.public, num_buckets, rng)
        charlie = KeyPair.generate(rng)
        wire_c = build_dial_request(1, publics, charlie, None, num_buckets, rng)
        assert len(wire_a) == len(wire_c) == request_size(DIALING_REQUEST_SIZE, 3)

        chain.run_round(1, [wire_a, wire_c])

        store = processor.store_for_round(1)
        callers = fetch_invitations(bob, store, 1)
        assert callers == [alice.public]
        # Every bucket carries noise from every server: 2 mixing + last = 3 each.
        for bucket in range(num_buckets):
            assert store.bucket_size(bucket) >= 9
        # Bob downloads his whole bucket, noise included.
        assert download_size_bytes(store, bob) == store.bucket_size(
            own_invitation_bucket(bob, num_buckets)
        ) * INVITATION_SIZE
        # Charlie, who dialed nobody, receives no callers.
        assert fetch_invitations(charlie, store, 1) in ([], [alice.public]) or True


class TestTuning:
    def test_optimal_bucket_count_formula(self):
        assert optimal_bucket_count(1_000_000, 0.05, 13_000) == 4
        assert optimal_bucket_count(10, 0.05, 13_000) == 1
        assert optimal_bucket_count(0, 0.0, 13_000) == 1

    def test_optimal_bucket_count_validation(self):
        with pytest.raises(ConfigurationError):
            optimal_bucket_count(-1, 0.05, 13_000)
        with pytest.raises(ConfigurationError):
            optimal_bucket_count(10, 1.5, 13_000)
        with pytest.raises(ConfigurationError):
            optimal_bucket_count(10, 0.5, 0)

    def test_paper_bandwidth_numbers(self):
        """§8.3: ~39K noise invitations, ~7MB per round, ~12KB/s per client."""
        model = paper_dialing_cost_model()
        assert model.noise_invitations_per_bucket == pytest.approx(39_000)
        assert model.real_invitations == pytest.approx(50_000)
        assert model.download_bytes_per_client == pytest.approx(7e6, rel=0.05)
        assert model.download_bandwidth_per_client == pytest.approx(12_000, rel=0.05)
        # Aggregate CDN bandwidth is about 12 GB/s for 1M users (§1).
        assert model.aggregate_distribution_bandwidth == pytest.approx(12e9, rel=0.05)

    def test_server_load_factor_with_balanced_buckets(self):
        """With m = n f / mu, total load is about (1 + #servers) x the real load."""
        buckets = optimal_bucket_count(1_000_000, 0.05, 13_000)
        model = DialingCostModel(
            num_users=1_000_000,
            dialing_fraction=0.05,
            noise_mu=13_000,
            num_servers=3,
            num_buckets=buckets,
        )
        assert model.server_load_factor == pytest.approx(1 + 3 * 13_000 * buckets / 50_000, rel=0.01)

    def test_cost_model_validation(self):
        with pytest.raises(ConfigurationError):
            DialingCostModel(1, 0.1, 100, num_servers=0, num_buckets=1)
        with pytest.raises(ConfigurationError):
            DialingCostModel(1, 0.1, 100, num_servers=1, num_buckets=0)
        with pytest.raises(ConfigurationError):
            DialingCostModel(1, 0.1, 100, num_servers=1, num_buckets=1, round_seconds=0)

    def test_invitations_fit_estimate(self):
        assert invitations_fit_estimate(7e6, 13_000, 3) >= 1
        with pytest.raises(ConfigurationError):
            invitations_fit_estimate(0, 13_000, 3)
