"""A deterministic curve budget: how many X25519 operations each path may spend.

Curve25519 is the system's dominant cost (§8 of the paper), and a hidden
multiply — a public key derived and thrown away, a session secret recomputed
every round — costs more than any other regression while changing no byte on
the wire.  These tests count calls into the four X25519 ``Backend`` callables
(the proxy ``bench/layers.py`` installs for timing, here counting) and pin the
count each path needs.  Counts, not timings: they cannot flake.

One unit of ``x25519_fixed_point_batch`` is one fresh key pair *and* its
exchange; one unit of ``x25519_fixed_scalar_batch`` is one exchange.  The
invitation scan also has a KDF budget, counted the same way.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.client import VuvuzelaClient
from repro.core.config import VuvuzelaConfig
from repro.crypto import available_backends, set_backend, wrap_request
from repro.crypto import backend as crypto_backend
from repro.crypto import invitation as invitation_crypto
from repro.crypto.hkdf import derive_key, derive_key_schedule
from repro.crypto.onion import wrap_request_batch
from repro.deaddrop import InvitationDropStore
from repro.dialing import INVITATION_SIZE, fetch_invitations, seal_invitation
from repro.simulation import ClientSwarm, WorkloadSpec

#: Field -> index of the argument whose length is the call's unit count.
CURVE = {
    "x25519_scalar_mult": None,
    "x25519_scalar_base_mult": None,
    "x25519_fixed_scalar_batch": 1,
    "x25519_fixed_point_batch": 0,
}


@pytest.fixture(params=available_backends())
def curve(request):
    """Install the counting proxy; yields ``Counter`` of ``<field>`` units and
    ``<field>.calls`` calls."""
    backend = set_backend(request.param)
    counts: Counter = Counter()

    def counting(field, batch_arg):
        fn = getattr(backend, field)

        def counted(*args):
            counts[field] += 1 if batch_arg is None else len(args[batch_arg])
            counts[field + ".calls"] += 1
            return fn(*args)

        return counted

    crypto_backend._active = dataclasses.replace(
        backend, **{field: counting(field, arg) for field, arg in CURVE.items()}
    )
    yield counts
    set_backend(available_backends()[-1])


def units(counts: Counter) -> dict:
    return {field: counts[field] for field in CURVE if counts[field]}


def test_wrapping_costs_one_unit_per_layer_and_nothing_else(rng, server_keys, curve):
    publics = [k.public for k in server_keys]
    curve.clear()
    wrap_request_batch([b"x" * 16] * 7, publics, 1, rng)
    assert units(curve) == {"x25519_fixed_point_batch": 3 * 7}
    assert curve["x25519_fixed_point_batch.calls"] == 3  # one batch per layer
    curve.clear()
    wrap_request(b"x" * 16, publics, 1, rng)
    assert units(curve) == {"x25519_fixed_point_batch": 3}


def test_paired_client_exchanges_its_long_term_key_once(rng, server_keys, alice, bob, curve):
    client = VuvuzelaClient("alice", alice, [k.public for k in server_keys], rng=rng)
    client.start_conversation(bob.public)
    curve.clear()
    for round_number in range(5):
        client.build_conversation_requests(round_number)
    assert units(curve) == {"x25519_scalar_mult": 1, "x25519_fixed_point_batch": 5 * 3}


def test_idle_client_pays_one_fake_peer_and_one_exchange_a_round(rng, server_keys, alice, curve):
    client = VuvuzelaClient("alice", alice, [k.public for k in server_keys], rng=rng)
    curve.clear()
    client.build_conversation_requests(0)
    assert units(curve) == {
        "x25519_scalar_base_mult": 1,
        "x25519_scalar_mult": 1,
        "x25519_fixed_point_batch": 3,
    }


def test_swarm_round_pays_per_wire_what_a_client_pays(curve):
    config = VuvuzelaConfig.small(seed=11)
    spec = WorkloadSpec(num_users=20, conversing_fraction=0.5, dialing_fraction=0.0)
    swarm = ClientSwarm.from_spec(config, spec)
    paired, idle = swarm.conversing, len(swarm) - swarm.conversing
    assert paired and idle
    swarm.build_round(0)  # long-term keys and pair secrets are derived on first use
    curve.clear()
    swarm.build_round(1, chunk_size=7)
    assert units(curve) == {
        "x25519_scalar_base_mult": idle,
        "x25519_scalar_mult": idle,
        "x25519_fixed_point_batch": config.num_servers * len(swarm),
    }


def test_sealing_an_invitation_is_one_unit(rng, alice, bob, curve):
    curve.clear()
    seal_invitation(alice, bob.public, 2, rng)
    assert units(curve) == {"x25519_fixed_point_batch": 1}


def test_scanning_a_bucket_is_one_fixed_scalar_batch(rng, alice, bob, curve):
    store = InvitationDropStore(num_buckets=1)
    store.deposit(0, seal_invitation(alice, bob.public, 2, rng))
    store.deposit_many(0, [rng.random_bytes(INVITATION_SIZE) for _ in range(9)], is_noise=True)
    curve.clear()
    assert fetch_invitations(bob, store, 2) == [alice.public]
    assert units(curve) == {"x25519_fixed_scalar_batch": 10}
    assert curve["x25519_fixed_scalar_batch.calls"] == 1


@pytest.fixture
def kdf(monkeypatch):
    """Count the invitation path's key derivations: ``derive_key`` calls,
    ``derive_key_schedule`` calls and the keys those schedules derive."""
    counts: Counter = Counter()

    def counted_key(*args, **kwargs):
        counts["derive_key"] += 1
        return derive_key(*args, **kwargs)

    def counted_schedule(secrets, *args, **kwargs):
        counts["derive_key_schedule.calls"] += 1
        counts["derive_key_schedule"] += len(secrets)
        return derive_key_schedule(secrets, *args, **kwargs)

    monkeypatch.setattr(invitation_crypto, "derive_key", counted_key)
    monkeypatch.setattr(invitation_crypto, "derive_key_schedule", counted_schedule)
    return counts


def test_scanning_a_bucket_derives_one_key_per_live_invitation(rng, alice, bob, kdf):
    store = InvitationDropStore(num_buckets=1)
    store.deposit(0, seal_invitation(alice, bob.public, 2, rng))
    store.deposit_many(0, [rng.random_bytes(INVITATION_SIZE) for _ in range(9)], is_noise=True)
    # A small-order ephemeral key and a short invitation derive nothing.
    store.deposit_many(0, [bytes(32) + rng.random_bytes(48), b"short"], is_noise=True)
    kdf.clear()
    assert fetch_invitations(bob, store, 2) == [alice.public]
    assert kdf == Counter({"derive_key_schedule.calls": 1, "derive_key_schedule": 10})
