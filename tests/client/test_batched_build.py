"""A per-client round's wires, built for every client at once.

A driver builds a round's conversation or dialing wires for all of its
participating clients as one engine op: each client's rng draws happen in
client order from its own streams, then the pure crypto runs inline or on
the driver's worker pool.  Pinned here: the batch equals building each client
alone — wires and all — for any mix of slot counts, idle and paired slots,
dialers and non-dialers, inline and on the pool, and its responses decode; a
worker that dies mid-build fails its round without wedging the next one, in
a single round and in a continuous session, and leaves no worker behind.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DeploymentLauncher, VuvuzelaConfig, VuvuzelaSystem
from repro.client import VuvuzelaClient
from repro.client.client import build_conversation_round, build_dialing_round
from repro.conversation import ConversationProcessor
from repro.crypto import DeterministicRandom, KeyPair
from repro.dialing import DialingProcessor
from repro.errors import ProtocolError
from repro.mixnet import DialingNoiseSpec, build_chain
from repro.privacy import LaplaceParams
from repro.runtime import RoundEngine
from repro.runtime import engine as round_engine
from repro.runtime import worker as engine_worker

SEED = 31
CHAIN = [KeyPair.generate(DeterministicRandom(f"server-{i}")) for i in range(3)]


def make_client(name: str, slots: int) -> VuvuzelaClient:
    return VuvuzelaClient(
        name=name,
        keys=KeyPair.generate(DeterministicRandom(f"key-{name}")),
        server_public_keys=[kp.public for kp in CHAIN],
        rng=DeterministicRandom(f"rng-{name}"),
        max_conversations=slots,
    )


@st.composite
def populations(draw):
    """Clients with one or two slots, some pairs between them (a client
    pairs at most once per slot), and who dials whom this round."""
    slots = draw(st.lists(st.sampled_from([1, 2]), min_size=2, max_size=6))
    names = [f"c{index}" for index in range(len(slots))]
    free = dict(zip(names, slots))
    pairs = []
    for a in names:
        for b in names:
            if a < b and free[a] and free[b] and draw(st.booleans(), label=f"{a}-{b}"):
                pairs.append((a, b))
                free[a] -= 1
                free[b] -= 1
    dials = {
        name: draw(st.sampled_from([None, *names]), label=f"{name} dials") for name in names
    }
    return slots, pairs, dials


def build_population(slots, pairs) -> list[VuvuzelaClient]:
    clients = [make_client(f"c{index}", count) for index, count in enumerate(slots)]
    by_name = {client.name: client for client in clients}
    for a, b in pairs:
        by_name[a].start_conversation(by_name[b].public_key)
        by_name[b].start_conversation(by_name[a].public_key)
    return clients


def queue_round(clients, pairs, round_number) -> dict[tuple[str, str], bytes]:
    """One message each way over every pair; ``{(receiver, sender): text}``."""
    by_name = {client.name: client for client in clients}
    expected = {}
    for a, b in pairs:
        for sender, receiver in ((a, b), (b, a)):
            text = f"{round_number}: {sender} to {receiver}".encode()
            by_name[sender].send_message(text, peer=by_name[receiver].public_key)
            expected[(receiver, sender)] = text
    return expected


@pytest.mark.parametrize("where", ["inline", "pool"])
@given(population=populations())
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_batched_build_equals_each_client_alone(where, population, monkeypatch):
    """Two rounds of each protocol: the batch's wires are the wires each twin
    builds alone, the conversation responses decode to every partner's
    message, and every dial is found."""
    slots, pairs, dials = population
    batched, alone = build_population(slots, pairs), build_population(slots, pairs)
    workers = 2 if where == "pool" else 1
    with monkeypatch.context() as patch, RoundEngine(workers=workers) as engine:
        patch.setattr(round_engine, "POOL_CURVE_OPS", 0)
        for round_number in range(2):
            expected = queue_round(batched, pairs, round_number)
            queue_round(alone, pairs, round_number)
            wires = build_conversation_round(batched, round_number, engine)
            assert wires == [c.build_conversation_requests(round_number) for c in alone]
            chain = build_chain(
                CHAIN, ConversationProcessor(), rng=DeterministicRandom(round_number)
            )
            responses = chain.run_round(round_number, [w for client in wires for w in client])
            for twins in zip(batched, alone):
                slots = twins[0].max_conversations
                for client in twins:  # the same wires, so the same responses
                    client.handle_conversation_responses(round_number, responses[:slots])
                responses = responses[slots:]
            by_name = {client.name: client for client in batched}
            for (receiver, sender), text in expected.items():
                got = by_name[receiver].messages_from(by_name[sender].public_key)
                assert got[round_number] == text

            for clients in (batched, alone):
                for client in clients:
                    target = dials[client.name]
                    if target is not None:
                        client.dial(make_client(target, 1).public_key)
            dialing_wires = build_dialing_round(batched, round_number, 1, engine)
            assert dialing_wires == [c.build_dialing_request(round_number, 1) for c in alone]
            processor = DialingProcessor(
                num_buckets=1,
                noise_spec=DialingNoiseSpec(params=LaplaceParams(mu=2, b=1), exact=True),
                rng=DeterministicRandom("dialing"),
            )
            dialing_chain = build_chain(CHAIN, processor, rng=DeterministicRandom(round_number))
            acks = dialing_chain.run_round(round_number, dialing_wires)
            for twins, ack in zip(zip(batched, alone), acks):
                assert ack is not None
                for client in twins:
                    client.handle_dialing_response(round_number, ack)
            store = processor.store_for_round(round_number)
            for client in batched:
                calls = client.poll_invitations(round_number, store)
                callers = sorted(
                    name for name, target in dials.items() if target == client.name != name
                )
                found = sorted(
                    other.name for other in batched
                    for call in calls if call.caller == other.public_key
                )
                assert found == callers
        assert (engine._pool is not None) == (where == "pool")
    assert multiprocessing.active_children() == []


def test_one_op_needs_one_chain():
    other = VuvuzelaClient(
        name="elsewhere",
        keys=KeyPair.generate(DeterministicRandom("key-elsewhere")),
        server_public_keys=[KeyPair.generate(DeterministicRandom("x")).public] * 3,
        rng=DeterministicRandom("rng-elsewhere"),
    )
    with pytest.raises(ProtocolError):
        build_conversation_round([make_client("c0", 1), other], 0)
    with pytest.raises(ProtocolError):
        build_dialing_round([make_client("c0", 1), other], 0, 1)


# ------------------------------------------------------------ worker crashes


def crash_once(monkeypatch, tmp_path, name: str, when=lambda *args: True):
    """Make the worker function ``name`` kill its worker the first time it
    runs in a worker with ``when(*args)`` true; returns the marker file the
    crash leaves."""
    parent = os.getpid()
    crashed = tmp_path / "crashed"
    original = getattr(engine_worker, name)

    def crashing(*args):
        if os.getpid() != parent and when(*args):
            try:
                os.close(os.open(crashed, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                os._exit(1)
        return original(*args)

    monkeypatch.setattr(engine_worker, name, crashing)
    return crashed


MARKER = b"queued before the crash"


def carries_marker(*args) -> bool:
    plaintexts = args[5]
    return any(MARKER in plaintext for plaintext in plaintexts)


def pair_up(driver, names=("alice", "bob", "carol")):
    for name in names:
        driver.add_client(name)
    alice, bob = driver.client("alice"), driver.client("bob")
    alice.start_conversation(bob.public_key)
    bob.start_conversation(alice.public_key)
    return alice, bob


@pytest.mark.parametrize("shape", ["in-process", "tcp"])
def test_worker_crash_mid_build_fails_the_round_and_not_the_next(
    shape, forced_pool, two_cores, in_time, monkeypatch, tmp_path
):
    """A worker dies building the round that carries alice's message: the
    round fails with ``ProtocolError``, its window is discarded, and the
    next round delivers the message."""
    crashed = crash_once(monkeypatch, tmp_path, "build_exchange_batch", carries_marker)
    config = VuvuzelaConfig.small(seed=SEED)
    driver = VuvuzelaSystem(config) if shape == "in-process" else DeploymentLauncher(config)
    with driver:
        alice, bob = pair_up(driver)
        alice.send_message(MARKER)
        with pytest.raises(ProtocolError):
            in_time(driver.run_conversation_round)
        assert crashed.exists()
        in_time(driver.run_conversation_round)
        assert bob.messages_from(alice.public_key) == [MARKER]
        assert alice.rounds_participated == 1
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("op", ["conversation", "dialing"])
def test_worker_crash_mid_build_fails_the_session_and_not_the_next(
    op, forced_pool, two_cores, in_time, monkeypatch, tmp_path
):
    """The same inside a depth-2 continuous session: the round whose build
    dies fails the session (its own window and the pre-opened next one are
    discarded), and the next session delivers the message and the dial."""
    if op == "conversation":
        crashed = crash_once(monkeypatch, tmp_path, "build_exchange_batch", carries_marker)
    else:
        crashed = crash_once(monkeypatch, tmp_path, "build_dial_batch")
    with VuvuzelaSystem(VuvuzelaConfig.small(seed=SEED)) as system:
        alice, bob = pair_up(system)
        sessions = {name: system.add_session(name) for name in ("alice", "bob", "carol", "dave")}
        dave = system.client("dave")
        sessions["carol"].dial(dave.public_key)
        alice.send_message(MARKER)
        with pytest.raises(ProtocolError):
            in_time(lambda: system.run_continuous(2, dialing_interval=2, pipeline_depth=2))
        assert crashed.exists()
        report = in_time(lambda: system.run_continuous(2, dialing_interval=2, pipeline_depth=2))
        assert len(report.conversation) == 2 and len(report.dialing) == 1
        assert bob.messages_from(alice.public_key) == [MARKER]
        assert [call.caller for call in dave.incoming_calls] == [system.client("carol").public_key]
    assert multiprocessing.active_children() == []
