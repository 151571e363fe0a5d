"""The one conversation-client routine, as both of its holders use it.

A :class:`~repro.client.VuvuzelaClient` and a
:class:`~repro.simulation.ClientSwarm` build and decode through one
:class:`~repro.conversation.ConversationRows`.  Pinned here: its per-round
state stays bounded however long a session runs and whichever rounds are
never answered, and a hostile response costs only its own row — it decodes
to "no message" (a lost round when nothing arrived), keeps that row's
message queued for retransmission, and changes no other row's plaintext.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import VuvuzelaConfig
from repro.client import VuvuzelaClient
from repro.conversation import ConversationProcessor
from repro.crypto import DeterministicRandom, KeyPair
from repro.errors import ProtocolError
from repro.mixnet import build_chain
from repro.simulation import ClientSwarm, WorkloadSpec

#: What a hostile network may put in a row's place.
HOSTILE = ["none", "truncated", "oversized", "random", "other row", "other round"]


def per_round_containers(*owners) -> dict[str, dict]:
    """Every non-empty dict attribute of ``owners`` keyed by round number."""
    found = {}
    for owner in owners:
        for name, value in vars(owner).items():
            if isinstance(value, dict) and value and all(isinstance(k, int) for k in value):
                found[name] = value
    return found


def make_client(name: str, servers, slots: int = 1) -> VuvuzelaClient:
    return VuvuzelaClient(
        name=name,
        keys=KeyPair.generate(DeterministicRandom(f"key-{name}")),
        server_public_keys=[kp.public for kp in servers],
        rng=DeterministicRandom(f"rng-{name}"),
        max_conversations=slots,
    )


def servers() -> list[KeyPair]:
    return [KeyPair.generate(DeterministicRandom(f"server-{i}")) for i in range(3)]


class TestBoundedState:
    def test_fifty_rounds_leave_at_most_one_pending_round(self):
        """Every third round is never answered (a failed round); the next
        build drops it, so neither holder accumulates per-round state."""
        chain_keys = servers()
        client = make_client("alice", chain_keys, slots=2)
        client.start_conversation(make_client("bob", chain_keys).public_key)
        swarm = ClientSwarm.from_spec(
            VuvuzelaConfig.small(seed=5),
            WorkloadSpec(num_users=4, conversing_fraction=0.5, dialing_fraction=0.0),
        )
        for round_number in range(50):
            client.build_conversation_requests(round_number)
            client.build_dialing_request(round_number, num_buckets=1)
            swarm.build_round(round_number)
            if round_number % 3:
                client.handle_conversation_responses(round_number, [None, None])
                client.handle_dialing_response(round_number, None)
                swarm.handle_round_responses(round_number, {})
        for holder, rows in ((client, client._rows), (swarm, swarm.rows)):
            assert len(rows.pending) <= 1
            containers = per_round_containers(holder, rows)
            assert all(len(container) <= 1 for container in containers.values()), containers

    def test_a_response_count_mismatch_is_refused(self):
        client = make_client("alice", servers(), slots=2)
        client.build_conversation_requests(0)
        with pytest.raises(ProtocolError):
            client.handle_conversation_responses(0, [None])


def corrupt(data, responses: list, other_round: list) -> tuple[list, set[int]]:
    """``responses`` with some rows replaced by hostile bytes; the rows hit."""
    hostile = list(responses)
    hit = set()
    for row in range(len(responses)):
        kind = data.draw(st.sampled_from(["keep", *HOSTILE]), label=f"row {row}")
        if kind == "keep":
            continue
        hit.add(row)
        wire = responses[row]
        if kind == "none":
            hostile[row] = None
        elif kind == "truncated":
            hostile[row] = wire[: data.draw(st.integers(0, len(wire) - 1))]
        elif kind == "oversized":
            hostile[row] = wire + data.draw(st.binary(min_size=1, max_size=64))
        elif kind == "random":
            hostile[row] = data.draw(st.binary(max_size=2 * len(wire)))
        elif kind == "other row":
            hostile[row] = responses[(row + 1) % len(responses)]
        else:
            hostile[row] = other_round[row]
    return hostile, hit


SETTINGS = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestHostileResponses:
    @given(data=st.data())
    @SETTINGS
    def test_per_client_rows(self, data):
        """Alice (two slots: a conversation with bob and an idle one) and bob
        exchange through a real chain; alice's responses are then mangled."""
        chain_keys = servers()
        chain = build_chain(chain_keys, ConversationProcessor(), rng=DeterministicRandom(7))
        alice, twin = make_client("alice", chain_keys, 2), make_client("alice", chain_keys, 2)
        bob = make_client("bob", chain_keys, 2)
        for client in (alice, twin):
            client.start_conversation(bob.public_key)
        bob.start_conversation(alice.public_key)

        def exchange(round_number):
            for client in (alice, twin):
                client.send_message(f"round {round_number}")
            bob.send_message(f"bob's round {round_number}")
            wires = alice.build_conversation_requests(round_number)
            assert twin.build_conversation_requests(round_number) == wires
            bob_wires = bob.build_conversation_requests(round_number)
            responses = chain.run_round(round_number, wires + bob_wires)
            bob.handle_conversation_responses(round_number, responses[2:])
            return responses[:2]

        earlier = exchange(0)
        for client in (alice, twin):
            client.handle_conversation_responses(0, earlier)
        responses = exchange(1)
        hostile, hit = corrupt(data, responses, earlier)
        got = alice.handle_conversation_responses(1, hostile)

        clean = twin.handle_conversation_responses(1, responses)
        assert clean == [b"bob's round 1", None]
        for row in range(2):
            assert got[row] == (None if row in hit else clean[row])
        if 0 in hit:
            assert alice.outbox.in_flight is not None  # kept for retransmission
        else:
            assert alice.outbox.in_flight is None
        assert alice.rounds_lost == (1 if hostile == [None, None] else 0)

    @given(data=st.data())
    @SETTINGS
    def test_swarm_rows(self, data):
        config = VuvuzelaConfig.small(seed=9)
        spec = WorkloadSpec(num_users=6, conversing_fraction=0.7, dialing_fraction=0.0)
        swarm, twin = ClientSwarm.from_spec(config, spec), ClientSwarm.from_spec(config, spec)
        chain = build_chain(swarm.server_keypairs, ConversationProcessor(), rng=DeterministicRandom(7))

        def exchange(round_number):
            for holder in (swarm, twin):
                for a, b in holder.population.pairs:
                    holder.set_message(a, f"{round_number}: {a} to {b}".encode())
            wires = swarm.build_round(round_number)
            assert twin.build_round(round_number) == wires
            return chain.run_round(round_number, wires)

        earlier = exchange(0)
        responses = exchange(1)
        hostile, hit = corrupt(data, responses, earlier)
        outcome = swarm.handle_round_responses(
            1, {name: [] if wire is None else [wire] for name, wire in zip(swarm.names, hostile)}
        )
        clean = twin.handle_round_responses(1, {n: [w] for n, w in zip(swarm.names, responses)})
        assert clean.lost == 0 and len(clean.messages) == swarm.conversing
        assert outcome.lost == sum(1 for wire in hostile if wire is None)
        for row, name in enumerate(swarm.names):
            assert outcome.messages.get(name) == (None if row in hit else clean.messages.get(name))
        assert set(outcome.undelivered) == set(clean.messages) - set(outcome.messages)
