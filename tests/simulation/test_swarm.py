"""The vectorized client swarm: byte-identity and the batched admission path.

The swarm's whole value rests on one guarantee: a round it builds is
**byte-identical** to the same round built by individual
:class:`~repro.client.VuvuzelaClient` instances — same onion wires, same
draws from each client's forked rng, same dead drops — so every server-side
observable (noise, permutations, histograms, the ledger's submissions
digest) is independent of which driver produced the round.  These tests pin
that guarantee in both deployment shapes: the in-process system and real
subprocess servers over TCP.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DeploymentLauncher, VuvuzelaConfig, VuvuzelaSystem
from repro.errors import ProtocolError
from repro.net import LinkRule, MessageKind
from repro.server.wire import (
    VERDICT_ACCEPTED,
    decode_batch_verdicts,
    decode_collect_reply,
    decode_collect_request,
    decode_submission_batch,
    encode_batch_verdicts,
    encode_collect_reply,
    encode_collect_request,
    encode_submission_batch,
)
from repro.simulation import ClientSwarm, WorkloadSpec
from swarm_oracle import reference_wires

SEED = 424
NUM_USERS = 64


def scenario(num_users: int = NUM_USERS, conversing: float = 0.5):
    config = VuvuzelaConfig.small(seed=SEED)
    spec = WorkloadSpec(
        num_users=num_users, conversing_fraction=conversing, dialing_fraction=0.0
    )
    return config, ClientSwarm.from_spec(config, spec)


class TestWireIdentity:
    @pytest.mark.parametrize("chunk_size", [0, 17])
    def test_swarm_wires_match_per_client_wires(self, chunk_size: int) -> None:
        """Every wire of rounds 0 and 1, against straight-line Algorithm 1
        per client, byte for byte — a queued message included."""
        config, swarm = scenario()
        sender = swarm.population.pairs[0][1]
        messages = {1: {sender: b"second round"}}
        reference = reference_wires(swarm, (0, 1), messages)
        for round_number in (0, 1):
            for name, text in messages.get(round_number, {}).items():
                swarm.set_message(name, text)
            wires = swarm.build_round(round_number, chunk_size=chunk_size)
            assert len(wires) == NUM_USERS
            assert [bytes(w) for w in wires] == reference[round_number]

    def test_chunking_does_not_change_the_wires(self) -> None:
        config_a, swarm_a = scenario()
        config_b, swarm_b = scenario()
        unchunked = swarm_a.build_round(0)
        chunked = swarm_b.build_round(0, chunk_size=7)
        assert [bytes(w) for w in unchunked] == [bytes(w) for w in chunked]

    @pytest.mark.parametrize("chunk_size", [1, 5, NUM_USERS + 1])
    def test_chunk_boundaries_never_change_a_round(self, chunk_size: int) -> None:
        """One wire per chunk, a ragged last chunk and one oversized chunk all
        build the same rounds as the unchunked path, round after round."""
        _, chunked = scenario(num_users=16)
        _, unchunked = scenario(num_users=16)
        for round_number in range(3):
            wires = chunked.build_round(round_number, chunk_size=chunk_size)
            assert [bytes(w) for w in wires] == [
                bytes(w) for w in unchunked.build_round(round_number)
            ]

    def test_queued_message_changes_one_wire_of_one_round(self) -> None:
        """A message rides exactly the next round, in exactly its sender's
        wire; every client's rng stream stays aligned with a swarm that never
        queued it, so the following round is byte-identical again."""
        _, talking = scenario(num_users=16)
        _, quiet = scenario(num_users=16)
        sender = talking.population.pairs[0][0]
        talking.set_message(sender, b"only this round")
        first = [bytes(w) for w in talking.build_round(0)]
        baseline = [bytes(w) for w in quiet.build_round(0)]
        changed = [talking.names[i] for i, (a, b) in enumerate(zip(first, baseline)) if a != b]
        assert changed == [sender]
        assert [bytes(w) for w in talking.build_round(1)] == [
            bytes(w) for w in quiet.build_round(1)
        ]

    def test_a_round_is_built_once(self) -> None:
        _, swarm = scenario(num_users=4)
        swarm.build_round(0)
        with pytest.raises(ProtocolError):
            swarm.build_round(0)

    def test_unseeded_config_is_rejected(self) -> None:
        config = VuvuzelaConfig.small(seed=None)
        spec = WorkloadSpec(num_users=4, conversing_fraction=0.0, dialing_fraction=0.0)
        with pytest.raises(Exception):
            ClientSwarm.from_spec(config, spec)


class TestInProcessRound:
    def test_full_round_through_the_system(self) -> None:
        config, swarm = scenario()
        sender, partner = swarm.population.pairs[0]
        swarm.set_message(sender, b"swarm says hello")
        with VuvuzelaSystem(config) as system:
            report = system.run_swarm_round(swarm, chunk_size=10)
        metrics, stats, outcome = report.metrics, report.ingest, report.outcome
        assert metrics.client_requests == NUM_USERS
        assert metrics.delivered_responses == NUM_USERS
        assert metrics.refused_requests == 0
        assert metrics.noise_requests > 0
        assert stats.accepted == NUM_USERS
        assert stats.refused == 0 and stats.late == 0
        assert stats.chunks == (NUM_USERS + 9) // 10
        assert stats.peak_server_buffer == NUM_USERS
        assert outcome.delivered == NUM_USERS and outcome.lost == 0
        assert outcome.undelivered == []
        assert outcome.messages[partner] == b"swarm says hello"
        # Every other conversing client exchanged the default empty message.
        conversing = {name for pair in swarm.population.pairs for name in pair}
        assert set(outcome.messages) == conversing
        assert all(
            plaintext == b""
            for name, plaintext in outcome.messages.items()
            if name != partner
        )

    def test_consecutive_rounds_keep_their_contexts_apart(self) -> None:
        config, swarm = scenario(num_users=16)
        with VuvuzelaSystem(config) as system:
            first = system.run_swarm_round(swarm)
            second = system.run_swarm_round(swarm)
        assert first.outcome.round_number == 0
        assert second.outcome.round_number == 1
        assert first.outcome.delivered == second.outcome.delivered == 16


    def test_killed_hop_retries_the_swarm_round(self) -> None:
        """A chain hop dying mid-round aborts the swarm round; the retry
        delivers every client's exchange once and the next round is clean."""
        config, swarm = scenario(num_users=16)
        sender, partner = swarm.population.pairs[0]
        swarm.set_message(sender, b"through the crash")
        with VuvuzelaSystem(config) as system:
            system.add_link_rule(
                0,
                LinkRule(
                    action="kill",
                    source="server-0/conversation",
                    destination="server-1/conversation",
                    count=1,
                ),
                seed=1,
            )
            faulted = system.run_swarm_round(swarm)
            follow_up = system.run_swarm_round(swarm)
        assert faulted.metrics.aborted_attempts == 1
        assert faulted.outcome.delivered == 16 and faulted.outcome.lost == 0
        assert faulted.outcome.messages[partner] == b"through the crash"
        assert follow_up.metrics.aborted_attempts == 0
        assert follow_up.outcome.delivered == 16

    @given(
        users=st.integers(min_value=4, max_value=20),
        rounds=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_swarm_sessions_are_reproducible_for_any_shape(
        self, users: int, rounds: int
    ) -> None:
        """Property: whatever the population and session length, the same
        seed yields identical per-round ledger records."""

        def session() -> list[dict]:
            config, swarm = scenario(num_users=users)
            with VuvuzelaSystem(config) as system:
                protocol = system.protocols["conversation"]
                return [
                    system._ledger_round_record(protocol, system.run_swarm_round(swarm).metrics)
                    for _ in range(rounds)
                ]

        first = session()
        assert [record["client_requests"] for record in first] == [users] * rounds
        assert session() == first


class TestTcpRound:
    def test_tcp_round_matches_the_in_process_round(self, monkeypatch) -> None:
        """Same seed, same population: both shapes resolve identically."""
        # Several RESPONSE_COLLECT frames, not one, for the 64 names.
        monkeypatch.setattr("repro.core.deployment.COLLECT_CHUNK", 20)
        config, swarm = scenario()
        sender, partner = swarm.population.pairs[0]
        swarm.set_message(sender, b"over tcp")
        with VuvuzelaSystem(config) as system:
            in_process = system.run_swarm_round(swarm, chunk_size=10)

        config_tcp, swarm_tcp = scenario()
        swarm_tcp.set_message(sender, b"over tcp")
        with DeploymentLauncher(config_tcp, request_timeout=120.0) as deployment:
            result, stats, outcome = deployment.run_swarm_round(swarm_tcp, chunk_size=10)
            chain_noise = deployment.chain_noise("conversation", result.round_number)

        assert result.accepted == NUM_USERS
        assert result.refused == 0 and result.late == 0
        assert result.responded == NUM_USERS
        assert stats.accepted == NUM_USERS and stats.chunks == (NUM_USERS + 9) // 10
        assert stats.peak_server_buffer == NUM_USERS
        assert outcome.delivered == NUM_USERS and outcome.lost == 0
        # The decoded plaintexts are byte-identical across the two shapes:
        # the wires are, so everything downstream is.
        assert outcome.messages == in_process.outcome.messages
        assert outcome.undelivered == in_process.outcome.undelivered
        assert chain_noise == in_process.metrics.noise_requests


class TestBatchFraming:
    def test_submission_batch_round_trip(self) -> None:
        entries = [(f"user-{i}", bytes([i]) * (i + 1)) for i in range(5)]
        frame = encode_submission_batch(MessageKind.CONVERSATION_REQUEST, 9, entries)
        kind, round_number, decoded = decode_submission_batch(frame)
        assert kind is MessageKind.CONVERSATION_REQUEST
        assert round_number == 9
        assert [(name, bytes(payload)) for name, payload in decoded] == entries

    def test_submission_batch_accepts_memoryview_payloads(self) -> None:
        entries = [("alice", memoryview(b"wire-bytes"))]
        frame = encode_submission_batch(MessageKind.CONVERSATION_REQUEST, 1, entries)
        _, _, decoded = decode_submission_batch(memoryview(frame))
        assert bytes(decoded[0][1]) == b"wire-bytes"

    def test_verdicts_round_trip(self) -> None:
        verdicts = bytes([VERDICT_ACCEPTED] * 4)
        frame = encode_batch_verdicts(3, verdicts)
        round_number, decoded = decode_batch_verdicts(frame)
        assert round_number == 3
        assert bytes(decoded) == verdicts

    def test_collect_round_trip(self) -> None:
        names = ["alice", "bob", "carol"]
        request = encode_collect_request(MessageKind.CONVERSATION_REQUEST, 7, names)
        kind, round_number, decoded_names = decode_collect_request(request)
        assert kind is MessageKind.CONVERSATION_REQUEST
        assert (round_number, decoded_names) == (7, names)
        responses = [[b"one"], [], [b"two", b"three"]]
        reply = encode_collect_reply(7, responses)
        got_round, decoded = decode_collect_reply(reply)
        assert got_round == 7
        assert [[bytes(w) for w in wires] for wires in decoded] == responses
