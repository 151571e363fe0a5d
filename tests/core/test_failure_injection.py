"""Failure injection: lost responses, duplicate suppression, DoS admission control.

These tests exercise the system under the partial failures the paper's client
retransmission logic exists for (§3.1), plus the §9 entry-server DoS
mitigations.
"""

from __future__ import annotations

import pytest

from repro import VuvuzelaConfig, VuvuzelaSystem
from repro.dialing import DIALING_REQUEST_SIZE
from repro.crypto import request_size
from repro.conversation import EXCHANGE_REQUEST_SIZE
from repro.net import CLIENTS, LinkRule, MessageKind
from repro.server import ACK, REFUSED


class TestLostResponses:
    def test_retransmission_does_not_duplicate_messages(self):
        """If only the response is lost, the retransmitted message is delivered once."""
        system = VuvuzelaSystem(VuvuzelaConfig.small(seed=21))
        alice, bob = system.add_client("alice"), system.add_client("bob")
        alice.start_conversation(bob.public_key)
        bob.start_conversation(alice.public_key)
        alice.send_message("exactly once")

        # Round 0: the exchange happens at the servers (Bob receives the
        # message), but Alice never sees her response, so she cannot know and
        # retransmits.
        system.add_link_rule(
            CLIENTS,
            LinkRule("drop", destination="alice", kind=MessageKind.CONVERSATION_RESPONSE),
        )
        system.run_conversation_round()
        system.heal_links(CLIENTS)
        assert bob.messages_from(alice.public_key) == [b"exactly once"]
        assert alice.rounds_lost == 1
        assert alice.outbox.pending == 1  # still unacknowledged

        # Round 1: the retransmission goes through; Bob suppresses the duplicate.
        system.run_conversation_round()
        assert bob.messages_from(alice.public_key) == [b"exactly once"]
        assert bob.duplicates_suppressed == 1
        assert alice.outbox.pending == 0

    def test_messages_survive_multiple_lost_rounds(self):
        system = VuvuzelaSystem(VuvuzelaConfig.small(seed=22))
        alice, bob = system.add_client("alice"), system.add_client("bob")
        alice.start_conversation(bob.public_key)
        bob.start_conversation(alice.public_key)
        alice.send_message("persistent")

        system.add_link_rule(
            CLIENTS, LinkRule("drop", source="alice", kind=MessageKind.CONVERSATION_REQUEST)
        )
        system.add_link_rule(
            CLIENTS,
            LinkRule("drop", destination="alice", kind=MessageKind.CONVERSATION_RESPONSE),
        )
        for _ in range(3):
            system.run_conversation_round()
        assert bob.messages_from(alice.public_key) == []
        assert alice.rounds_lost == 3

        system.heal_links(CLIENTS)
        system.run_conversation_round()
        assert bob.messages_from(alice.public_key) == [b"persistent"]
        assert bob.duplicates_suppressed == 0

    def test_drop_message_kind_scoping(self):
        """Kind-scoped drop rules for several clients silence all of them."""
        system = VuvuzelaSystem(VuvuzelaConfig.small(seed=23))
        alice, bob = system.add_client("alice"), system.add_client("bob")
        alice.start_conversation(bob.public_key)
        bob.start_conversation(alice.public_key)
        bob.send_message("never arrives this round")
        for name in ("alice", "bob"):
            system.add_link_rule(
                CLIENTS, LinkRule("drop", source=name, kind=MessageKind.CONVERSATION_REQUEST)
            )
        metrics = system.run_conversation_round()
        assert metrics.lost_requests == 2
        assert alice.messages_from(bob.public_key) == []
        # Inter-server batches (same message kind, different endpoints) still flow.
        assert metrics.noise_requests > 0


class TestAdmissionControl:
    def test_unregistered_clients_are_refused(self):
        config = VuvuzelaConfig.small(seed=24)
        system = VuvuzelaSystem(
            VuvuzelaConfig(
                num_servers=config.num_servers,
                conversation_noise=config.conversation_noise,
                dialing_noise=config.dialing_noise,
                seed=24,
                require_registration=True,
            )
        )
        alice, bob = system.add_client("alice"), system.add_client("bob")
        alice.start_conversation(bob.public_key)
        bob.start_conversation(alice.public_key)
        alice.send_message("hello")

        # Clients added through the system are auto-registered, so the round works.
        system.run_conversation_round()
        assert bob.messages_from(alice.public_key) == [b"hello"]

        # A client whose account is revoked is refused and its round is lost.
        system.entry.revoke_account("alice")
        alice.send_message("blocked at the door")
        metrics = system.run_conversation_round()
        assert metrics.lost_requests >= 1
        assert system.entry.refused_requests >= 1
        assert bob.messages_from(alice.public_key) == [b"hello"]

    def test_flooding_client_limited_to_one_request_per_round(self):
        system = VuvuzelaSystem(
            VuvuzelaConfig(seed=25, require_registration=True)
        )
        system.add_client("alice")
        round_number = 990
        # Every submission needs its round's window open.
        system.coordinator.open_round(MessageKind.CONVERSATION_REQUEST, round_number)
        wire = b"\x00" * request_size(EXCHANGE_REQUEST_SIZE, system.config.num_servers)
        first = system.network.send(
            "alice", "entry", wire, MessageKind.CONVERSATION_REQUEST, round_number
        )
        second = system.network.send(
            "alice", "entry", wire, MessageKind.CONVERSATION_REQUEST, round_number
        )
        assert first == ACK
        assert second == REFUSED
        assert system.entry.pending_requests(MessageKind.CONVERSATION_REQUEST, round_number) == 1

    def test_unregistered_attacker_cannot_inflate_dialing_round(self):
        system = VuvuzelaSystem(
            VuvuzelaConfig(seed=26, require_registration=True)
        )
        system.add_client("alice")
        system.network.register("attacker", lambda envelope: b"")
        system.coordinator.open_round(MessageKind.DIALING_REQUEST, 0)
        wire = b"\x00" * request_size(DIALING_REQUEST_SIZE, system.config.num_servers)
        reply = system.network.send("attacker", "entry", wire, MessageKind.DIALING_REQUEST, 0)
        assert reply == REFUSED
        assert system.entry.refused_requests == 1
