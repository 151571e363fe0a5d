"""Hostile commands at the server roles' control plane.

Both ``_dispatch`` tables — the entry's and a chain server's — are a byte
boundary: over TCP a command arrives as JSON from the network, and in
process the driver calls the same table directly.  Every refusal either
table can emit is one row below, and each must surface as
:class:`~repro.errors.ProtocolError` (never a ``KeyError``, ``ValueError``
or ``OverflowError`` escaping the handler) before the command has acted.
"""

from __future__ import annotations

import json

import pytest

from repro import VuvuzelaConfig
from repro.core import topology
from repro.errors import ProtocolError
from repro.net import Envelope, MessageKind, Network, TcpTransport
from repro.server.chain_main import ChainServerProcess
from repro.server.control import request
from repro.server.entry_main import EntryServerProcess

CONFIG = VuvuzelaConfig.small(seed=5)
RULE = {"action": "drop", "destination": "server-0/conversation"}

#: Refusals both tables emit: the decoder's, the link commands' and the
#: unknown command.
COMMON = [
    (b"[1]", "JSON object"),
    (b"not json", "malformed control command"),
    (b"\xff", "malformed control command"),
    ({}, "unknown control command None"),
    ({"cmd": "reboot"}, "unknown control command 'reboot'"),
    ({"cmd": "add-link-rule", "rule": {"action": "kill", "kind": "bogus"}}, "malformed link rule"),
    ({"cmd": "add-link-rule", "rule": RULE, "seed": True}, "128-bit integer"),
]

ENTRY = [
    ({"cmd": "register"}, "'name' must be a non-empty string, got nothing"),
    ({"cmd": "register", "name": 7}, "'name' must be a non-empty string"),
    ({"cmd": "revoke", "name": ""}, "'name' must be a non-empty string"),
    ({"cmd": "forget-client", "name": None}, "'name' must be a non-empty string"),
    ({"cmd": "open-round"}, "'protocol' must be one of"),
    ({"cmd": "open-round", "protocol": "voting"}, "'protocol' must be one of"),
    ({"cmd": "open-round", "protocol": "dialing", "deadline": "abc"}, "'deadline'"),
    ({"cmd": "open-round", "protocol": "dialing", "deadline": -1}, "'deadline'"),
    ({"cmd": "open-round", "protocol": "dialing", "deadline": True}, "'deadline'"),
    (b'{"cmd": "open-round", "protocol": "dialing", "deadline": 1e400}', "'deadline'"),
    ({"cmd": "open-round", "protocol": "dialing", "deadline": 10**400}, "'deadline'"),
    ({"cmd": "open-round", "protocol": "dialing", "expected": "3"}, "'expected'"),
    ({"cmd": "open-round", "protocol": "dialing", "expected": True}, "'expected'"),
    ({"cmd": "force-attempts"}, "'plan' must be a list of 3-element lists, got nothing"),
    ({"cmd": "force-attempts", "plan": {"dialing": 2}}, "'plan' must be a list"),
    ({"cmd": "force-attempts", "plan": [["dialing", 0]]}, "'plan' must be a list"),
    ({"cmd": "force-attempts", "plan": [["dialing", 0, 2], ["dialing", 1, 2, 3]]}, "'plan'"),
    ({"cmd": "force-attempts", "plan": [["dialing", 0, 2], ["voting", 1, 2]]}, "'protocol'"),
    ({"cmd": "force-attempts", "plan": [["dialing", -1, 2]]}, "'round' must be an integer"),
    ({"cmd": "force-attempts", "plan": [["dialing", 0, 2], ["dialing", 1, 0]]}, "'attempt'"),
    ({"cmd": "force-attempts", "plan": [["dialing", 0, 2**32]]}, "'attempt'"),
    ({"cmd": "force-attempts", "plan": [["dialing", 0, True]]}, "'attempt'"),
    ({"cmd": "close-round", "protocol": "dialing"}, "'round' must be an integer"),
    ({"cmd": "close-round", "protocol": "dialing", "round": "x"}, "'round'"),
    ({"cmd": "close-round", "protocol": "dialing", "round": True}, "'round'"),
    (b'{"cmd": "close-round", "protocol": "dialing", "round": 1e400}', "'round'"),
    ({"cmd": "round-result", "protocol": "dialing", "round": -1}, "'round'"),
    ({"cmd": "round-result", "protocol": "dialing", "round": 2**64}, "'round'"),
    ({"cmd": "round-result", "protocol": "dialing", "round": 0, "wait": "soon"}, "'wait'"),
    ({"cmd": "round-result", "protocol": "dialing", "round": 0, "wait": 1e300}, "'wait'"),
]

CHAIN = [
    ({"cmd": "noise", "round": 0}, "'protocol' must be one of"),
    ({"cmd": "noise", "protocol": "voting", "round": 0}, "'protocol' must be one of"),
    ({"cmd": "noise", "protocol": ["dialing"], "round": 0}, "'protocol' must be one of"),
    ({"cmd": "noise", "protocol": "dialing"}, "'round' must be an integer"),
    ({"cmd": "noise", "protocol": "dialing", "round": True}, "'round'"),
    ({"cmd": "noise", "protocol": "dialing", "round": "1"}, "'round'"),
    (b'{"cmd": "noise", "protocol": "dialing", "round": 1e400}', "'round'"),
    ({"cmd": "histogram", "round": 0}, "only the last chain server"),
    ({"cmd": "invitations", "round": 0}, "only the last chain server"),
]

LAST_CHAIN = [
    ({"cmd": "histogram", "round": 0}, "conversation round 0 has not run here"),
    ({"cmd": "histogram", "round": 1.5}, "'round'"),
    ({"cmd": "invitations", "round": 0}, "dialing round 0 has not been processed"),
    ({"cmd": "invitations", "round": -3}, "'round'"),
]


def _payload(command) -> bytes:
    return command if isinstance(command, bytes) else json.dumps(command).encode("utf-8")


def _processes() -> dict:
    network = Network()
    root = topology.root_rng(CONFIG)
    keypairs = topology.server_keypairs(CONFIG, root)
    last = CONFIG.num_servers - 1
    return {
        "entry": EntryServerProcess(CONFIG, network, blocking_responses=True),
        "chain": ChainServerProcess(CONFIG, 0, network, root, keypairs),
        "last chain": ChainServerProcess(CONFIG, last, network, root, keypairs),
    }


ROWS = [
    (role, command, match)
    for role, rows in (
        ("entry", COMMON + ENTRY),
        ("chain", COMMON + CHAIN),
        ("last chain", COMMON + LAST_CHAIN),
    )
    for command, match in rows
]


@pytest.mark.parametrize(
    "role, command, match", ROWS, ids=[f"{role}:{_payload(c)[:60]!r}" for role, c, _ in ROWS]
)
def test_every_refusal_is_a_protocol_error(role, command, match):
    process = _processes()[role]
    envelope = Envelope(
        source="operator", destination="entry", payload=_payload(command), kind=MessageKind.CONTROL
    )
    with pytest.raises(ProtocolError, match=match):
        process.handle_control(envelope)
    # Nothing acted: no link rule was installed, no attempt was forced.
    assert process._dispatch({"cmd": "link-stats"})["rules"] == 0
    if role == "entry":
        assert process._forced_attempts == {}


def test_a_refused_open_spends_no_round_number():
    """A refused ``open-round`` used to allocate its round first, so the
    next open skipped a number the launcher's mirror still predicted.  Nor
    does it spend the round's forced attempt."""
    entry = _processes()["entry"]
    try:
        plan = [["dialing", 0, 3]]
        assert entry._dispatch({"cmd": "force-attempts", "plan": plan}) == {"forced": 1}
        for bad in ({"deadline": "abc"}, {"expected": -1}, {"expected": True}):
            with pytest.raises(ProtocolError):
                entry._dispatch({"cmd": "open-round", "protocol": "dialing", **bad})
        assert entry._dispatch({"cmd": "open-round", "protocol": "dialing"}) == {"round": 0}
        assert entry.coordinator.window(MessageKind.DIALING_REQUEST, 0).attempt == 3
        assert entry._forced_attempts == {}
        assert entry._dispatch({"cmd": "counters"})["next"] == {"conversation": 0, "dialing": 1}
        entry.close()
        with pytest.raises(ProtocolError, match="shut down"):
            entry._dispatch({"cmd": "open-round", "protocol": "dialing"})
        assert entry._next_round[MessageKind.DIALING_REQUEST] == 1
    finally:
        entry.close()


def test_a_refusal_crosses_tcp_as_the_same_typed_error():
    """Over TCP the refusal is the caller's ``ProtocolError`` with the same
    message — not the transport's ``handler failed`` catch-all."""
    server = TcpTransport()
    entry = EntryServerProcess(CONFIG, server, blocking_responses=True)
    host, port = server.listen()
    client = TcpTransport(request_timeout=10.0)
    client.add_route("entry", host, port)
    try:
        with pytest.raises(ProtocolError, match="'deadline' must be a number of seconds") as caught:
            request(client, "operator", "entry", {"cmd": "open-round", "protocol": "dialing",
                                                  "deadline": "abc"})
        assert "handler failed" not in str(caught.value)
        assert request(client, "operator", "entry", {"cmd": "open-round",
                                                     "protocol": "dialing"}) == {"round": 0}
    finally:
        entry.close()
        client.close()
        server.close()
