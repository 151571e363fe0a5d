"""Tests for the blocking-socket TCP transport: framing, RPC, errors, reuse,
timeouts, unbounded handler concurrency and teardown."""

from __future__ import annotations

import socket
import struct
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import ConnectTimeout, NetworkError, ProtocolError, TransportTimeout
from repro.net import Envelope, MessageKind, TcpTransport, parse_address
from repro.net.tcp import decode_reply, decode_request, encode_reply, encode_request


class TestFraming:
    def test_request_roundtrip(self):
        envelope = Envelope(
            source="alice",
            destination="entry",
            payload=b"\x00\x01payload",
            kind=MessageKind.DIALING_REQUEST,
            round_number=41,
        )
        assert decode_request(encode_request(envelope)) == envelope

    def test_request_roundtrip_empty_payload_and_unicode_names(self):
        envelope = Envelope(source="älice", destination="sérver-0/conversation", payload=b"")
        assert decode_request(encode_request(envelope)) == envelope

    def test_truncated_request_rejected(self):
        body = encode_request(Envelope(source="a", destination="b", payload=b"xy"))
        with pytest.raises(ProtocolError):
            decode_request(body[:3])

    def test_reply_roundtrip(self):
        assert decode_reply(encode_reply(0, b"hello")) == b"hello"
        assert decode_reply(encode_reply(0, b"")) == b""
        assert decode_reply(encode_reply(1, b"")) is None

    def test_reply_errors_keep_their_type(self):
        with pytest.raises(NetworkError):
            decode_reply(encode_reply(2, b"link down"))
        with pytest.raises(ProtocolError):
            decode_reply(encode_reply(3, b"bad round"))
        with pytest.raises(TransportTimeout):
            decode_reply(encode_reply(4, b"too slow"))
        # A connect-phase timeout keeps its provably-undelivered identity
        # across hop boundaries so the coordinator can still retry it.
        with pytest.raises(ConnectTimeout):
            decode_reply(encode_reply(5, b"no SYN-ACK"))

    def test_decoded_payload_is_a_read_only_view_over_the_frame(self):
        frame = bytearray(encode_request(Envelope(source="a", destination="b", payload=b"xyz")))
        payload = decode_request(frame).payload
        assert isinstance(payload, memoryview)
        assert payload.readonly
        assert payload.obj is frame  # no copy of the received buffer
        assert payload == b"xyz"

    def test_parse_address(self):
        assert parse_address("127.0.0.1:8080") == ("127.0.0.1", 8080)
        with pytest.raises(NetworkError):
            parse_address("no-port")


@pytest.fixture
def server_transport():
    transport = TcpTransport()
    yield transport
    transport.close()


@pytest.fixture
def client_transport():
    transport = TcpTransport(request_timeout=10.0)
    yield transport
    transport.close()


class TestTcpRpc:
    def test_request_response_over_sockets(self, server_transport, client_transport):
        seen: list[Envelope] = []

        def handler(envelope: Envelope) -> bytes:
            seen.append(envelope)
            return bytes(envelope.payload).upper()

        server_transport.register("echo", handler)
        host, port = server_transport.listen()
        client_transport.add_route("echo", host, port)

        reply = client_transport.send(
            "alice", "echo", b"hello", MessageKind.CONVERSATION_REQUEST, 7
        )
        assert reply == b"HELLO"
        assert seen[0].source == "alice"
        assert seen[0].kind is MessageKind.CONVERSATION_REQUEST
        assert seen[0].round_number == 7

    def test_none_reply_crosses_the_wire(self, server_transport, client_transport):
        server_transport.register("quiet", lambda envelope: None)
        host, port = server_transport.listen()
        client_transport.add_route("quiet", host, port)
        assert client_transport.send("a", "quiet", b"x") is None

    def test_connection_reuse_and_stats(self, server_transport, client_transport):
        server_transport.register("echo", lambda envelope: b"ok")
        host, port = server_transport.listen()
        client_transport.add_route("echo", host, port)
        for _ in range(5):
            client_transport.send("alice", "echo", b"12345")
        stats = client_transport.stats("alice", "echo")
        assert stats.messages == 5
        assert stats.bytes == 25
        assert client_transport.total_messages() == 5
        # One pooled connection served all five requests.
        pool = next(iter(client_transport._pools.values()))
        assert len(pool._all) == 1

    def test_remote_errors_reraise_with_type(self, server_transport, client_transport):
        def network_fail(envelope):
            raise NetworkError("link to nowhere")

        def protocol_fail(envelope):
            raise ProtocolError("wrong round")

        server_transport.register("net", network_fail)
        server_transport.register("proto", protocol_fail)
        host, port = server_transport.listen()
        client_transport.update_routes({"net": (host, port), "proto": (host, port)})
        with pytest.raises(NetworkError, match="link to nowhere"):
            client_transport.send("a", "net", b"")
        with pytest.raises(ProtocolError, match="wrong round"):
            client_transport.send("a", "proto", b"")

    def test_unknown_remote_endpoint(self, server_transport, client_transport):
        host, port = server_transport.listen()
        client_transport.add_route("ghost", host, port)
        with pytest.raises(NetworkError, match="unknown endpoint"):
            client_transport.send("a", "ghost", b"")

    def test_unknown_local_endpoint(self, client_transport):
        with pytest.raises(NetworkError, match="unknown endpoint"):
            client_transport.send("a", "nowhere", b"")

    def test_unrouted_local_handler_is_called_directly(self, client_transport):
        client_transport.register("local", lambda envelope: b"here")
        assert client_transport.send("a", "local", b"") == b"here"

    def test_request_timeout_surfaces_as_transport_timeout(self, server_transport):
        server_transport.register("slow", lambda envelope: time.sleep(5.0) or b"late")
        host, port = server_transport.listen()
        client = TcpTransport(request_timeout=0.2)
        client.add_route("slow", host, port)
        try:
            with pytest.raises(TransportTimeout):
                client.send("a", "slow", b"")
        finally:
            client.close()

    def test_connect_failure_is_network_error(self, client_transport):
        # A port nothing listens on: connect is refused immediately.
        client_transport.add_route("void", "127.0.0.1", 1)
        with pytest.raises(NetworkError):
            client_transport.send("a", "void", b"")

    def test_send_after_close_rejected(self):
        transport = TcpTransport()
        transport.register("x", lambda envelope: b"")
        transport.listen()
        transport.close()
        transport.add_route("x", "127.0.0.1", 9)
        with pytest.raises(NetworkError, match="closed"):
            transport.send("a", "x", b"")

    def test_timed_out_handler_status_is_timeout(self, server_transport, client_transport):
        def relay_timeout(envelope):
            raise TransportTimeout("downstream hop exceeded 1s")

        server_transport.register("relay", relay_timeout)
        host, port = server_transport.listen()
        client_transport.add_route("relay", host, port)
        # A timeout deep in a chain keeps its type across the hop boundary,
        # so the coordinator can turn it into a ProtocolError at the top.
        with pytest.raises(TransportTimeout, match="downstream hop"):
            client_transport.send("a", "relay", b"")


class TestTrafficAccounting:
    def test_timed_out_send_does_not_inflate_stats(self, server_transport):
        """Regression: stats used to be recorded before the request ran, so
        timed-out and failed sends inflated the adversary-observation byte
        and message counts."""
        server_transport.register("slow", lambda envelope: time.sleep(5.0) or b"late")
        host, port = server_transport.listen()
        client = TcpTransport(request_timeout=0.2)
        client.add_route("slow", host, port)
        try:
            with pytest.raises(TransportTimeout):
                client.send("a", "slow", b"12345")
            assert client.stats("a", "slow").messages == 0
            assert client.stats("a", "slow").bytes == 0
            assert client.total_messages() == 0
            assert client.failed_sends == 1
        finally:
            client.close()

    def test_connect_failure_counts_as_failed_send_only(self, client_transport):
        client_transport.add_route("void", "127.0.0.1", 1)
        with pytest.raises(NetworkError):
            client_transport.send("a", "void", b"payload")
        assert client_transport.total_messages() == 0
        assert client_transport.failed_sends == 1

    def test_delivered_error_replies_still_count(self, server_transport, client_transport):
        """An error reply is a delivered frame — the traffic happened."""

        def fail(envelope):
            raise ProtocolError("bad round")

        server_transport.register("fail", fail)
        host, port = server_transport.listen()
        client_transport.add_route("fail", host, port)
        with pytest.raises(ProtocolError):
            client_transport.send("a", "fail", b"xyz")
        assert client_transport.stats("a", "fail").messages == 1
        assert client_transport.failed_sends == 0


class TestLinkRules:
    # The echo endpoint's traffic is CONTROL: a rule only faults the control
    # plane when it names that kind.

    def test_drop_rule_loses_the_message(self, server_transport, client_transport):
        from repro.net import LinkConditioner, LinkRule, MessageKind

        server_transport.register("echo", lambda envelope: b"ok")
        host, port = server_transport.listen()
        client_transport.add_route("echo", host, port)
        conditioner = LinkConditioner(seed=7)
        conditioner.add_rule(
            LinkRule(action="drop", destination="echo", kind=MessageKind.CONTROL, count=1)
        )
        client_transport.link_conditioner = conditioner
        assert client_transport.send("a", "echo", b"gone") is None
        assert client_transport.failed_sends == 1
        assert conditioner.stats()["lost"] == 1
        # The rule expired: the next send goes through and is counted.
        assert client_transport.send("a", "echo", b"ok") == b"ok"
        assert client_transport.stats("a", "echo").messages == 1

    def test_kill_rule_raises_network_error(self, server_transport, client_transport):
        from repro.net import LinkConditioner, LinkRule, MessageKind

        server_transport.register("echo", lambda envelope: b"ok")
        host, port = server_transport.listen()
        client_transport.add_route("echo", host, port)
        conditioner = LinkConditioner()
        conditioner.add_rule(
            LinkRule(action="kill", destination="echo", kind=MessageKind.CONTROL)
        )
        client_transport.link_conditioner = conditioner
        with pytest.raises(NetworkError, match="link rule"):
            client_transport.send("a", "echo", b"x")
        conditioner.heal()
        assert client_transport.send("a", "echo", b"x") == b"ok"


class TestBlockingSockets:
    def test_every_concurrent_request_gets_a_handler(self, server_transport):
        """No handler pool caps concurrency: 100 handlers must all be running
        at once for any of them to pass the barrier."""
        barrier = threading.Barrier(100, timeout=5)

        def meet(envelope):
            barrier.wait()
            return b"met"

        server_transport.register("meet", meet)
        server_transport.register("echo", lambda envelope: envelope.payload)
        host, port = server_transport.listen()
        client = TcpTransport(request_timeout=30.0)
        client.update_routes({"meet": (host, port), "echo": (host, port)})
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave pool and stats updates hard
        try:
            with ThreadPoolExecutor(max_workers=100) as workers:
                replies = list(workers.map(lambda i: client.send(f"c{i}", "meet", b""), range(100)))
                # A second burst must reuse those 100 sockets: a lost pool
                # update would leak one or dial a 101st.
                echoes = list(workers.map(lambda i: client.send("a", "echo", b"%d" % i), range(1000)))
            pool = client._pools[(host, port)]
            assert len(pool._all) == 100
            assert sorted(map(id, pool._idle)) == sorted(map(id, pool._all))
        finally:
            sys.setswitchinterval(switch_interval)
            client.close()
        assert replies == [b"met"] * 100
        assert echoes == [b"%d" % i for i in range(1000)]
        assert client.total_messages() == 1100 and client.failed_sends == 0

    def test_wire_bytes_are_a_length_prefix_then_the_body(self):
        listener = socket.create_server(("127.0.0.1", 0))
        body = encode_request(Envelope(source="a", destination="raw", payload=b"ping", round_number=3))
        seen: dict = {}

        def serve():
            conn, _ = listener.accept()
            with conn:
                data = b""
                while len(data) < 4 + len(body):  # length prefix + body
                    data += conn.recv(4096)
                seen["request"] = data
                reply = encode_reply(0, b"pong")
                conn.sendall(struct.pack(">I", len(reply)) + reply)

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        client = TcpTransport(request_timeout=5.0)
        client.add_route("raw", *listener.getsockname())
        try:
            assert client.send("a", "raw", b"ping", MessageKind.CONTROL, 3) == b"pong"
        finally:
            server.join(timeout=5.0)
            client.close()
            listener.close()
        assert seen["request"] == struct.pack(">I", len(body)) + body

    def test_megabyte_frames_cross_in_both_directions(self, server_transport, client_transport):
        server_transport.register("echo", lambda envelope: envelope.payload)
        host, port = server_transport.listen()
        client_transport.add_route("echo", host, port)
        payload = bytes(range(256)) * 16384  # 4 MiB: many partial socket writes
        assert client_transport.send("a", "echo", payload) == payload
        assert client_transport.send("a", "echo", b"small") == b"small"  # stream still in sync

    def test_request_deadline_is_total_not_per_recv(self):
        """A peer that drips one byte every 0.1 s never lets a single recv
        time out; only a whole-request deadline stops it."""
        listener = socket.create_server(("127.0.0.1", 0))
        stop = threading.Event()

        def drip():
            conn, _ = listener.accept()
            with conn:
                conn.sendall(struct.pack(">I", 100))
                while not stop.wait(0.1):
                    try:
                        conn.sendall(b"x")
                    except OSError:
                        return

        dripper = threading.Thread(target=drip, daemon=True)
        dripper.start()
        client = TcpTransport(request_timeout=0.5)
        client.add_route("drip", *listener.getsockname())
        try:
            started = time.monotonic()
            with pytest.raises(TransportTimeout):
                client.send("a", "drip", b"")
            assert time.monotonic() - started < 1.5
            assert client.failed_sends == 1
        finally:
            stop.set()
            dripper.join(timeout=5.0)
            client.close()
            listener.close()

    def test_close_wakes_blocked_clients_and_joins_idle_threads(self):
        before = set(threading.enumerate())
        server = TcpTransport()
        entered, release = threading.Event(), threading.Event()

        def slow(envelope):
            entered.set()
            release.wait(5.0)
            return b"late"

        server.register("slow", slow)
        server.register("echo", lambda envelope: b"ok")
        host, port = server.listen()
        # One connection left idle on the server, one blocked in a handler.
        idle = TcpTransport(request_timeout=30.0)
        idle.add_route("echo", host, port)
        assert idle.send("a", "echo", b"") == b"ok"
        client = TcpTransport(request_timeout=30.0)
        client.add_route("slow", host, port)
        outcome: dict = {}

        def call():
            try:
                client.send("a", "slow", b"")
            except NetworkError as exc:
                outcome["error"] = exc
            outcome["at"] = time.monotonic()

        caller = threading.Thread(target=call)
        caller.start()
        try:
            assert entered.wait(5.0)
            closed_at = time.monotonic()
            server.close()
            caller.join(timeout=5.0)
            assert isinstance(outcome.get("error"), NetworkError)
            assert not isinstance(outcome["error"], TransportTimeout)
            assert outcome["at"] - closed_at < 1.0
            survivors = [
                thread
                for thread in threading.enumerate()
                if thread not in before and thread.name in ("tcp-accept", "tcp-conn")
            ]
            assert len(survivors) == 1  # the one inside the running handler
        finally:
            release.set()
            idle.close()
            client.close()
