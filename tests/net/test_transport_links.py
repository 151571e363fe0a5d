"""Tests for the in-process transport, blocking by link rule, and link models."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, NetworkError
from repro.net import (
    CLIENT_DSL_LINK,
    Envelope,
    HostSpec,
    LinkConditioner,
    LinkRule,
    LinkSpec,
    MessageKind,
    Network,
    Observation,
    PAPER_DATACENTER_LINK,
    PAPER_SERVER,
)


def echo_handler(envelope: Envelope) -> bytes:
    return b"echo:" + envelope.payload


def _network_blocking(name: str) -> Network:
    """An echo network whose link rules drop every message to or from
    ``name`` — CONTROL named, since a wildcard kind never matches it."""
    net = Network(link_conditioner=LinkConditioner())
    net.register("server-0", echo_handler)
    for match in ({"source": name}, {"destination": name}):
        net.link_conditioner.add_rule(LinkRule("drop", kind=MessageKind.CONTROL, **match))
    return net


class TestNetwork:
    def test_send_and_reply(self):
        net = Network()
        net.register("server-0", echo_handler)
        reply = net.send("alice", "server-0", b"hello")
        assert reply == b"echo:hello"

    def test_unknown_endpoint_raises(self):
        net = Network()
        with pytest.raises(NetworkError):
            net.send("alice", "nobody", b"hello")

    def test_empty_endpoint_name_rejected(self):
        net = Network()
        with pytest.raises(NetworkError):
            net.register("", echo_handler)

    def test_unregister_and_reregister(self):
        net = Network()
        net.register("server-0", echo_handler)
        net.unregister("server-0")
        assert "server-0" not in net.endpoints()
        net.register("server-0", lambda e: b"new")
        assert net.send("alice", "server-0", b"x") == b"new"

    def test_observers_see_metadata_not_payload(self):
        net = Network()
        net.register("server-0", echo_handler)
        seen: list[Observation] = []
        net.add_observer(seen.append)
        net.send("alice", "server-0", b"secret-payload", MessageKind.CONVERSATION_REQUEST, 7)
        assert len(seen) == 1
        obs = seen[0]
        assert obs.source == "alice"
        assert obs.destination == "server-0"
        assert obs.size == len(b"secret-payload")
        assert obs.round_number == 7
        assert obs.kind is MessageKind.CONVERSATION_REQUEST
        assert not hasattr(obs, "payload")

    def test_traffic_stats_accumulate(self):
        net = Network()
        net.register("server-0", echo_handler)
        net.send("alice", "server-0", b"12345")
        net.send("alice", "server-0", b"123")
        stats = net.stats("alice", "server-0")
        assert stats.messages == 2
        assert stats.bytes == 8
        assert net.total_bytes() == 8
        assert net.total_messages() == 2

    def test_drop_rules_block_one_endpoint(self):
        net = _network_blocking("alice")
        assert net.send("alice", "server-0", b"hi") is None
        assert net.send("bob", "server-0", b"hi") == b"echo:hi"
        assert net.link_conditioner.stats()["lost"] == 1

    def test_healed_rules_restore_traffic(self):
        net = _network_blocking("alice")
        net.link_conditioner.heal()
        assert net.send("alice", "server-0", b"hi") == b"echo:hi"

    def test_observers_fire_even_for_dropped_messages(self):
        net = _network_blocking("alice")
        seen = []
        net.add_observer(seen.append)
        assert net.send("alice", "server-0", b"hi") is None
        assert len(seen) == 1


class TestLinkAndHostSpecs:
    def test_transfer_time_includes_latency_and_serialisation(self):
        link = LinkSpec(bandwidth_bytes_per_sec=1000, latency_seconds=0.5)
        assert link.transfer_time(2000) == pytest.approx(2.5)
        assert link.transfer_time(0) == pytest.approx(0.5)

    def test_invalid_link_parameters(self):
        with pytest.raises(ConfigurationError):
            LinkSpec(bandwidth_bytes_per_sec=0)
        with pytest.raises(ConfigurationError):
            LinkSpec(bandwidth_bytes_per_sec=100, latency_seconds=-1)
        with pytest.raises(ConfigurationError):
            LinkSpec(bandwidth_bytes_per_sec=100).transfer_time(-1)

    def test_paper_server_crypto_time(self):
        # 3.2M DH ops at 340K ops/sec is roughly 9.4 seconds of pure crypto.
        assert PAPER_SERVER.crypto_time(3.2e6) == pytest.approx(9.41, rel=0.01)
        assert PAPER_SERVER.round_processing_time(3.2e6) == pytest.approx(2 * 9.41, rel=0.01)

    def test_invalid_host_parameters(self):
        with pytest.raises(ConfigurationError):
            HostSpec(dh_ops_per_sec=0)
        with pytest.raises(ConfigurationError):
            HostSpec(dh_ops_per_sec=100, cores=0)
        with pytest.raises(ConfigurationError):
            HostSpec(dh_ops_per_sec=100, protocol_overhead_factor=0.5)
        with pytest.raises(ConfigurationError):
            HostSpec(dh_ops_per_sec=100).crypto_time(-1)

    def test_paper_constants_are_sane(self):
        assert PAPER_DATACENTER_LINK.bandwidth_bytes_per_sec == pytest.approx(1.25e9)
        assert CLIENT_DSL_LINK.bandwidth_bytes_per_sec < PAPER_DATACENTER_LINK.bandwidth_bytes_per_sec
