"""The one ``control(role, command)`` seam, in both deployment shapes.

Every server observable — chain noise, the access histogram, the invitation
store and the entry's counters — has one implementation on
:class:`~repro.core.driver.RoundDriver`, reading the server roles'
``_dispatch`` tables through ``control``: directly in process, over an RPC
in the TCP deployment.  The same seeded session must therefore read the
same values in both shapes, and in process a read must never touch the
network.
"""

from __future__ import annotations

import pytest

from repro import DeploymentLauncher, VuvuzelaConfig, VuvuzelaSystem
from repro.errors import ReproError
from repro.net import LinkRule

SEED = 4711

SHAPES = {
    "in-process": VuvuzelaSystem,
    "tcp": lambda config: DeploymentLauncher(config, request_timeout=120.0),
}


def config(**overrides) -> VuvuzelaConfig:
    fields = VuvuzelaConfig.small(seed=SEED).to_dict()
    fields.update(overrides)
    return VuvuzelaConfig.from_dict(fields)


def kill_once() -> LinkRule:
    """The first batch chain server 0 forwards to server 1 dies."""
    return LinkRule(
        action="kill",
        source="server-0/conversation",
        destination="server-1/conversation",
        count=1,
    )


def observe(driver, conversation_rounds: list[int], dialing_round: int) -> dict:
    store = driver.invitation_store(dialing_round).snapshot()
    # TCP clients submit concurrently, so where a real invitation lands
    # among the shuffled noise follows arrival order: compare each dead
    # drop's contents, not their order.
    store["buckets"] = {bucket: sorted(items) for bucket, items in store["buckets"].items()}
    return {
        "noise": [driver.chain_noise("conversation", r) for r in conversation_rounds]
        + [driver.chain_noise("dialing", dialing_round)],
        "histograms": [driver.access_histogram(r) for r in conversation_rounds],
        "store": store,
        "refused": driver.refused_total(),
        "late": driver.late_total(),
        "aborted": driver.aborted_total(),
        "buffered": driver.buffered_total(),
        "parked": driver.resubmission_parked(),
    }


def session(shape: str) -> dict:
    """Dial, then two conversation rounds — the second aborted once by a
    killed hop — with one client whose account the entry revoked."""
    with SHAPES[shape](config(require_registration=True, round_deadline_seconds=10.0)) as driver:
        for name in ("alice", "bob", "carol"):
            driver.add_client(name)
        driver.control("entry", {"cmd": "revoke", "name": "carol"})
        alice, bob = driver.client("alice"), driver.client("bob")
        alice.dial(bob.public_key)
        dialing = driver.run_dialing_round()
        alice.start_conversation(bob.public_key)
        bob.start_conversation(alice.public_key)
        alice.send_message("one seam")
        first = driver.run_conversation_round()
        driver.add_link_rule(0, kill_once(), seed=3)
        second = driver.run_conversation_round()
        assert bob.messages_from(alice.public_key) == [b"one seam"]
        if shape == "in-process":
            sent = driver.network.total_messages()
        observed = observe(driver, [first.round_number, second.round_number],
                           dialing.round_number)
        if shape == "in-process":
            assert driver.network.total_messages() == sent, "a control read used the network"
        return observed


def test_a_seeded_session_reads_the_same_observables_in_both_shapes():
    local = session("in-process")
    networked = session("tcp")
    assert networked == local
    assert local["refused"] == 3  # carol, once per round
    assert local["aborted"] == 1
    assert local["buffered"] == 0 and local["parked"] == {}
    assert all(noise > 0 for noise in local["noise"])


def failed_for_good(shape: str) -> dict:
    """A round whose only attempt loses its chain hop fails for good: its
    accepted submissions are parked at the entry."""
    with SHAPES[shape](config(max_round_attempts=1, round_deadline_seconds=10.0)) as driver:
        for name in ("alice", "bob"):
            driver.add_client(name)
        driver.add_link_rule(
            0,
            LinkRule(
                action="drop",
                source="server-0/conversation",
                destination="server-1/conversation",
                count=1,
            ),
            seed=3,
        )
        with pytest.raises(ReproError):
            driver.run_conversation_round()
        return driver.resubmission_parked()


def test_a_round_failed_for_good_parks_the_same_refunds_in_both_shapes():
    local = failed_for_good("in-process")
    assert local == failed_for_good("tcp")
    assert local == {"conversation-request/0": 2}


def test_an_unseeded_system_delivers():
    """An unseeded config draws a random root: the hosted servers must take
    the driver's root rng and key pairs, or clients encrypt to keys no
    server holds."""
    with VuvuzelaSystem(VuvuzelaConfig.small(seed=None)) as system:
        alice, bob = system.add_client("alice"), system.add_client("bob")
        alice.dial(bob.public_key)
        system.run_dialing_round()
        assert [call.caller for call in bob.incoming_calls] == [alice.public_key]
        alice.start_conversation(bob.public_key)
        bob.start_conversation(alice.public_key)
        alice.send_message("no seed needed")
        system.run_conversation_round()
        assert bob.messages_from(alice.public_key) == [b"no seed needed"]
