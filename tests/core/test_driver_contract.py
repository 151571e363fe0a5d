"""The population and round-lifecycle contract of
:class:`~repro.core.driver.RoundDriver`, run against both deployment shapes:
the same add → park → resume → remove script leaves the same ledger trail and
the same client digests whichever transport carried it, the entry allocates
the same round numbers, and a failed round raises the same error.
"""

from __future__ import annotations

import pytest

from repro import DeploymentLauncher, VuvuzelaConfig, VuvuzelaSystem
from repro.errors import ProtocolError, ReproError
from repro.net import LinkRule
from repro.simulation import ClientSwarm, WorkloadSpec

SEED = 2112

SHAPES = {
    "in-process": VuvuzelaSystem,
    "tcp": lambda config: DeploymentLauncher(config, request_timeout=120.0),
}


class ListLedger:
    """A ledger-shaped sink that keeps ``(type, data)`` pairs in memory."""

    def __init__(self) -> None:
        self.records: list[tuple[str, dict]] = []

    def append(self, type_: str, data: dict) -> None:
        self.records.append((type_, data))


def lifecycle_script(shape: str) -> tuple[list, dict]:
    """Drive the script on ``shape``; its lifecycle records and digests."""
    ledger = ListLedger()
    config = VuvuzelaConfig.from_dict(
        {**VuvuzelaConfig.small(seed=SEED).to_dict(), "require_registration": True}
    )
    with SHAPES[shape](config) as driver:
        driver.add_client("early")  # exists before the ledger: back-filled
        driver.attach_ledger(ledger)
        alice = driver.add_session("alice")
        driver.add_session("bob")
        alice.dial(driver.client("bob").public_key)
        alice.say("before the park")
        driver.run_continuous(2, dialing_interval=2)

        driver.park_client("bob")
        assert "bob" not in driver.clients and driver.client("bob").name == "bob"
        alice.say("while bob is away")
        driver.run_conversation_round()
        driver.resume_client("bob")
        driver.run_conversation_round()
        driver.run_continuous(2, dialing_interval=0)
        driver.remove_client("early")
        driver.park_client("alice")
        driver.remove_client("alice")  # removal of a parked client
        digests = driver.ledger_client_digests()
        assert [m.body for m in driver.client("bob").received] == [
            b"before the park",
            b"while bob is away",
        ]
    # The in-process coordinator also writes its window records; over TCP it
    # lives in the entry process, which never touches the ledger.
    trail = [
        (type_, data.get("name"))
        for type_, data in ledger.records
        if not type_.startswith("window_")
    ]
    return trail, digests


def test_lifecycle_trail_and_digests_are_shape_invariant():
    local_trail, local_digests = lifecycle_script("in-process")
    tcp_trail, tcp_digests = lifecycle_script("tcp")
    assert [type_ for type_, _ in local_trail if type_.startswith("client_")] == [
        "client_added",  # early (back-fill)
        "client_added",  # alice
        "client_added",  # bob
        "client_parked",
        "client_resumed",
        "client_removed",
        "client_parked",
        "client_removed",
    ]
    assert tcp_trail == local_trail
    assert tcp_digests == local_digests
    assert sorted(local_digests) == ["bob"]


@pytest.mark.parametrize("shape", sorted(SHAPES))
class TestPopulationContract:
    def test_a_parked_name_cannot_be_added_again(self, shape):
        """Regression: adding a name that is parked used to build a second
        client under it, which a later resume silently replaced."""
        with SHAPES[shape](VuvuzelaConfig.small(seed=SEED)) as driver:
            driver.add_session("alice")
            parked = driver.client("alice")
            driver.park_client("alice")
            with pytest.raises(ProtocolError, match="already exists"):
                driver.add_client("alice")
            with pytest.raises(ProtocolError, match="already exists"):
                driver.add_session("alice")
            driver.resume_client("alice")
            assert driver.client("alice") is parked
            with pytest.raises(ProtocolError, match="already exists"):
                driver.add_client("alice")

    def test_participants_restrict_a_single_round(self, shape):
        with SHAPES[shape](VuvuzelaConfig.small(seed=SEED)) as driver:
            on_time = driver.add_client("on-time")
            driver.add_client("absent")
            result = driver.run_conversation_round([on_time])
            histogram = driver.access_histogram(result.round_number)
            accesses = (
                histogram["singles"] + 2 * histogram["pairs"] + 3 * histogram["collisions"]
            )
            assert accesses == driver.chain_noise("conversation", result.round_number) + 1

    def test_unknown_names_are_refused(self, shape):
        with SHAPES[shape](VuvuzelaConfig.small(seed=SEED)) as driver:
            for operation in (driver.park_client, driver.resume_client, driver.remove_client):
                with pytest.raises(ProtocolError, match="client named"):
                    operation("nobody")


def config_with(**overrides) -> VuvuzelaConfig:
    return VuvuzelaConfig.from_dict({**VuvuzelaConfig.small(seed=SEED).to_dict(), **overrides})


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_the_entry_allocates_the_same_rounds(shape):
    """A refused plan spends nothing, a discarded window spends its number,
    and both shapes read the entry's allocator afterwards."""
    with SHAPES[shape](VuvuzelaConfig.small(seed=SEED)) as driver:
        driver.add_client("alice")
        with pytest.raises(ProtocolError, match="'attempt'"):
            driver.force_attempts({("conversation", 0): 0})
        assert (driver.next_conversation_round, driver.next_dialing_round) == (0, 0)
        conversation = driver.protocol("conversation")
        driver.discard_scheduled_round(conversation, driver.open_scheduled_round(conversation))
        result = driver.run_conversation_round()
        assert result.round_number == 1
        assert (driver.next_conversation_round, driver.next_dialing_round) == (2, 0)


def failed_swarm_round(shape: str) -> tuple[type, str]:
    """A swarm round whose server-0 → server-1 link is dead, with no retry
    budget: the error it raises.  Healed, the next round delivers every wire."""
    config = config_with(max_round_attempts=1)
    swarm = ClientSwarm.from_spec(
        config, WorkloadSpec(num_users=8, conversing_fraction=0.5, dialing_fraction=0.0)
    )
    kill = LinkRule(
        action="kill", source="server-0/conversation", destination="server-1/conversation"
    )
    with SHAPES[shape](config) as driver:
        driver.add_link_rule(0, kill, seed=7)
        with pytest.raises(ReproError) as caught:
            driver.run_swarm_round(swarm)
        driver.heal_links()
        report = driver.run_swarm_round(swarm)
        assert report.outcome.delivered == len(swarm) and report.outcome.lost == 0
    return type(caught.value), str(caught.value)


def test_a_failed_round_raises_the_same_error_in_both_shapes():
    in_process = failed_swarm_round("in-process")
    assert failed_swarm_round("tcp") == in_process
