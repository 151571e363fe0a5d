"""Replay-vs-live identity: sessions rebuilt from the ledger alone.

The acceptance bar for the round ledger (ROADMAP item 4): a recorded chaos
session — aborted attempts, SIGKILLed servers, client churn and all — must
replay bit-for-bit from the ledger file, in both deployment shapes.  "Bit
for bit" here is every shape-invariant observable: delivered plaintext
digests, noise totals, access histograms, dialing bucket sizes, attempt
trails, submission-window accounting and the accountant's (ε, δ) trail —
plus, for in-process recordings, the SHA-256 of the raw submission wires.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import DeploymentLauncher, VuvuzelaConfig, VuvuzelaSystem
from repro.adversary import run_intersection_attack
from repro.errors import LedgerError
from repro.ledger import LedgerWriter, load_ledger, replay_ledger
from repro.net import LinkRule
from repro.runtime import Campaign
from repro.runtime import campaign as campaign_module

SEED = 4242


def scenario_config(**overrides) -> VuvuzelaConfig:
    base = VuvuzelaConfig.small(seed=SEED)
    fields = base.to_dict()
    fields.update(overrides)
    return VuvuzelaConfig.from_dict(fields)


class TestInProcessReplay:
    def test_aborted_and_retried_session_replays_bit_for_bit(self, tmp_path):
        """Satellite: replay-vs-live identity for a session with an ABORTED
        attempt — the retried round's second attempt must reproduce its exact
        bytes from the ledger's attempt counter alone."""
        path = tmp_path / "ledger.jsonl"
        with VuvuzelaSystem(scenario_config()) as system:
            with LedgerWriter(path) as writer:
                system.attach_ledger(writer)
                alice = system.add_session("alice")
                system.add_session("bob")
                alice.dial(system.client("bob").public_key)
                alice.say("recorded through a crash")
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
                schedule = system.run_continuous(3, dialing_interval=2)
            assert system.coordinator.rounds_aborted == 1
            live_digests = system.ledger_client_digests()

        view = load_ledger(path)
        assert len(view.of_type("round_aborted")) == 1
        aborted = [
            record.data
            for record in view.of_type("round_metrics")
            if record.data["attempts"] > 1
        ]
        assert len(aborted) == 1 and aborted[0]["aborted_attempts"] == 1

        report = replay_ledger(path)
        assert report.identical, report.summary()
        assert len(report.rounds) == len(schedule.conversation) + len(schedule.dialing)
        # The wire-level check actually bound: every recorded window_close
        # digest (including the retried attempt's) was matched.
        assert view.of_type("window_close")
        recorded = view.of_type("schedule_done")[-1].data["clients"]
        assert recorded == live_digests

    def test_blocked_client_session_replays_bit_for_bit(self, tmp_path):
        """The §2.1 attack knocks a client offline with ``"clients"`` link
        rules, so a session that blocks alice for one round is recorded —
        the rules, the heal and every lost message — and replays."""
        path = tmp_path / "ledger.jsonl"
        with VuvuzelaSystem(scenario_config()) as system:
            with LedgerWriter(path) as writer:
                system.attach_ledger(writer)
                alice = system.add_session("alice")
                system.add_session("bob")
                alice.dial(system.client("bob").public_key)
                alice.say("sent around a blocked round")
                system.run_continuous(2, dialing_interval=2)
                result = run_intersection_attack(system, "alice", rounds_per_phase=1)
                system.run_continuous(2, dialing_interval=2)
            assert system.link_stats()["lost"] >= 1

        assert len(result.offline_pair_counts) == 1
        view = load_ledger(path)
        assert len(view.of_type("link_rule_added")) == 2
        assert [record.data for record in view.of_type("links_healed")] == [
            {"target": "clients"}
        ]
        assert {record.data["source"] for record in view.of_type("link_lost")} == {"alice"}
        report = replay_ledger(path)
        assert report.identical, report.summary()

    def test_replay_requires_a_session_start(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with LedgerWriter(path) as writer:
            writer.append("round_metrics", {"protocol": "conversation", "round": 0})
        with pytest.raises(LedgerError, match="session_start"):
            replay_ledger(path)

    def test_replay_refuses_a_crashed_schedule(self, tmp_path):
        """A ledger whose schedule never completed records a crash, not a
        session — replay reconstructs completed plans only."""
        path = tmp_path / "ledger.jsonl"
        with LedgerWriter(path) as writer:
            writer.append(
                "session_start",
                {"shape": "in-process", "config": scenario_config().to_dict()},
            )
            writer.append(
                "schedule",
                {"conversation_rounds": 3, "dialing_interval": 2, "pipeline_depth": 1},
            )
            writer.append("schedule_failed", {"error": "deployment crashed"})
        with pytest.raises(LedgerError, match="crashed mid-schedule"):
            replay_ledger(path)


class TestTcpReplay:
    def test_sigkill_mid_round_session_replays_bit_for_bit(self, tmp_path):
        """Acceptance bar: a TCP chaos session with a mid-round SIGKILL and
        restart replays bit-for-bit — from the ledger alone, in-process."""
        config = scenario_config(round_deadline_seconds=10.0, max_round_attempts=8)
        path = tmp_path / "ledger.jsonl"
        writer = LedgerWriter(path)
        with DeploymentLauncher(config) as deployment:
            deployment.attach_ledger(writer)
            alice = deployment.add_session("alice", auto_accept=True)
            bob = deployment.add_session("bob", auto_accept=True)
            alice.dial(bob.client.public_key)
            alice.say("hello over tcp")
            bob.say("hi back over tcp")
            # A dialing round connects them; a conversation round warms every
            # inter-server connection (the crash must invalidate pools too).
            deployment.run_continuous(2, dialing_interval=2)

            alice.say("survives the crash")
            assert not deployment.kill_server(1).alive

            results: list = []
            aborted_before = deployment.aborted_total()

            def drive() -> None:
                results.append(deployment.scheduler.run_round("conversation"))

            driver = threading.Thread(target=drive)
            driver.start()
            deadline = time.monotonic() + 30.0
            while deployment.aborted_total() <= aborted_before:
                assert time.monotonic() < deadline, "the round never aborted"
                time.sleep(0.05)
            deployment.restart_server(1)
            assert deployment.wait_alive(1, timeout=30.0)
            driver.join(timeout=60.0)
            assert not driver.is_alive()
            assert results[0].aborts >= 1

            # One more clean round after recovery, then the crash message
            # must have landed exactly once.
            deployment.scheduler.run_round("conversation")
            assert b"survives the crash" in [m.body for m in bob.client.received]
        writer.close()

        view = load_ledger(path)
        assert [r.data["name"] for r in view.of_type("kill_server")] == ["server-1"]
        assert [r.data["name"] for r in view.of_type("restart_server")] == ["server-1"]
        killed_round = [
            record.data
            for record in view.of_type("round_metrics")
            if record.data["attempts"] > 1
        ]
        assert killed_round and killed_round[0]["protocol"] == "conversation"

        report = replay_ledger(path)
        assert report.identical, report.summary()
        assert len(report.rounds) == len(view.of_type("round_metrics")) == 5


def clear_weather_campaign(seed: int, path) -> Campaign:
    """Chain faults and churn only: no link loss, no flood."""
    return Campaign(
        VuvuzelaConfig.small(seed=seed),
        seed=seed,
        ledger_path=path,
        rounds_per_segment=2,
        loss=0.0,
        flood_attackers=0,
    )


class TestCampaignReplay:
    def test_short_campaign_is_clean_and_replays_identically(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        report = clear_weather_campaign(5, path).run(3)
        assert report.ok, report.summary()
        assert report.segments_run == 3
        assert report.conversation_rounds == 6
        assert report.link_losses == 0 and report.flood_points == []

        replay = replay_ledger(path)
        assert replay.identical, replay.summary()

    def test_same_seed_produces_the_same_ledger_head(self, tmp_path):
        """The campaign's whole pitch: same seed ⇒ same kills ⇒ same ledger.
        The chained head hash commits to every recorded byte at once."""
        heads = []
        for run in range(2):
            path = tmp_path / f"campaign-{run}.jsonl"
            clear_weather_campaign(9, path).run(2)
            heads.append(load_ledger(path).head())
        assert heads[0] == heads[1]

    @pytest.mark.parametrize("failing", [1, 2])
    def test_violation_emits_a_replayable_ledger_slice(self, tmp_path, monkeypatch, failing):
        """On invariant violations the campaign leaves a minimal,
        hash-chain-valid slice that replays on its own: cut once per
        stopping segment, ending at its last violation record, so it holds
        the evidence for every violation of that segment."""
        path = tmp_path / "campaign.jsonl"
        # Fail invariants artificially after the first segment: the slice
        # machinery (flush, prefix slice, report wiring) is what's under test.
        real_check = campaign_module.check_invariants
        synthetic = [f"synthetic-{index}" for index in range(failing)]

        def failing_check(driver, ledger_path, segment):
            forced = [(name, f"forced failure in segment {segment}") for name in synthetic]
            return real_check(driver, ledger_path, segment) + forced

        slices = []
        real_slice = campaign_module.slice_ledger

        def counting_slice(*args, **kwargs):
            slices.append(kwargs["upto_seq"])
            return real_slice(*args, **kwargs)

        monkeypatch.setattr(campaign_module, "check_invariants", failing_check)
        monkeypatch.setattr(campaign_module, "slice_ledger", counting_slice)
        report = clear_weather_campaign(5, path).run(3)
        assert not report.ok
        assert report.segments_run == 1  # stopped at the first violation
        assert [violation.invariant for violation in report.violations] == synthetic
        slice_path = report.violations[0].slice_path
        assert slice_path is not None
        assert {violation.slice_path for violation in report.violations} == {slice_path}

        sliced = load_ledger(slice_path)
        recorded = sliced.of_type("invariant_violation")
        assert [record.data["invariant"] for record in recorded] == synthetic
        assert sliced.records[-1] == recorded[-1]
        assert slices == [recorded[-1].seq]  # one slice, cut at the last record
        replay = replay_ledger(sliced)
        assert replay.identical, replay.summary()
