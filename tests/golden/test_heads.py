"""Committed golden heads: the bytes seven fixed sessions produce, pinned.

Every other byte-identity test compares two paths of the *same* commit
(swarm against per-client, pool against inline, TCP against in-process).
These compare against ``heads.json``, bytes recorded by an earlier commit,
so a change that moves any wire, plaintext or ledger record of these
sessions fails here and names the entry and the round it moved in.

Each entry records SHA-256 digests:

* ``wires``: per round, the conversation wires every client built, in
  client-name order (the first two rounds of each entry);
* ``ledger``: the ledger's head hash, or, for an overlapped session whose
  threads may interleave independent records, the digest of its sorted
  record set;
* ``clients`` / ``messages``: what the users received.

Regenerate (only for a deliberate wire or ledger format change, stated in
the change's notes) with::

    PYTHONPATH=src python tests/golden/test_heads.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from repro import DeploymentLauncher, VuvuzelaConfig, VuvuzelaSystem
from repro.ledger import LedgerWriter, canonical_json, load_ledger
from repro.net import LinkRule, MessageKind
from repro.runtime import engine as round_engine
from repro.runtime.protocols import ConversationProtocol
from repro.simulation import ClientSwarm, WorkloadSpec

HEADS = Path(__file__).with_name("heads.json")
SEED = 1517
#: Rounds whose wires each entry pins.
WIRE_ROUNDS = (0, 1)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class WireTap:
    """Records every conversation wire a per-client driver builds, by round."""

    def __init__(self, monkeypatch) -> None:
        self.rounds: dict[int, dict[str, list[bytes]]] = {}
        build = ConversationProtocol.build_wires

        def tapped(protocol, clients, round_number, engine=None):
            built = build(protocol, clients, round_number, engine)
            for client, wires in zip(clients, built):
                self.rounds.setdefault(round_number, {})[client.name] = [bytes(w) for w in wires]
            return built

        monkeypatch.setattr(ConversationProtocol, "build_wires", tapped)

    def digests(self) -> dict[str, str]:
        return {
            str(round_number): sha256(
                canonical_json(
                    [[name, [w.hex() for w in wires[name]]] for name in sorted(wires)]
                )
            )
            for round_number, wires in sorted(self.rounds.items())
            if round_number in WIRE_ROUNDS
        }


def ledger_digests(path: Path) -> dict[str, str]:
    view = load_ledger(path)
    records = sorted(canonical_json([record.type, record.data]) for record in view)
    return {"head": view.head(), "records": sha256(b"\n".join(records))}


def per_client_session(driver_class, monkeypatch, tmp: Path, *, pooled: bool = False) -> dict:
    """Two paired clients and one idle one, two slots each: a queued
    message whose first round is lost on the client edge and retransmitted,
    three conversation rounds and one dialing round; ``pooled`` says the
    driver's engine must have forked."""
    # The deadline closes the TCP window alice's dropped wires never reach.
    config = replace(
        VuvuzelaConfig.small(seed=SEED), max_conversations_per_client=2, round_deadline_seconds=1.0
    )
    tap = WireTap(monkeypatch)
    path = tmp / "ledger.jsonl"
    with driver_class(config) as driver, LedgerWriter(path, fsync="never") as ledger:
        driver.attach_ledger(ledger)
        for name in ("alice", "bob", "carol"):
            driver.add_client(name)
        alice, bob, carol = (driver.client(name) for name in ("alice", "bob", "carol"))
        alice.start_conversation(bob.public_key)
        bob.start_conversation(alice.public_key)
        alice.send_message("lost once, then delivered")
        driver.add_link_rule(
            "clients",
            LinkRule(
                action="drop", source="alice", kind=MessageKind.CONVERSATION_REQUEST, count=2
            ),
            seed=3,
        )
        driver.run_conversation_round()
        bob.send_message("and back")
        driver.run_conversation_round()
        carol.dial(alice.public_key)
        driver.run_dialing_round()
        driver.run_conversation_round()
        assert alice.rounds_lost == 1
        assert bob.messages_from(alice.public_key) == [b"lost once, then delivered"]
        assert alice.messages_from(bob.public_key) == [b"and back"]
        assert [call.caller for call in alice.incoming_calls] == [carol.public_key]
        assert not pooled or driver.engine._pool is not None
        clients = driver.ledger_client_digests()
    return {
        "wires": tap.digests(),
        "ledger_head": ledger_digests(path)["head"],
        "clients": sha256(canonical_json(clients)),
    }


def abort_session(driver_class, monkeypatch, tmp: Path) -> dict:
    """Alice and bob paired, carol idle: the first conversation batch the
    entry forwards to server 0 is killed, so round 0 aborts on attempt 1 and
    resolves on attempt 2; round 1 runs clean."""
    config = VuvuzelaConfig.small(seed=SEED)
    tap = WireTap(monkeypatch)
    path = tmp / "ledger.jsonl"
    with driver_class(config) as driver, LedgerWriter(path, fsync="never") as ledger:
        driver.attach_ledger(ledger)
        for name in ("alice", "bob", "carol"):
            driver.add_client(name)
        alice, bob = driver.client("alice"), driver.client("bob")
        alice.start_conversation(bob.public_key)
        bob.start_conversation(alice.public_key)
        alice.send_message("through the abort")
        driver.add_link_rule(
            "entry",
            LinkRule(
                action="kill", source="entry", destination="server-0/conversation", count=1
            ),
            seed=5,
        )
        driver.run_conversation_round()
        bob.send_message("and back")
        driver.run_conversation_round()
        assert bob.messages_from(alice.public_key) == [b"through the abort"]
        assert alice.messages_from(bob.public_key) == [b"and back"]
        assert bob.duplicates_suppressed == 0
        clients = driver.ledger_client_digests()
    view = load_ledger(path)
    # In process the coordinator records the abort itself; over TCP it runs
    # in the entry process, and the driver's round record carries it.
    assert [
        record.data["aborted_attempts"] for record in view if record.type == "round_metrics"
    ] == [1, 0]
    if driver_class is VuvuzelaSystem:
        assert [record.data["attempt"] for record in view if record.type == "round_aborted"] == [1]
    return {
        "wires": tap.digests(),
        "ledger_head": view.head(),
        "clients": sha256(canonical_json(clients)),
    }


def swarm_session(tmp: Path, *, pooled: bool = False, driver_class=VuvuzelaSystem) -> dict:
    """A 16-user swarm in chunks of five, every paired user saying something,
    for two rounds; ``pooled`` says whether the driver's engine must fork."""
    config = VuvuzelaConfig.small(seed=SEED)
    spec = WorkloadSpec(num_users=16, conversing_fraction=0.75, dialing_fraction=0.0)
    swarm = ClientSwarm.from_spec(config, spec)
    wires: dict[str, str] = {}
    messages: dict[str, str] = {}
    path = tmp / "ledger.jsonl"
    with driver_class(config) as system, LedgerWriter(path, fsync="never") as ledger:
        system.attach_ledger(ledger)
        for round_number in WIRE_ROUNDS:
            for a, b in swarm.population.pairs:
                swarm.set_message(a, f"{round_number}: {a} to {b}".encode())
            built: list[bytes] = []
            chunks = ClientSwarm.iter_round_chunks

            def tapped(self, *args, **kwargs):
                for chunk in chunks(self, *args, **kwargs):
                    built.extend(bytes(wire) for wire in chunk.wires)
                    yield chunk

            ClientSwarm.iter_round_chunks = tapped
            try:
                report = system.run_swarm_round(swarm, chunk_size=5)
            finally:
                ClientSwarm.iter_round_chunks = chunks
            assert report.outcome.lost == 0 and len(built) == len(swarm)
            assert (system.engine._pool is not None) == pooled
            wires[str(round_number)] = sha256(b"".join(built))
            messages[str(round_number)] = sha256(
                canonical_json(sorted([n, m.hex()] for n, m in report.outcome.messages.items()))
            )
    return {"wires": wires, "messages": messages, "ledger_head": ledger_digests(path)["head"]}


def continuous_session(monkeypatch, tmp: Path, *, pooled: bool = False) -> dict:
    """Sessions that dial, accept and converse under the overlapping
    scheduler at depth 2, a dialing round every second conversation round;
    ``pooled`` says the driver's engine must have forked."""
    config = VuvuzelaConfig.small(seed=SEED)
    tap = WireTap(monkeypatch)
    path = tmp / "ledger.jsonl"
    with VuvuzelaSystem(config) as system, LedgerWriter(path, fsync="never") as ledger:
        system.attach_ledger(ledger)
        alice = system.add_session("alice", greetings=["hello from alice"])
        bob = system.add_session("bob", greetings=["hello from bob"])
        system.add_session("carol")
        alice.dial(bob.client.public_key)
        system.run_continuous(4, dialing_interval=2, pipeline_depth=2)
        alice.say("after the greetings")
        system.run_continuous(2, dialing_interval=2, pipeline_depth=2)
        assert bob.client.messages_from(alice.client.public_key) == [
            b"hello from alice",
            b"after the greetings",
        ]
        assert not pooled or system.engine._pool is not None
        clients = system.ledger_client_digests()
    return {
        "wires": tap.digests(),
        # Depth 2 may order a dialing and a conversation record either way.
        "ledger_records": ledger_digests(path)["records"],
        "clients": sha256(canonical_json(clients)),
    }


def generate(monkeypatch, tmp: Path) -> dict:
    """Every entry, computed from scratch."""
    return {
        "session": per_client_session(VuvuzelaSystem, monkeypatch, tmp / "session"),
        "swarm": swarm_session(tmp / "swarm"),
        "continuous": continuous_session(monkeypatch, tmp / "continuous"),
        "session_tcp": per_client_session(DeploymentLauncher, monkeypatch, tmp / "tcp"),
        "swarm_tcp": swarm_session(tmp / "swarm_tcp", driver_class=DeploymentLauncher),
        "abort": abort_session(VuvuzelaSystem, monkeypatch, tmp / "abort"),
        "abort_tcp": abort_session(DeploymentLauncher, monkeypatch, tmp / "abort_tcp"),
    }


def committed(entry: str) -> dict:
    return json.loads(HEADS.read_text())["entries"][entry]


@pytest.fixture
def tmp(tmp_path):
    return tmp_path


@pytest.fixture(params=["inline", "pool"])
def engine(request, monkeypatch):
    """``pool``: drivers built in the test send every curve op (client
    builds, peels, noise wraps) to a two-worker pool, and must land on the
    same committed bytes as inline."""
    if request.param == "pool":
        monkeypatch.setattr(round_engine, "POOL_CURVE_OPS", 0)
        request.getfixturevalue("two_cores")
    return request.param


def test_per_client_session_heads(engine, monkeypatch, tmp):
    session = per_client_session(VuvuzelaSystem, monkeypatch, tmp, pooled=engine == "pool")
    assert session == committed("session")


def test_per_client_session_heads_over_tcp(engine, monkeypatch, tmp):
    """Pooled, only the launcher's own engine forks; the chain servers in
    their processes keep their serial engine."""
    session = per_client_session(DeploymentLauncher, monkeypatch, tmp, pooled=engine == "pool")
    assert session == committed("session_tcp")


def test_swarm_heads(engine, tmp):
    assert swarm_session(tmp, pooled=engine == "pool") == committed("swarm")


def test_swarm_heads_over_tcp(tmp):
    """Submission batches, verdicts and collects cross a socket."""
    assert swarm_session(tmp, driver_class=DeploymentLauncher) == committed("swarm_tcp")


def test_abort_session_heads(monkeypatch, tmp):
    assert abort_session(VuvuzelaSystem, monkeypatch, tmp) == committed("abort")


def test_abort_session_heads_over_tcp(monkeypatch, tmp):
    """Blocked long-polls are answered ABORTED and resubmitted to the retry."""
    assert abort_session(DeploymentLauncher, monkeypatch, tmp) == committed("abort_tcp")


def test_continuous_session_heads(engine, monkeypatch, tmp):
    """Pooled, both scheduler threads share the one pooled engine."""
    session = continuous_session(monkeypatch, tmp, pooled=engine == "pool")
    assert session == committed("continuous")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --regenerate")
    with tempfile.TemporaryDirectory() as scratch, pytest.MonkeyPatch.context() as patch:
        for name in (
            "session", "swarm", "continuous", "tcp", "swarm_tcp", "abort", "abort_tcp"
        ):
            (Path(scratch) / name).mkdir()
        entries = generate(patch, Path(scratch))
    HEADS.write_text(
        json.dumps(
            {
                "generator": f"PYTHONPATH=src python tests/golden/{Path(__file__).name} --regenerate",
                "entries": {name: entries[name] for name in sorted(entries)},
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {HEADS}")
