"""Exact noise gives no differential privacy, and the ledger says so.

A server that adds exactly μ every round makes the observed counts a
function of what users do.  A driver configured that way must not checkpoint
a finite ε, and the auditor must flag a trail whose ``session_start`` says
``exact_noise`` but whose checkpoints claim one.
"""

from __future__ import annotations

import dataclasses
import math

from repro import VuvuzelaConfig, VuvuzelaSystem
from repro.ledger import LedgerWriter, load_ledger
from repro.privacy import (
    LaplaceParams,
    PrivacyAccountant,
    audit_ledger_records,
    conversation_guarantee,
    dialing_guarantee,
)


def exact_config() -> VuvuzelaConfig:
    return dataclasses.replace(VuvuzelaConfig.small(seed=17), exact_noise=True)


def test_an_exact_noise_session_records_no_finite_epsilon(tmp_path):
    path = tmp_path / "ledger.jsonl"
    config = exact_config()
    with VuvuzelaSystem(config) as system:
        with LedgerWriter(path) as writer:
            system.attach_ledger(writer)
            alice = system.add_session("alice")
            system.add_session("bob")
            alice.dial(system.client("bob").public_key)
            alice.say("nothing here is deniable")
            system.run_continuous(3, dialing_interval=2)
        assert math.isinf(system.conversation_accountant.current_guarantee().epsilon)
        assert math.isinf(system.dialing_accountant.current_guarantee().epsilon)

    assert "Infinity" not in path.read_text()
    view = load_ledger(path)
    session = [record.data for record in view.of_type("session_start")]
    rounds = [record.data for record in view.of_type("round_metrics")]
    assert session[0]["config"]["exact_noise"] is True
    assert {data["protocol"] for data in rounds} == {"conversation", "dialing"}
    for data in rounds:
        assert data["accountant"]["epsilon"] is None
        assert data["accountant"]["delta"] == 1.0

    for protocol, guarantee, noise in (
        ("conversation", conversation_guarantee, config.conversation_noise),
        ("dialing", dialing_guarantee, config.dialing_noise),
    ):
        report = audit_ledger_records(
            session + rounds,
            protocol=protocol,
            per_round=guarantee(noise),
            target_epsilon=config.target_epsilon,
            target_delta=config.target_delta,
            composition_d=config.composition_d,
        )
        assert report.ok, report.divergences
        assert report.rounds_audited == sum(data["protocol"] == protocol for data in rounds)
        assert not report.within_target


def test_the_audit_flags_a_finite_epsilon_under_exact_noise():
    """A faithful Laplace trail, led by a ``session_start`` that says exact."""
    per_round = conversation_guarantee(LaplaceParams(mu=300.0, b=13.8))
    accountant = PrivacyAccountant(per_round=per_round, target_epsilon=5.0, target_delta=1e-4)
    rounds = []
    for round_number in range(3):
        guarantee = accountant.spend(1)
        checkpoint = {"rounds_used": round_number + 1, "epsilon": guarantee.epsilon,
                      "delta": guarantee.delta}
        rounds.append({"protocol": "conversation", "round": round_number, "accountant": checkpoint})

    def audit(exact: bool):
        return audit_ledger_records(
            [{"shape": "test", "config": {"exact_noise": exact}}, *rounds],
            protocol="conversation",
            per_round=per_round,
            target_epsilon=5.0,
            target_delta=1e-4,
        )

    assert audit(False).ok
    report = audit(True)
    assert not report.ok
    flagged = [d for d in report.divergences if "recorded epsilon=" in d and "gives inf" in d]
    assert len(flagged) == 3
