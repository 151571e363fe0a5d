"""Hostile JSON at the link-rule control plane.

A link rule reaches a server process as JSON (``add-link-rule``) and a
replay as a ledger record, so :meth:`LinkRule.from_dict` and
:func:`apply_link_command` are a byte boundary.  The strategies are
structure-aware: a plausible rule, the same with one field (or a misspelt
key) set to an arbitrary JSON value, or any JSON value at all.  Every input must
become a rule whose JSON form round-trips — and is strict JSON — or raise
:class:`ProtocolError`; never any other exception.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError, ProtocolError
from repro.net import Envelope, LinkRule, MessageKind, Network, apply_link_command
from repro.net.faults import ACTIONS

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)
SECONDS = st.floats(min_value=0.0, max_value=5.0)
#: A plausible value for each field of the JSON form.
FIELDS = {
    "action": st.sampled_from(ACTIONS),
    "source": st.sampled_from([None, "alice", "entry"]),
    "destination": st.sampled_from([None, "entry", "server-1/conversation"]),
    "kind": st.none() | st.sampled_from([kind.value for kind in MessageKind]),
    "probability": st.floats(min_value=0.0, max_value=1.0),
    "count": st.none() | st.integers(min_value=1, max_value=2**70),
    "delay_seconds": SECONDS,
    "jitter_seconds": SECONDS,
    "spec": st.none()
    | st.fixed_dictionaries(
        {"bandwidth_bytes_per_sec": st.floats(min_value=1.0, max_value=1e9)},
        optional={"latency_seconds": SECONDS},
    ),
}
SPEC_KEYS = ("spec.bandwidth_bytes_per_sec", "spec.latency_seconds")
PLAUSIBLE = st.fixed_dictionaries(
    {"action": FIELDS["action"]}, optional={k: v for k, v in FIELDS.items() if k != "action"}
)


@st.composite
def one_hostile_field(draw):
    """A plausible rule with one field — maybe a misspelt or a nested
    one — replaced by an arbitrary JSON value."""
    data = draw(PLAUSIBLE)
    value = draw(JSON)
    key = draw(st.sampled_from([*FIELDS, "destinaton", *SPEC_KEYS]))
    if key.startswith("spec."):
        spec = data["spec"] = dict(data.get("spec") or {"bandwidth_bytes_per_sec": 1.0})
        spec[key.removeprefix("spec.")] = value
    else:
        data[key] = value
    return data


RULES = PLAUSIBLE | one_hostile_field() | JSON
SEEDS = st.integers(min_value=-(2**130), max_value=2**130) | JSON


def _assert_round_trips(rule: LinkRule) -> None:
    # A rule that can match: each endpoint is a name or the wildcard, and
    # its budget is a whole number of messages.
    assert all(e is None or (isinstance(e, str) and e) for e in (rule.source, rule.destination))
    assert rule.count is None or type(rule.count) is int
    data = rule.to_dict()
    assert LinkRule.from_dict(data) == rule
    assert LinkRule.from_dict(data).to_dict() == data
    assert json.loads(json.dumps(data, allow_nan=False)) == data


@settings(max_examples=300, deadline=None)
@given(RULES)
def test_from_dict_builds_a_round_tripping_rule_or_refuses(data):
    try:
        rule = LinkRule.from_dict(data)
    except ProtocolError:
        return
    _assert_round_trips(rule)


@settings(max_examples=200, deadline=None)
@given(RULES, SEEDS)
def test_add_link_rule_installs_a_working_rule_or_refuses(data, seed):
    network = Network()
    try:
        reply = apply_link_command(network, {"cmd": "add-link-rule", "rule": data, "seed": seed})
    except ProtocolError:
        assert network.link_conditioner is None  # a refused command installs nothing
        return
    assert reply == {"ok": True, "rules": 1}
    (rule,) = network.link_conditioner.active_rules()
    assert rule == LinkRule.from_dict(data)
    _assert_round_trips(rule)
    # The installed rule decides a message it matches without a surprise:
    # a probability draw forks the seed's rng, and only a kill raises.
    envelope = Envelope(
        source=rule.source or "alice",
        destination=rule.destination or "entry",
        payload=b"wire",
        kind=rule.kind or MessageKind.CONVERSATION_REQUEST,
        round_number=3,
    )
    try:
        network.link_conditioner.decide(envelope)
    except NetworkError:
        assert rule.action == "kill"
