"""Deterministic link rules for both transports: faults and WAN weather.

The paper tests two kinds of bad network: availability (§6 — any server can
fail; the system aborts the round and runs it again) and WAN conditions (§8 —
10 Gb/s datacenter links between servers, DSL/3G clients).  Both are one
concept here.  A :class:`LinkRule` matches ``(source, destination, kind)``
and *affects* a matching message with some probability: the message is
silently lost (``drop``), its send fails with :class:`NetworkError` the way a
crashed peer looks over TCP (``kill``), or it is stalled by a fixed delay, a
jitter draw and a :class:`~repro.net.links.LinkSpec` transfer (``delay``).
A rule may be bounded (``count=N`` affects the first N matching messages and
then expires), the standard way to model a transient failure: the first
batch on a link dies, the retry goes through.

One :class:`LinkConditioner` per transport applies the rules — the same
scenario runs against the in-process :class:`~repro.net.transport.Network`
and, through the server processes' ``add-link-rule`` control command
(:func:`apply_link_command`), against a live multi-process
:class:`~repro.net.tcp.TcpTransport` deployment.  Every draw is a **pure
function of the message's identity**: ``(seed, source, destination, kind,
round, payload digest)`` keys a fresh
:class:`~repro.crypto.rng.DeterministicRandom` fork per message, so the same
wire on the same link in the same round is affected — or not — identically
in the in-process and TCP shapes, across idempotent resubmissions, under an
overlapped scheduler, and under ledger replay that skips aborted attempts.
``count`` is the one piece of per-rule state; it stays deterministic because
matching traffic on one chain link is driven in round order at any pipeline
depth.
"""

from __future__ import annotations

import hashlib
import math
import re
import threading
import time
from dataclasses import dataclass, field, replace

from .links import LinkSpec, json_number
from .messages import Envelope, MessageKind
from ..crypto.rng import DeterministicRandom
from ..errors import ConfigurationError, NetworkError, ProtocolError

#: What an affected message suffers.
DELAY = "delay"
DROP = "drop"
KILL = "kill"
ACTIONS = (DELAY, DROP, KILL)

#: The rule target that is not a server process: the client access edge.
CLIENTS = "clients"

#: The keys of a rule's JSON form; ``action`` is the one without a default.
_JSON_FIELDS = frozenset(
    {
        "action", "source", "destination", "kind", "probability", "count",
        "delay_seconds", "jitter_seconds", "spec",
    }
)

_ZERO_TALLY = {"conditioned": 0, "lost": 0, "killed": 0, "held": 0, "hold_seconds_total": 0.0}


def link_target(target: str | int) -> str:
    """Normalize a driver target — ``"clients"``, ``"entry"``, a chain index
    or ``"server-N"`` — to the tag rules and ledger records carry."""
    if target in (CLIENTS, "entry"):
        return str(target)
    if isinstance(target, int) and not isinstance(target, bool) and target >= 0:
        return f"server-{target}"
    if isinstance(target, str) and re.fullmatch(r"server-\d+", target):
        return target
    raise ProtocolError(f"unknown link rule target {target!r}")


@dataclass
class LinkRule:
    """One way a link misbehaves, for the messages it matches.

    ``(source, destination, kind)`` select messages with ``None`` as a
    wildcard — but a wildcard ``kind`` never matches CONTROL: liveness probes
    and round RPCs stalled or lost by accident would wedge a deployment, not
    degrade it, so faulting the control plane requires naming it.  A matching
    message is affected with ``probability``; ``action`` says how:

    * ``delay`` — stalled by ``delay_seconds``, a uniform draw in
      ``[0, jitter_seconds)`` and ``spec``'s queueing + serialisation +
      propagation (the deployment simulator's link model);
    * ``drop`` — silently lost: the sender sees the transport's lost-message
      signal and the client retransmits (§3.1);
    * ``kill`` — the send raises :class:`NetworkError`: the link is down.

    ``count`` caps how many messages the rule affects (``None``: no cap).
    An endpoint is a non-empty name and ``count`` a true integer: a rule
    that could never match, or a truncated budget, is refused, not kept.
    """

    action: str
    source: str | None = None
    destination: str | None = None
    kind: MessageKind | None = None
    probability: float = 1.0
    count: int | None = None
    delay_seconds: float = 0.0
    jitter_seconds: float = 0.0
    spec: LinkSpec | None = None
    #: Messages this rule has affected so far (engine state, not JSON form).
    applied: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ProtocolError(f"unknown link rule action {self.action!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ProtocolError("a link rule's probability must be in [0, 1]")
        for endpoint in (self.source, self.destination):
            if endpoint is not None and not (isinstance(endpoint, str) and endpoint):
                raise ProtocolError(f"a link rule endpoint must be a name, not {endpoint!r}")
        if self.count is not None and (
            isinstance(self.count, bool) or not isinstance(self.count, int) or self.count < 1
        ):
            raise ProtocolError(f"a bounded link rule needs an integer count >= 1: {self.count!r}")
        if not (0.0 <= self.delay_seconds < math.inf and 0.0 <= self.jitter_seconds < math.inf):
            raise ProtocolError("link rule delays must be finite and non-negative")
        if self.action != DELAY and (self.delay_seconds or self.jitter_seconds or self.spec):
            raise ProtocolError(f"a {self.action} rule loses its messages; it cannot stall them")

    @property
    def expired(self) -> bool:
        return self.count is not None and self.applied >= self.count

    def matches(self, envelope: Envelope) -> bool:
        if self.expired:
            return False
        if self.kind is None:
            if envelope.kind is MessageKind.CONTROL:
                return False
        elif envelope.kind is not self.kind:
            return False
        if self.source is not None and envelope.source != self.source:
            return False
        return self.destination is None or envelope.destination == self.destination

    # The control-plane and ledger wire form.

    def to_dict(self) -> dict:
        return {
            "action": self.action,
            "source": self.source,
            "destination": self.destination,
            "kind": self.kind.value if self.kind is not None else None,
            "probability": self.probability,
            "count": self.count,
            "delay_seconds": self.delay_seconds,
            "jitter_seconds": self.jitter_seconds,
            "spec": self.spec.to_dict() if self.spec is not None else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LinkRule":
        """Parse the JSON form.  Anything malformed — an unknown key, kind or
        action, a missing action, an endpoint that is not a name, a count
        that is not an integer, a boolean or string where a number belongs,
        an out-of-range number — is a :class:`ProtocolError`: a misspelt
        field must never widen a rule into a wildcard, nor narrow it into one
        that matches nothing."""
        if not isinstance(data, dict):
            raise ProtocolError(f"a link rule must be a JSON object, not {data!r}")
        unknown = set(data) - _JSON_FIELDS
        if unknown:
            raise ProtocolError(f"unknown link rule field(s) {sorted(unknown)}")
        if "action" not in data:
            raise ProtocolError("a link rule needs an action")
        kind, spec = data.get("kind"), data.get("spec")
        try:
            return cls(
                action=str(data["action"]),
                source=data.get("source"),
                destination=data.get("destination"),
                kind=MessageKind(kind) if kind is not None else None,
                probability=json_number(data.get("probability", 1.0)),
                count=data.get("count"),
                delay_seconds=json_number(data.get("delay_seconds", 0.0)),
                jitter_seconds=json_number(data.get("jitter_seconds", 0.0)),
                spec=LinkSpec.from_dict(spec) if spec is not None else None,
            )
        except (ValueError, KeyError, ConfigurationError) as exc:
            raise ProtocolError(f"malformed link rule {data!r}: {exc}") from None


class LinkConditioner:
    """Seeded, thread-safe link-rule engine shared by both transports.

    Rules apply in insertion order.  Each matching rule draws whether it
    affects the message; the stalls of affected ``delay`` rules add up, and
    the first rule that drops or kills the message ends the walk.  Draws are
    **hash-keyed**, not streamed: a message's draws come from one fresh rng
    forked at ``link/{source}->{destination}/{kind}/{round}/{payload
    digest}`` and are consumed in rule order — a probability draw for each
    matching rule with probability below 1, then a jitter draw for each
    affected rule with jitter — so two matching rules never share a draw, and
    a decision depends only on the message's identity and the rule table,
    never on how many other messages the engine has seen.

    Bandwidth caps are modelled per concrete link with a busy-until horizon:
    concurrent transfers on one link queue behind each other's serialisation
    time, then each waits its own propagation delay.  Timing shapes wall
    clocks only, never protocol bytes, so a replaying conditioner runs with
    ``realtime=False``: it makes the *identical* draws without sleeping.

    Rules are tagged with the driver target they were installed for, so one
    network-wide engine in-process can heal and count them per target.
    """

    def __init__(self, seed: int = 0, *, realtime: bool = True) -> None:
        self.seed = seed
        self.realtime = realtime
        self._lock = threading.Lock()
        self._rules: list[tuple[str, LinkRule]] = []
        #: Per concrete link: the monotonic instant its capacity frees up.
        self._busy_until: dict[tuple[str, str], float] = {}
        #: Per target: matching messages seen / lost / killed / stalled.
        self._tallies: dict[str, dict] = {}
        #: Optional round ledger: rule installs, heals and every lost or
        #: killed message are recorded so a replay reproduces the conditions.
        self.ledger = None

    # ------------------------------------------------------------ rule editing

    def add_rule(self, rule: LinkRule, target: str = CLIENTS) -> LinkRule:
        """Install a fresh copy of ``rule`` (its own ``count`` budget) and
        return it."""
        rule = replace(rule, applied=0)
        with self._lock:
            self._rules.append((target, rule))
        if self.ledger is not None:
            self.ledger.append(
                "link_rule_added", {"target": target, "rule": rule.to_dict(), "seed": self.seed}
            )
        return rule

    def heal(self, target: str | None = None) -> None:
        """Remove ``target``'s rules, or every rule."""
        with self._lock:
            kept = [(tag, rule) for tag, rule in self._rules if target not in (None, tag)]
            healed = len(kept) < len(self._rules)
            self._rules = kept
        if healed and self.ledger is not None:
            self.ledger.append("links_healed", {"target": target})

    def active_rules(self, target: str | None = None) -> list[LinkRule]:
        with self._lock:
            return [
                rule for tag, rule in self._rules if target in (None, tag) and not rule.expired
            ]

    # -------------------------------------------------------------- decisions

    def _message_rng(self, envelope: Envelope) -> DeterministicRandom:
        digest = hashlib.sha256(envelope.payload).hexdigest()[:16]
        label = (
            f"link/{envelope.source}->{envelope.destination}"
            f"/{envelope.kind.value}/{envelope.round_number}/{digest}"
        )
        return DeterministicRandom(self.seed).fork(label)

    def decide(self, envelope: Envelope) -> float | None:
        """Decide one envelope's fate without applying it.

        Returns the stall in seconds, or ``None`` when the message is lost; a
        kill raises :class:`NetworkError` so the sender sees a dead link, not
        a quiet loss.  Deciding never sleeps: the transport applies the stall
        with :meth:`hold` after this lock is released.
        """
        rng = None
        stalls: dict[str, float] = {}
        fatal: tuple[str, LinkRule] | None = None
        with self._lock:
            for target, rule in self._rules:
                if not rule.matches(envelope):
                    continue
                stall = stalls.setdefault(target, 0.0)
                if rule.probability < 1.0:
                    if rng is None:
                        rng = self._message_rng(envelope)
                    if rng.random_float() >= rule.probability:
                        continue
                rule.applied += 1
                if rule.action != DELAY:
                    fatal = (target, rule)
                    break
                if rule.jitter_seconds > 0.0:
                    # Drawn even when not sleeping: timing-only, but keeps the
                    # draw schedule identical between realtime and replay.
                    if rng is None:
                        rng = self._message_rng(envelope)
                    stall += rng.random_float() * rule.jitter_seconds
                if rule.spec is not None and self.realtime:
                    stall += self._transfer_delay(envelope, rule.spec)
                stalls[target] = stall + rule.delay_seconds
            for target, stall in stalls.items():
                tally = self._tallies.setdefault(target, dict(_ZERO_TALLY))
                tally["conditioned"] += 1
                if stall > 0.0 and fatal is None:
                    tally["held"] += 1
                    tally["hold_seconds_total"] += stall
            if fatal is not None:
                self._tallies[fatal[0]]["lost" if fatal[1].action == DROP else "killed"] += 1
        if fatal is None:
            return sum(stalls.values())
        action = fatal[1].action
        if self.ledger is not None:
            self.ledger.append(
                "link_lost",
                {
                    "action": action,
                    "source": envelope.source,
                    "destination": envelope.destination,
                    "kind": envelope.kind.value,
                    "round": envelope.round_number,
                },
            )
        if action == KILL:
            raise NetworkError(
                f"link rule: the link from {envelope.source!r} to "
                f"{envelope.destination!r} is down"
            )
        return None

    def _transfer_delay(self, envelope: Envelope, spec: LinkSpec) -> float:
        """Queueing + serialisation + propagation for one transfer (realtime
        only, under the decision lock: the busy-until horizon is shared)."""
        serialization = envelope.size / spec.bandwidth_bytes_per_sec
        key = (envelope.source, envelope.destination)
        now = time.monotonic()  # repro-lint: allow[nd-wallclock] realtime pacing only: called only when self.realtime, delays shape wall time, never payloads
        start = max(now, self._busy_until.get(key, 0.0))
        self._busy_until[key] = start + serialization
        return (start - now) + serialization + spec.latency_seconds

    def hold(self, seconds: float) -> None:
        """Apply a decided stall — the single place a link rule waits,
        outside every decision lock."""
        if self.realtime and seconds > 0.0:
            time.sleep(seconds)

    def stats(self, target: str | None = None) -> dict:
        """Counters of ``target``'s rules, or of every rule."""
        total = dict(_ZERO_TALLY)
        with self._lock:
            for tag, tally in self._tallies.items():
                if target in (None, tag):
                    for key, value in tally.items():
                        total[key] += value
        total["rules"] = len(self.active_rules(target))
        return total


def conditioner_for(
    current: LinkConditioner | None, seed: int, *, realtime: bool = True
) -> LinkConditioner:
    """The engine a rule seeded with ``seed`` goes into: ``current``, or a
    fresh one when there is none.  Reseeding an existing engine is refused —
    silently reusing it would break "same seed, same losses" — and so is a
    seed that is not an integer of at most 128 bits, the range every
    message's rng fork accepts."""
    if isinstance(seed, bool) or not isinstance(seed, int) or not -(2**128) < seed < 2**128:
        raise ProtocolError(f"a link conditioner seed must be a 128-bit integer, not {seed!r}")
    if current is None:
        return LinkConditioner(seed, realtime=realtime)
    if current.seed != seed:
        raise ProtocolError(
            f"a link conditioner seeded with {current.seed} already exists; "
            f"cannot reseed it to {seed}"
        )
    return current


def apply_link_command(transport, command: dict) -> dict | None:
    """Handle a link-rule control command in a server process.

    Shared by the entry and chain server processes' control planes: a rule
    shipped to a process shapes what that process *sends*.  Returns the
    reply dict, or ``None`` when ``command`` is not a link command (the
    caller keeps dispatching).  ``transport`` is either transport.
    """
    cmd = command.get("cmd")
    if cmd == "add-link-rule":
        rule = LinkRule.from_dict(command.get("rule"))
        engine = conditioner_for(transport.link_conditioner, command.get("seed", 0))
        transport.link_conditioner = engine
        engine.add_rule(rule)
        return {"ok": True, "rules": len(engine.active_rules())}
    if cmd == "heal-links":
        if transport.link_conditioner is not None:
            transport.link_conditioner.heal()
        return {"ok": True}
    if cmd == "link-stats":
        return (transport.link_conditioner or LinkConditioner()).stats()
    return None


__all__ = [
    "ACTIONS",
    "CLIENTS",
    "DELAY",
    "DROP",
    "KILL",
    "LinkConditioner",
    "LinkRule",
    "apply_link_command",
    "conditioner_for",
    "link_target",
]
