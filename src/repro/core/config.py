"""Deployment configuration for a Vuvuzela system.

A :class:`VuvuzelaConfig` captures every knob the paper exposes: the length of
the server chain, the conversation and dialing noise distributions, whether
servers add exact or sampled noise, the number of invitation dead drops, and
the multi-round privacy target used for budget accounting.

Two presets are provided:

* :meth:`VuvuzelaConfig.paper` — the paper's evaluation configuration
  (3 servers, mu=300,000/b=13,800 conversation noise, mu=13,000/b=770 dialing
  noise, exact noise), intended for the simulator and the analysis code.
* :meth:`VuvuzelaConfig.small` — a scaled-down configuration with the same
  structure but little noise, intended for running the *real* protocol
  end-to-end in-process (tests, examples, small benchmarks).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace

from ..errors import ConfigurationError
from ..privacy import (
    DEFAULT_COMPOSITION_D,
    LaplaceParams,
    TARGET_DELTA,
    TARGET_EPSILON,
)


@dataclass(frozen=True)
class VuvuzelaConfig:
    """Static configuration of one Vuvuzela deployment."""

    num_servers: int = 3
    conversation_noise: LaplaceParams = field(
        default_factory=lambda: LaplaceParams(mu=300_000, b=13_800)
    )
    dialing_noise: LaplaceParams = field(default_factory=lambda: LaplaceParams(mu=13_000, b=770))
    exact_noise: bool = False
    num_dialing_buckets: int = 1
    dialing_round_seconds: float = 600.0
    target_epsilon: float = TARGET_EPSILON
    target_delta: float = TARGET_DELTA
    composition_d: float = DEFAULT_COMPOSITION_D
    seed: int | None = None
    #: §9 DoS mitigation: when enabled, the entry server only accepts requests
    #: from registered accounts and limits each account to one request per
    #: conversation slot per protocol per round.
    require_registration: bool = False
    #: §9 "Multiple conversations": fixed number of conversation exchanges
    #: every client sends per round (1 in the paper's prototype).
    max_conversations_per_client: int = 1
    #: Submission-window deadline per round (§7: the coordinator collects
    #: client requests until a deadline; stragglers are refused).  ``None``
    #: closes windows on demand — the right choice for the synchronous
    #: in-process system, where the driver submits and closes itself.
    round_deadline_seconds: float | None = None
    #: Per-hop transport deadline for a networked deployment; a hop that
    #: exceeds it surfaces as a ProtocolError at the coordinator.  ``None``
    #: waits forever (the in-process transport never times out anyway).
    hop_timeout_seconds: float | None = None
    #: How long a blocked networked submission (a client long-poll) waits
    #: for its round to resolve before the entry gives up on it.
    response_wait_seconds: float = 120.0
    #: Chain-drive attempts per round (§6 availability): a failed attempt is
    #: aborted — accepted submissions refunded, fresh noise on the re-run —
    #: up to this many tries before the round fails for good.  1 disables
    #: abort/retry.
    max_round_attempts: int = 3
    #: Rounds the continuous scheduler may keep in flight at once (window
    #: open or chain mixing).  1 serializes everything; >= 2 overlaps a due
    #: dialing round with the preceding conversation round and pre-opens the
    #: next round's submission window while the current chain is mixing.
    #: Overlapped execution is byte-identical to serial execution under a
    #: fixed seed (per-protocol rng streams + in-order chain drives).
    pipeline_depth: int = 2
    #: Interleave one dialing round before every Nth conversation round in
    #: a continuous session (§5.5 suggests one dialing round per ~10 minutes
    #: of conversation rounds).  0 disables automatic interleaving — dialing
    #: rounds then run only when asked for explicitly.
    dialing_interval: int = 0

    def __post_init__(self) -> None:
        if self.num_servers < 1:
            raise ConfigurationError("a Vuvuzela chain needs at least one server")
        if self.max_conversations_per_client < 1:
            raise ConfigurationError("clients need at least one conversation slot")
        if self.num_dialing_buckets < 1:
            raise ConfigurationError("dialing needs at least one invitation dead drop")
        if self.dialing_round_seconds <= 0:
            raise ConfigurationError("dialing rounds must have positive length")
        if self.target_epsilon <= 0 or not 0 < self.target_delta < 1:
            raise ConfigurationError("the privacy target must have eps > 0 and 0 < delta < 1")
        if self.round_deadline_seconds is not None and self.round_deadline_seconds < 0:
            raise ConfigurationError("round deadlines cannot be negative")
        if self.hop_timeout_seconds is not None and self.hop_timeout_seconds <= 0:
            raise ConfigurationError("hop timeouts must be positive")
        if self.response_wait_seconds <= 0:
            raise ConfigurationError("the response wait must be positive")
        if self.max_round_attempts < 1:
            raise ConfigurationError("a round needs at least one attempt")
        if self.pipeline_depth < 1:
            raise ConfigurationError("the round pipeline needs a depth of at least 1")
        if self.dialing_interval < 0:
            raise ConfigurationError("the dialing interval cannot be negative")

    # ------------------------------------------------------------------ presets

    @classmethod
    def paper(cls, num_servers: int = 3, exact_noise: bool = True) -> "VuvuzelaConfig":
        """The paper's evaluation configuration (§8.1)."""
        return cls(
            num_servers=num_servers,
            conversation_noise=LaplaceParams(mu=300_000, b=13_800),
            dialing_noise=LaplaceParams(mu=13_000, b=770),
            exact_noise=exact_noise,
            num_dialing_buckets=1,
        )

    @classmethod
    def small(
        cls,
        num_servers: int = 3,
        conversation_mu: float = 10.0,
        dialing_mu: float = 3.0,
        seed: int | None = 0,
    ) -> "VuvuzelaConfig":
        """A small configuration for running the real protocol in-process.

        The noise scales are chosen to keep the per-round guarantee structure
        intact (b = mu/20, mirroring the paper's ratio of roughly 22) while
        keeping rounds small enough to run with real cryptography.
        """
        return cls(
            num_servers=num_servers,
            conversation_noise=LaplaceParams(mu=conversation_mu, b=max(conversation_mu / 20, 0.5)),
            dialing_noise=LaplaceParams(mu=dialing_mu, b=max(dialing_mu / 20, 0.5)),
            exact_noise=False,
            num_dialing_buckets=1,
            seed=seed,
        )

    # ----------------------------------------------------------------- derived

    @property
    def num_mixing_servers(self) -> int:
        """Servers that add conversation cover traffic (all but the last, §8.2)."""
        return max(self.num_servers - 1, 0)

    @property
    def expected_conversation_noise_requests(self) -> float:
        """Average noise requests per conversation round across the chain."""
        return 2.0 * self.conversation_noise.mu * self.num_mixing_servers

    @property
    def expected_dialing_noise_invitations(self) -> float:
        """Average noise invitations per dialing round across the chain."""
        return self.dialing_noise.mu * self.num_servers * self.num_dialing_buckets

    @property
    def client_request_timeout_seconds(self) -> float:
        """The transport timeout a client connection needs to out-wait a round.

        A networked submission long-polls through the whole round: the
        submission window (up to ``round_deadline_seconds``), the chain drive
        (one hop allowance per server when a hop budget is configured) and
        the entry's ``response_wait_seconds`` hold.  A client transport with
        a shorter ``request_timeout`` hits a spurious
        :class:`~repro.errors.TransportTimeout` mid-long-poll on a perfectly
        healthy round — so deployments derive the client timeout from these
        round knobs instead of guessing.
        """
        budget = self.response_wait_seconds
        if self.round_deadline_seconds is not None:
            budget += self.round_deadline_seconds
        if self.hop_timeout_seconds is not None:
            budget += self.hop_timeout_seconds * self.num_servers
        return budget + 5.0  # margin for framing, scheduling and queueing

    def with_servers(self, num_servers: int) -> "VuvuzelaConfig":
        return replace(self, num_servers=num_servers)

    def with_conversation_noise(self, mu: float, b: float | None = None) -> "VuvuzelaConfig":
        scale = b if b is not None else mu * self.conversation_noise.b / self.conversation_noise.mu
        return replace(self, conversation_noise=LaplaceParams(mu=mu, b=scale))

    def deniability_factor(self) -> float:
        """The e^eps' plausible-deniability factor of the configured target."""
        return math.exp(self.target_epsilon)

    # ------------------------------------------------------------ serialization

    def to_dict(self) -> dict:
        """A JSON-safe dict; the form the launcher ships to server processes."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["conversation_noise"] = {"mu": self.conversation_noise.mu, "b": self.conversation_noise.b}
        data["dialing_noise"] = {"mu": self.dialing_noise.mu, "b": self.dialing_noise.b}
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "VuvuzelaConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown config fields: {sorted(unknown)}")
        kwargs = dict(data)
        for key in ("conversation_noise", "dialing_noise"):
            if key in kwargs and isinstance(kwargs[key], dict):
                kwargs[key] = LaplaceParams(**kwargs[key])
        return cls(**kwargs)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "VuvuzelaConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"malformed config JSON: {exc}") from exc
        return cls.from_dict(data)
