"""Active traffic-analysis attacks from §2.1 and §4.2.

These are the attacks that motivate Vuvuzela's design.  Each one is
implemented against the *observable variables only* (via
:class:`~repro.adversary.observer.GlobalObserver` or a baseline's explicit
leak), so the same attack code can be pointed at the strawman baseline (where
it succeeds) and at Vuvuzela (where the noise defeats it).

* **Intersection attack** — compare the number of dead drops accessed twice
  between rounds where the target user is online and rounds where the
  adversary has knocked her offline.  Without noise the difference is exactly
  1 whenever she is conversing; with Vuvuzela's noise the difference is buried.
* **Discard attack** — a compromised first server throws away every request
  except Alice's and Bob's and watches whether the last server still sees a
  dead drop accessed twice (§4.2).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from .observer import GlobalObserver
from ..core.system import VuvuzelaSystem
from ..errors import ProtocolError
from ..net import CLIENTS, LinkRule


@dataclass(frozen=True)
class IntersectionAttackResult:
    """Outcome of an intersection (presence-correlation) attack."""

    online_pair_counts: list[int]
    offline_pair_counts: list[int]

    @property
    def mean_difference(self) -> float:
        """Average drop in pair count when the target goes offline."""
        if not self.online_pair_counts or not self.offline_pair_counts:
            return 0.0
        return statistics.mean(self.online_pair_counts) - statistics.mean(self.offline_pair_counts)

    @property
    def noise_scale(self) -> float:
        """Standard deviation of the observed counts (how noisy the signal is)."""
        combined = self.online_pair_counts + self.offline_pair_counts
        return statistics.pstdev(combined) if len(combined) > 1 else 0.0

    @property
    def signal_to_noise(self) -> float:
        """|mean difference| relative to the noise; >> 1 means the attack works."""
        scale = self.noise_scale
        if scale == 0.0:
            return abs(self.mean_difference) * float("inf") if self.mean_difference else 0.0
        return abs(self.mean_difference) / scale

    def concludes_target_is_conversing(self, threshold: float = 2.0) -> bool:
        """The adversary's verdict: is the signal clearly above the noise?"""
        return self.mean_difference >= 1.0 and self.signal_to_noise >= threshold


def run_intersection_attack(
    system: VuvuzelaSystem,
    target: str,
    rounds_per_phase: int = 5,
    observer: GlobalObserver | None = None,
) -> IntersectionAttackResult:
    """Block ``target`` for half the rounds and compare the observable m2 counts.

    The system should already have its clients registered and conversing.
    The attack alternates phases (target online, target blocked) and records
    the number of dead drops accessed twice in each round.  The blocked
    phase is two ``drop`` rules on the ``"clients"`` target, healed
    afterwards.  Healing removes every client-link rule, so the attack
    refuses to start (:class:`~repro.errors.ProtocolError`, before any
    round runs) while a ``"clients"`` rule the caller installed is active.
    """
    engine = system.network.link_conditioner
    installed = engine.active_rules(CLIENTS) if engine is not None else []
    if installed:
        raise ProtocolError(
            f"{len(installed)} client-link rule(s) already active: the attack's "
            "heal after its blocked phase would remove them"
        )
    observer = observer or GlobalObserver(system)
    online_counts: list[int] = []
    offline_counts: list[int] = []

    for _ in range(rounds_per_phase):
        metrics = system.run_conversation_round()
        online_counts.append(observer.observe_conversation_round(metrics.round_number).m2)

    # Knock the target offline with the driver's own link rules, so a
    # recorded attack replays.  Certain drops draw nothing from the rng, and
    # the observer still sees every attempt before the rules decide.
    seed = engine.seed if engine is not None else 0
    for match in ({"source": target}, {"destination": target}):
        system.add_link_rule(CLIENTS, LinkRule(action="drop", **match), seed=seed)
    try:
        for _ in range(rounds_per_phase):
            metrics = system.run_conversation_round()
            offline_counts.append(observer.observe_conversation_round(metrics.round_number).m2)
    finally:
        system.heal_links(CLIENTS)

    return IntersectionAttackResult(
        online_pair_counts=online_counts, offline_pair_counts=offline_counts
    )


@dataclass(frozen=True)
class DiscardAttackResult:
    """Outcome of the compromised-first-server discard attack."""

    pair_counts: list[int]
    expected_noise_pairs: float
    noise_std: float

    @property
    def mean_pairs(self) -> float:
        return statistics.mean(self.pair_counts) if self.pair_counts else 0.0

    def concludes_targets_are_conversing(self, margin: float = 3.0) -> bool:
        """Without noise, any pair count > 0 betrays the targets.

        With noise the adversary must decide whether the observed count
        exceeds the expected noise level by a clear margin; Vuvuzela's
        Laplace noise keeps the one extra pair far inside the noise.
        """
        if self.expected_noise_pairs == 0:
            return self.mean_pairs > 0
        return self.mean_pairs > self.expected_noise_pairs + margin * max(self.noise_std, 1.0)


def run_discard_attack(
    system: VuvuzelaSystem,
    keep_clients: tuple[str, str],
    rounds: int = 3,
) -> DiscardAttackResult:
    """§4.2: the first server forwards only the two targets' requests.

    All mixing servers between the first and the last are assumed compromised
    too, so the only defence left is the noise added by... nobody on the
    forward path the adversary controls — which is exactly why the paper makes
    *every* mixing server add noise: the honest one's noise still lands in the
    batch.  In this implementation the ingress filter drops every non-target
    request at the first server, while the (honest) servers keep adding their
    cover traffic, so the last server's pair count is dominated by noise.
    """
    first_server = system.conversation_endpoints[0].mix_server
    keep = min(len(keep_clients), 2)

    def discard_all_but_targets(round_number: int, batch: list[bytes]) -> list[bytes]:
        # The compromised entry/first server knows which requests came from
        # the targets because it sees the client connections; dropping
        # everything else is modelled by keeping the first ``keep`` requests
        # of the batch (requests are buffered in client-arrival order and the
        # targets are registered first in these experiments).
        return batch[:keep]

    first_server.ingress_filter = discard_all_but_targets
    pair_counts: list[int] = []
    try:
        for _ in range(rounds):
            metrics = system.run_conversation_round()
            pair_counts.append(system.access_histogram(metrics.round_number)["pairs"])
    finally:
        first_server.ingress_filter = None

    noise = system.config.conversation_noise
    mixing_servers = system.config.num_mixing_servers
    return DiscardAttackResult(
        pair_counts=pair_counts,
        expected_noise_pairs=noise.mu / 2.0 * mixing_servers,
        noise_std=(noise.b / 2.0) * (2.0**0.5) * max(mixing_servers, 1) ** 0.5,
    )
