"""Choosing noise parameters (mu, b) for a deployment.

The paper picks its noise distributions as follows (§6.4): fix the composition
parameter d = 1e-5; then for each candidate mean ``mu``, sweep the scale ``b``
to find the value that maximises the number of rounds ``k`` the deployment can
support at the target eps' = ln 2 and delta' = 1e-4.  The three conversation
configurations it reports are (mu=150K, b=7300), (mu=300K, b=13800) and
(mu=450K, b=20000), covering roughly 70K, 250K and 500K rounds; the dialing
configurations are (mu=8K, b=500), (mu=13K, b=770) and (mu=20K, b=1130),
covering roughly 1200, 3500 and 8000 dialing rounds.

This module implements that sweep, plus the reverse direction: given a target
number of rounds, find the cheapest (smallest-mu) noise that covers it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .composition import DEFAULT_COMPOSITION_D, max_rounds
from .laplace import LaplaceParams
from .mechanism import PrivacyGuarantee, conversation_guarantee
from ..errors import ConfigurationError

#: The paper's default multi-round privacy target: eps' = ln 2, delta' = 1e-4.
TARGET_EPSILON = math.log(2.0)
TARGET_DELTA = 1e-4


@dataclass(frozen=True)
class NoiseConfiguration:
    """A fully calibrated noise configuration for one protocol."""

    params: LaplaceParams
    rounds_covered: int
    target_epsilon: float
    target_delta: float
    composition_d: float

    @property
    def mu(self) -> float:
        return self.params.mu

    @property
    def b(self) -> float:
        return self.params.b


GuaranteeFn = Callable[[LaplaceParams], PrivacyGuarantee]


def _sweep_scale(
    mu: float,
    guarantee_fn: GuaranteeFn,
    target_epsilon: float,
    target_delta: float,
    d: float,
    b_min: float,
    b_max: float,
    steps: int,
) -> NoiseConfiguration:
    """Find the scale ``b`` maximising the rounds covered for a fixed mean ``mu``.

    The rounds-covered function is unimodal in ``b`` (small b: per-round delta
    explodes; large b: per-round epsilon shrinks too slowly relative to the
    delta gain), so a coarse geometric sweep followed by a local refinement
    reproduces the paper's parameter sweep.
    """
    if mu <= 0:
        raise ConfigurationError("mu must be positive")

    def covered(b: float) -> int:
        return max_rounds(guarantee_fn(LaplaceParams(mu, b)), target_epsilon, target_delta, d)

    best_b, best_k = b_min, -1
    ratio = (b_max / b_min) ** (1.0 / (steps - 1))
    candidates = [b_min * ratio**i for i in range(steps)]
    for b in candidates:
        k = covered(b)
        if k > best_k:
            best_b, best_k = b, k

    # Local refinement around the best coarse candidate.
    for _ in range(2):
        low, high = best_b / ratio, best_b * ratio
        fine_ratio = (high / low) ** (1.0 / (steps - 1))
        for b in (low * fine_ratio**i for i in range(steps)):
            k = covered(b)
            if k > best_k:
                best_b, best_k = b, k
        ratio = fine_ratio

    return NoiseConfiguration(
        params=LaplaceParams(mu, best_b),
        rounds_covered=best_k,
        target_epsilon=target_epsilon,
        target_delta=target_delta,
        composition_d=d,
    )


def calibrate_conversation_noise(
    mu: float,
    target_epsilon: float = TARGET_EPSILON,
    target_delta: float = TARGET_DELTA,
    d: float = DEFAULT_COMPOSITION_D,
    steps: int = 40,
) -> NoiseConfiguration:
    """Best conversation-noise scale ``b`` for mean ``mu`` (paper's §6.4 sweep)."""
    return _sweep_scale(
        mu,
        conversation_guarantee,
        target_epsilon,
        target_delta,
        d,
        b_min=max(mu / 500.0, 1.0),
        b_max=mu / 2.0,
        steps=steps,
    )


def noise_for_rounds(
    rounds: int,
    guarantee_fn: GuaranteeFn | None = None,
    target_epsilon: float = TARGET_EPSILON,
    target_delta: float = TARGET_DELTA,
    d: float = DEFAULT_COMPOSITION_D,
) -> NoiseConfiguration:
    """Smallest mean ``mu`` whose best calibration covers at least ``rounds``.

    Binary search over mu, calibrating b at each step.  Used when planning a
    deployment: "we want users to be covered for 200,000 messages — how much
    cover traffic is that?"
    """
    if rounds <= 0:
        raise ConfigurationError("rounds must be positive")
    guarantee_fn = guarantee_fn or conversation_guarantee

    def calibrate(mu: float) -> NoiseConfiguration:
        return _sweep_scale(
            mu,
            guarantee_fn,
            target_epsilon,
            target_delta,
            d,
            b_min=max(mu / 500.0, 1.0),
            b_max=mu / 2.0,
            steps=24,
        )

    low_mu, high_mu = 10.0, 10.0
    while calibrate(high_mu).rounds_covered < rounds:
        low_mu, high_mu = high_mu, high_mu * 2
        if high_mu > 1e9:
            raise ConfigurationError("no practical noise level covers that many rounds")
    for _ in range(30):
        mid = (low_mu + high_mu) / 2.0
        if calibrate(mid).rounds_covered >= rounds:
            high_mu = mid
        else:
            low_mu = mid
    return calibrate(high_mu)


#: The three conversation-noise configurations plotted in Figure 7.
PAPER_CONVERSATION_CONFIGS = (
    LaplaceParams(mu=150_000, b=7_300),
    LaplaceParams(mu=300_000, b=13_800),
    LaplaceParams(mu=450_000, b=20_000),
)

#: The three dialing-noise configurations plotted in Figure 8.  The paper's
#: text lists (13000, 7700), an apparent typo for b=770 — b of 7700 would give
#: a per-round epsilon far too small to match the plotted curve.
PAPER_DIALING_CONFIGS = (
    LaplaceParams(mu=8_000, b=500),
    LaplaceParams(mu=13_000, b=770),
    LaplaceParams(mu=20_000, b=1_130),
)

#: Rounds the paper says each conversation configuration covers (§6.4).
PAPER_CONVERSATION_ROUNDS = (70_000, 250_000, 500_000)
#: Rounds the paper says each dialing configuration covers (§6.5).
PAPER_DIALING_ROUNDS = (1_200, 3_500, 8_000)
