"""Single-round differential-privacy guarantees (Theorem 1 and §6.5).

The conversation protocol exposes two counts, ``m1`` and ``m2``.  Each honest
server independently adds noise drawn from

    m1 += ceil(max(0, Laplace(mu,   b  )))
    m2 += ceil(max(0, Laplace(mu/2, b/2)))

Theorem 1 of the paper shows this is (eps, delta)-differentially private with
respect to a change of up to 2 in ``m1`` and 1 in ``m2``, with

    eps   = 4 / b
    delta = exp((2 - mu) / b)

and, inverting (Equation 1), the noise needed for a target per-round (eps,
delta) is ``b = 4/eps`` and ``mu = 2 - 4 ln(delta)/eps``.

For the dialing protocol (§6.5), one user's action changes the invitation
count of at most two dead drops by 1 each, and every server adds
``ceil(max(0, Laplace(mu, b)))`` noise invitations to every dead drop, giving

    eps   = 2 / b
    delta = (1/2) exp((1 - mu) / b)

(§6.5; the epsilon is twice the single-variable bound of Lemma 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .laplace import LaplaceParams
from .sensitivity import (
    CONVERSATION_SENSITIVITY_M1,
    CONVERSATION_SENSITIVITY_M2,
    DIALING_AFFECTED_DEAD_DROPS,
    DIALING_SENSITIVITY,
)
from ..errors import ConfigurationError


@dataclass(frozen=True)
class PrivacyGuarantee:
    """An (eps, delta) differential-privacy guarantee."""

    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        if self.epsilon < 0:
            raise ConfigurationError("epsilon must be non-negative")
        if self.delta < 0 or self.delta > 1:
            raise ConfigurationError("delta must lie in [0, 1]")

    @property
    def deniability_factor(self) -> float:
        """``e^eps`` — how much more likely any observation can become."""
        return math.exp(self.epsilon)


#: What exact noise guarantees: nothing.  A server that adds exactly μ every
#: round makes the observed counts a function of what users do, so no finite
#: ε holds (``VuvuzelaConfig.exact_noise``).
NO_PRIVACY = PrivacyGuarantee(epsilon=math.inf, delta=1.0)


def single_variable_guarantee(params: LaplaceParams, sensitivity: float) -> PrivacyGuarantee:
    """Lemma 3: noise ``ceil(max(0, Laplace(mu, b)))`` on one count of sensitivity t.

    eps = t / b and delta = (1/2) exp((t - mu) / b).
    """
    if sensitivity <= 0:
        raise ConfigurationError("sensitivity must be positive")
    epsilon = sensitivity / params.b
    exponent = (sensitivity - params.mu) / params.b
    # With mu < sensitivity (e.g. the un-noised baseline) the bound is vacuous;
    # clamp instead of overflowing math.exp.
    delta = 1.0 if exponent > 0 else 0.5 * math.exp(exponent)
    return PrivacyGuarantee(epsilon=epsilon, delta=min(delta, 1.0))


def conversation_guarantee(params: LaplaceParams) -> PrivacyGuarantee:
    """Theorem 1: the per-round guarantee of the conversation noise.

    ``params`` are the (mu, b) used for the m1 noise; the m2 noise uses
    (mu/2, b/2) as in Algorithm 2.
    """
    m1 = single_variable_guarantee(params, CONVERSATION_SENSITIVITY_M1)
    m2 = single_variable_guarantee(params.scaled(0.5), CONVERSATION_SENSITIVITY_M2)
    # delta_m1 = 1/2 exp((2-mu)/b), delta_m2 = 1/2 exp((1-mu/2)/(b/2)) = 1/2 exp((2-mu)/b)
    return PrivacyGuarantee(epsilon=m1.epsilon + m2.epsilon, delta=min(m1.delta + m2.delta, 1.0))


def conversation_noise_for(epsilon: float, delta: float) -> LaplaceParams:
    """Equation 1: the (mu, b) needed for a target per-round (eps, delta)."""
    if epsilon <= 0:
        raise ConfigurationError("epsilon must be positive")
    if not 0 < delta < 1:
        raise ConfigurationError("delta must lie strictly between 0 and 1")
    b = 4.0 / epsilon
    mu = 2.0 - 4.0 * math.log(delta) / epsilon
    return LaplaceParams(mu=mu, b=b)


def dialing_guarantee(params: LaplaceParams) -> PrivacyGuarantee:
    """§6.5: per-round guarantee of the dialing noise added to every dead drop.

    One user's dialing action changes the invitation counts of at most two
    dead drops by one each.  Following §6.5 verbatim, this gives
    eps = 2/b and delta = (1/2) exp((1-mu)/b): the epsilon doubles (both
    affected counts contribute) while the additive delta term only arises for
    the count that loses an invitation, where the truncation at zero bites.
    """
    single = single_variable_guarantee(params, DIALING_SENSITIVITY)
    epsilon = DIALING_AFFECTED_DEAD_DROPS * single.epsilon
    return PrivacyGuarantee(epsilon=epsilon, delta=min(single.delta, 1.0))


def dialing_noise_for(epsilon: float, delta: float) -> LaplaceParams:
    """Invert :func:`dialing_guarantee` for a target per-round (eps, delta)."""
    if epsilon <= 0:
        raise ConfigurationError("epsilon must be positive")
    if not 0 < delta < 1:
        raise ConfigurationError("delta must lie strictly between 0 and 1")
    b = 2.0 / epsilon
    mu = 1.0 - b * math.log(2.0 * delta)
    return LaplaceParams(mu=mu, b=b)


def conversation_noise_params(mu: float, b: float) -> tuple[LaplaceParams, LaplaceParams]:
    """The (m1, m2) noise parameter pair used by a server (Algorithm 2 step 2)."""
    base = LaplaceParams(mu=mu, b=b)
    return base, base.scaled(0.5)
