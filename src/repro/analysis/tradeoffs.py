"""Privacy/performance trade-off sweeps (the design-choice ablations).

The paper leaves a deployment three knobs to pick: how much noise (which
buys rounds of privacy but costs latency), how many servers (which buys
distrust tolerance but costs latency quadratically), and how many invitation
dead drops (which trades server noise volume against client downloads).
These sweeps quantify each trade-off using the privacy analysis and the cost
model together, so a single table shows both sides of each choice.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dialing.tuning import DialingCostModel
from ..errors import ConfigurationError
from ..privacy import (
    TARGET_DELTA,
    TARGET_EPSILON,
    calibrate_conversation_noise,
    conversation_guarantee,
    max_rounds,
)
from ..privacy.laplace import LaplaceParams
from ..simulation.costmodel import CostModelParameters, VuvuzelaCostModel


@dataclass(frozen=True)
class NoiseTradeoffRow:
    """One noise level: what it costs (latency) and what it buys (rounds)."""

    mu: float
    b: float
    rounds_covered: int
    latency_seconds: float
    messages_per_second: float


def noise_latency_tradeoff(
    mu_values: list[float],
    num_users: int = 1_000_000,
    num_servers: int = 3,
    calibrate_scale: bool = True,
) -> list[NoiseTradeoffRow]:
    """Sweep the conversation-noise mean: privacy rounds vs end-to-end latency."""
    rows = []
    for mu in mu_values:
        if mu <= 0:
            raise ConfigurationError("noise means must be positive")
        if calibrate_scale:
            config = calibrate_conversation_noise(mu, steps=16)
            noise = config.params
            covered = config.rounds_covered
        else:
            noise = LaplaceParams(mu=mu, b=mu / 22.0)
            covered = max_rounds(conversation_guarantee(noise), TARGET_EPSILON, TARGET_DELTA)
        model = VuvuzelaCostModel(
            conversation_noise=noise,
            dialing_noise=LaplaceParams(mu=13_000, b=770),
            num_servers=num_servers,
        )
        estimate = model.estimate_conversation_round(num_users)
        rows.append(
            NoiseTradeoffRow(
                mu=mu,
                b=noise.b,
                rounds_covered=covered,
                latency_seconds=estimate.end_to_end_latency_seconds,
                messages_per_second=estimate.messages_per_second,
            )
        )
    return rows


@dataclass(frozen=True)
class ChainLengthRow:
    """One chain length: how latency grows as distrust tolerance grows."""

    num_servers: int
    compromised_servers_tolerated: int
    latency_seconds: float
    noise_requests: float


def chain_length_tradeoff(
    server_counts: list[int],
    num_users: int = 1_000_000,
    conversation_mu: float = 300_000,
) -> list[ChainLengthRow]:
    """Sweep the chain length: the Figure 11 latency curve with its privacy payoff."""
    rows = []
    for num_servers in server_counts:
        model = VuvuzelaCostModel(
            conversation_noise=LaplaceParams(mu=conversation_mu, b=conversation_mu / 22.0),
            dialing_noise=LaplaceParams(mu=13_000, b=770),
            num_servers=num_servers,
        )
        estimate = model.estimate_conversation_round(num_users)
        rows.append(
            ChainLengthRow(
                num_servers=num_servers,
                compromised_servers_tolerated=num_servers - 1,
                latency_seconds=estimate.end_to_end_latency_seconds,
                noise_requests=estimate.noise_requests,
            )
        )
    return rows


@dataclass(frozen=True)
class BucketCountRow:
    """One invitation-dead-drop count: client download vs server noise volume."""

    num_buckets: int
    client_download_mb: float
    total_noise_invitations: float
    server_load_factor: float


def bucket_count_tradeoff(
    bucket_counts: list[int],
    num_users: int = 1_000_000,
    dialing_fraction: float = 0.05,
    noise_mu: float = 13_000,
    num_servers: int = 3,
) -> list[BucketCountRow]:
    """Sweep m (§5.4): more buckets shrink downloads but multiply server noise."""
    rows = []
    for num_buckets in bucket_counts:
        model = DialingCostModel(
            num_users=num_users,
            dialing_fraction=dialing_fraction,
            noise_mu=noise_mu,
            num_servers=num_servers,
            num_buckets=num_buckets,
        )
        rows.append(
            BucketCountRow(
                num_buckets=num_buckets,
                client_download_mb=model.download_bytes_per_client / 1e6,
                total_noise_invitations=model.total_noise_invitations,
                server_load_factor=model.server_load_factor,
            )
        )
    return rows
