"""Ablation: noise design choices (sampled vs exact, truncation, amount).

The noise knobs this reproduction exposes (``VuvuzelaConfig.exact_noise``,
the ``LaplaceParams`` of each protocol), quantified:

* **Sampled vs exact noise** — the paper's evaluation adds exactly mu noise
  per server "to not let noise affect the clarity of the graphs" (§8.1); real
  deployments sample the truncated Laplace.  Both modes must produce the same
  average volume (the performance story is unchanged) while only the sampled
  mode actually provides the differential-privacy guarantee.
* **Noise volume vs privacy** — the rounds-covered payoff of doubling mu,
  computed at a fixed latency cost from the cost model.
"""

from __future__ import annotations

import statistics

import pytest
from bench_common import emit

from repro.crypto import DeterministicRandom
from repro.mixnet import CoverTrafficSpec
from repro.privacy import (
    LaplaceParams,
    TARGET_DELTA,
    TARGET_EPSILON,
    conversation_guarantee,
    max_rounds,
)
from repro.simulation import VuvuzelaCostModel


def test_exact_vs_sampled_noise_volume(benchmark):
    """Both modes emit ~2 mu requests per server per round; only one is random."""
    params = LaplaceParams(mu=2_000, b=100)

    def collect() -> dict[str, list[int]]:
        rng = DeterministicRandom(1)
        sampled_spec = CoverTrafficSpec(params=params, exact=False)
        exact_spec = CoverTrafficSpec(params=params, exact=True)
        return {
            "sampled": [sampled_spec.sample(rng).total_requests for _ in range(300)],
            "exact": [exact_spec.sample(rng).total_requests for _ in range(300)],
        }

    volumes = benchmark(collect)

    sampled_mean = statistics.mean(volumes["sampled"])
    exact_mean = statistics.mean(volumes["exact"])
    emit(
        "Noise ablation: sampled vs exact cover traffic (mu=2,000)",
        [
            {
                "mode": mode,
                "mean requests/round": statistics.mean(values),
                "std dev": statistics.pstdev(values),
            }
            for mode, values in volumes.items()
        ],
    )
    assert sampled_mean == pytest.approx(2 * params.mu, rel=0.03)
    assert exact_mean == pytest.approx(2 * params.mu, rel=0.01)
    assert statistics.pstdev(volumes["exact"]) == 0.0
    assert statistics.pstdev(volumes["sampled"]) > 0.0


def test_noise_volume_vs_privacy_payoff(benchmark):
    """Doubling mu roughly quadruples the protected rounds but adds latency linearly."""

    def collect() -> list[dict[str, float]]:
        rows = []
        for mu, b in ((150_000, 7_300), (300_000, 13_800), (450_000, 20_000)):
            noise = LaplaceParams(mu=mu, b=b)
            covered = max_rounds(conversation_guarantee(noise), TARGET_EPSILON, TARGET_DELTA)
            model = VuvuzelaCostModel(noise, LaplaceParams(13_000, 770))
            rows.append(
                {
                    "mu": float(mu),
                    "rounds covered": float(covered),
                    "latency at 1M users (s)": model.conversation_latency(1_000_000),
                }
            )
        return rows

    rows = benchmark(collect)
    emit("Noise ablation: privacy payoff vs latency cost", rows)

    covered = [row["rounds covered"] for row in rows]
    latency = [row["latency at 1M users (s)"] for row in rows]
    # Quadratic privacy payoff (k grows with mu^2), linear latency cost.
    assert covered[2] / covered[0] == pytest.approx(9.0, rel=0.25)
    assert covered[1] / covered[0] == pytest.approx(4.0, rel=0.25)
    assert latency[2] - latency[1] == pytest.approx(latency[1] - latency[0], rel=0.25)
