"""Deployment simulation: workloads, the calibrated cost model, and sweeps."""

from .costmodel import (
    ConversationRoundEstimate,
    CostModelParameters,
    DialingRoundEstimate,
    VuvuzelaCostModel,
    best_case_crypto_latency,
)
from .simulator import DeploymentSimulator, RealRoundResult, run_real_round
from .swarm import (
    ClientSwarm,
    SwarmChunk,
    SwarmIngestStats,
    SwarmRoundOutcome,
)
from .workload import (
    GeneratedPopulation,
    PAPER_WORKLOAD,
    WorkloadSpec,
    generate_population,
)

__all__ = [
    "ClientSwarm",
    "ConversationRoundEstimate",
    "CostModelParameters",
    "DeploymentSimulator",
    "DialingRoundEstimate",
    "GeneratedPopulation",
    "PAPER_WORKLOAD",
    "RealRoundResult",
    "SwarmChunk",
    "SwarmIngestStats",
    "SwarmRoundOutcome",
    "VuvuzelaCostModel",
    "WorkloadSpec",
    "best_case_crypto_latency",
    "generate_population",
    "run_real_round",
]
