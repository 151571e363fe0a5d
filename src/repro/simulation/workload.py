"""Workload generation: synthetic user populations and per-round behaviour.

The paper's evaluation drives the system with simple synthetic workloads:
every online user sends a message every conversation round (to a partner, or
as a fake request if idle), and a fixed fraction of users (5 %) dials someone
each dialing round (§8.1).  This module generates such populations both for
the cost-model simulator (where only the *counts* matter) and for the real
in-process system (where actual clients and key pairs are created).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto.rng import DeterministicRandom, RandomSource
from ..errors import ConfigurationError


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of a synthetic workload.

    ``conversing_fraction`` is the fraction of users that are in an active,
    reciprocated conversation (paired up with another user); the remainder are
    idle and send fake requests.  ``dialing_fraction`` is the fraction of
    users that send a real invitation each dialing round.
    """

    num_users: int
    conversing_fraction: float = 1.0
    dialing_fraction: float = 0.05
    messages_per_user_per_round: int = 1

    def __post_init__(self) -> None:
        if self.num_users < 0:
            raise ConfigurationError("the number of users cannot be negative")
        if not 0.0 <= self.conversing_fraction <= 1.0:
            raise ConfigurationError("conversing_fraction must be in [0, 1]")
        if not 0.0 <= self.dialing_fraction <= 1.0:
            raise ConfigurationError("dialing_fraction must be in [0, 1]")
        if self.messages_per_user_per_round < 0:
            raise ConfigurationError("messages_per_user_per_round cannot be negative")

    @property
    def conversing_users(self) -> int:
        """Number of users in active conversations (rounded down to a pair)."""
        paired = int(self.num_users * self.conversing_fraction)
        return paired - (paired % 2)

    @property
    def idle_users(self) -> int:
        return self.num_users - self.conversing_users

    @property
    def conversation_pairs(self) -> int:
        return self.conversing_users // 2

    @property
    def dialing_users(self) -> int:
        return int(self.num_users * self.dialing_fraction)

    @property
    def requests_per_conversation_round(self) -> int:
        """Every online user sends exactly one exchange request per round."""
        return self.num_users

    def scaled_to(self, num_users: int) -> "WorkloadSpec":
        """The same workload shape at a different population size."""
        return WorkloadSpec(
            num_users=num_users,
            conversing_fraction=self.conversing_fraction,
            dialing_fraction=self.dialing_fraction,
            messages_per_user_per_round=self.messages_per_user_per_round,
        )


#: The workload of the paper's evaluation: everyone converses, 5 % dial.
PAPER_WORKLOAD = WorkloadSpec(num_users=1_000_000, conversing_fraction=1.0, dialing_fraction=0.05)


@dataclass
class GeneratedPopulation:
    """Concrete user names and pairings for driving the real system."""

    names: list[str]
    pairs: list[tuple[str, str]]
    idle: list[str]
    dialers: list[tuple[str, str]] = field(default_factory=list)


def generate_population(
    spec: WorkloadSpec, rng: RandomSource | None = None, name_prefix: str = "user"
) -> GeneratedPopulation:
    """Materialise a workload: concrete user names, pairs, idlers and dialers.

    Pairings are deterministic given the RNG seed so experiments are
    reproducible.  The dialers list pairs each dialing user with a uniformly
    chosen callee (dialing does not require the callee to be idle or paired).
    """
    rng = rng or DeterministicRandom(0)
    names = [f"{name_prefix}-{i}" for i in range(spec.num_users)]

    shuffled = list(names)
    # Fisher-Yates using the provided random source, for reproducibility.
    for i in range(len(shuffled) - 1, 0, -1):
        j = rng.random_uint(32) % (i + 1)
        shuffled[i], shuffled[j] = shuffled[j], shuffled[i]

    conversing = shuffled[: spec.conversing_users]
    idle = shuffled[spec.conversing_users :]
    pairs = [(conversing[i], conversing[i + 1]) for i in range(0, len(conversing), 2)]

    dialers: list[tuple[str, str]] = []
    for index in range(spec.dialing_users):
        caller = shuffled[index % max(len(shuffled), 1)] if shuffled else None
        if caller is None:
            break
        callee = shuffled[(index * 7 + 1) % len(shuffled)]
        if callee == caller:
            callee = shuffled[(index * 7 + 2) % len(shuffled)]
        dialers.append((caller, callee))

    return GeneratedPopulation(names=names, pairs=pairs, idle=idle, dialers=dialers)
