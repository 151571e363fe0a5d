"""Calibrated cost model for large-scale latency/throughput/bandwidth estimates.

The paper's own analysis of its measurements (§8.2) is that a conversation
round is dominated by the chain's Diffie-Hellman work:

    best-case latency  =  (total requests x chain length) / DH rate
    measured latency   ~  2x the best case (serialisation, shuffling, noise
                          generation, RPC overhead)

with the total number of requests equal to the real client requests plus the
cover traffic (2 mu per mixing server).  This module turns that observation
into an explicit model, calibrated either with the paper's published constants
(340,000 DH ops/sec per 36-core server) or with a locally measured rate, and
extends it to round period (pipelining), throughput, server bandwidth and
client bandwidth.  The experiments in EXPERIMENTS.md compare its output
against every number in Figures 9-11 and §8.2/§8.3.
"""

from __future__ import annotations

from dataclasses import dataclass

from .workload import WorkloadSpec
from ..conversation.messages import EXCHANGE_REQUEST_SIZE, MESSAGE_BOX_SIZE
from ..crypto.onion import LAYER_OVERHEAD, RESPONSE_LAYER_OVERHEAD
from ..dialing.invitation import DIALING_REQUEST_SIZE, INVITATION_SIZE
from ..errors import ConfigurationError
from ..net.links import PAPER_SERVER, HostSpec
from ..privacy.laplace import LaplaceParams


@dataclass(frozen=True)
class CostModelParameters:
    """Tunable constants of the performance model."""

    host: HostSpec = PAPER_SERVER
    #: Fraction of a round's span during which the chain is usefully
    #: pipelined: with P servers, roughly P * efficiency rounds are in flight
    #: at once, so the round period is latency / (P * efficiency).
    pipeline_efficiency: float = 0.8
    #: Fixed per-round overhead (round announcement, client upload window).
    round_base_seconds: float = 0.5
    #: Average time a dialing round spends waiting for the concurrently
    #: running conversation rounds on the shared servers (§8.2, Figure 10's
    #: ~13 s floor with only ten users).
    dialing_wait_seconds: float = 13.0

    def __post_init__(self) -> None:
        if not 0.0 < self.pipeline_efficiency <= 1.0:
            raise ConfigurationError("pipeline_efficiency must be in (0, 1]")
        if self.round_base_seconds < 0 or self.dialing_wait_seconds < 0:
            raise ConfigurationError("overhead times cannot be negative")


@dataclass(frozen=True)
class ConversationRoundEstimate:
    """Predicted behaviour of one conversation round at a given scale."""

    num_users: int
    num_servers: int
    noise_requests: float
    end_to_end_latency_seconds: float
    round_period_seconds: float
    messages_per_second: float
    server_bandwidth_bytes_per_second: float
    client_bandwidth_bytes_per_second: float

    @property
    def total_requests(self) -> float:
        return self.num_users + self.noise_requests


@dataclass(frozen=True)
class DialingRoundEstimate:
    """Predicted behaviour of one dialing round at a given scale."""

    num_users: int
    num_servers: int
    noise_invitations: float
    end_to_end_latency_seconds: float
    client_download_bytes: float
    client_download_bandwidth: float


class VuvuzelaCostModel:
    """Latency/throughput/bandwidth estimates for a Vuvuzela deployment."""

    def __init__(
        self,
        conversation_noise: LaplaceParams,
        dialing_noise: LaplaceParams,
        num_servers: int = 3,
        num_dialing_buckets: int = 1,
        dialing_round_seconds: float = 600.0,
        parameters: CostModelParameters | None = None,
    ) -> None:
        if num_servers < 1:
            raise ConfigurationError("the chain needs at least one server")
        if num_dialing_buckets < 1:
            raise ConfigurationError("dialing needs at least one dead drop")
        self.conversation_noise = conversation_noise
        self.dialing_noise = dialing_noise
        self.num_servers = num_servers
        self.num_dialing_buckets = num_dialing_buckets
        self.dialing_round_seconds = dialing_round_seconds
        self.parameters = parameters or CostModelParameters()

    # ------------------------------------------------------------ conversation

    @property
    def conversation_noise_requests(self) -> float:
        """Cover traffic per round: 2 mu from every server except the last (§8.2)."""
        return 2.0 * self.conversation_noise.mu * max(self.num_servers - 1, 0)

    def conversation_request_bytes(self, hops_remaining: int) -> int:
        """Size of an exchange request with ``hops_remaining`` onion layers left."""
        return EXCHANGE_REQUEST_SIZE + hops_remaining * LAYER_OVERHEAD

    def conversation_latency(self, num_users: int) -> float:
        """End-to-end conversation latency (the y-axis of Figures 9 and 11).

        The paper's model: every request is processed (one DH operation) by
        every server, servers work strictly in sequence within a round, and
        the full protocol costs about twice the bare cryptography.
        """
        total_requests = num_users + self.conversation_noise_requests
        dh_operations = total_requests * self.num_servers
        return (
            self.parameters.round_base_seconds
            + self.parameters.host.round_processing_time(dh_operations)
        )

    def conversation_round_period(self, num_users: int) -> float:
        """Time between successive rounds (shorter than latency: rounds pipeline)."""
        pipeline_depth = self.num_servers * self.parameters.pipeline_efficiency
        return max(self.conversation_latency(num_users) / pipeline_depth, 1e-9)

    def conversation_throughput(self, num_users: int) -> float:
        """Messages per second: every user sends one message per round period."""
        return num_users / self.conversation_round_period(num_users)

    def server_bandwidth(self, num_users: int) -> float:
        """Average bytes/second through the busiest (middle-of-chain) server.

        Counts requests in (with this hop's onion layer), requests out,
        responses in and responses out, averaged over a round period.
        """
        total_requests = num_users + self.conversation_noise_requests
        request_in = self.conversation_request_bytes(hops_remaining=self.num_servers // 2 + 1)
        request_out = self.conversation_request_bytes(hops_remaining=self.num_servers // 2)
        response_in = MESSAGE_BOX_SIZE + (self.num_servers // 2) * RESPONSE_LAYER_OVERHEAD
        response_out = response_in + RESPONSE_LAYER_OVERHEAD
        bytes_per_round = total_requests * (request_in + request_out + response_in + response_out)
        return bytes_per_round / self.conversation_round_period(num_users)

    def client_conversation_bandwidth(self, num_users: int) -> float:
        """Bytes/second a client spends on the conversation protocol (§8.3)."""
        request = self.conversation_request_bytes(hops_remaining=self.num_servers)
        response = MESSAGE_BOX_SIZE + self.num_servers * RESPONSE_LAYER_OVERHEAD
        return (request + response) / self.conversation_round_period(num_users)

    def estimate_conversation_round(self, num_users: int) -> ConversationRoundEstimate:
        return ConversationRoundEstimate(
            num_users=num_users,
            num_servers=self.num_servers,
            noise_requests=self.conversation_noise_requests,
            end_to_end_latency_seconds=self.conversation_latency(num_users),
            round_period_seconds=self.conversation_round_period(num_users),
            messages_per_second=self.conversation_throughput(num_users),
            server_bandwidth_bytes_per_second=self.server_bandwidth(num_users),
            client_bandwidth_bytes_per_second=self.client_conversation_bandwidth(num_users),
        )

    # ----------------------------------------------------------------- dialing

    def dialing_noise_invitations(self) -> float:
        """Noise invitations per round added by the mixing servers."""
        return self.dialing_noise.mu * self.num_dialing_buckets * max(self.num_servers - 1, 0)

    def dialing_latency(self, num_users: int, dialing_fraction: float = 0.05) -> float:
        """End-to-end dialing latency (Figure 10).

        Every online user sends one dialing request (no-op or real); the
        chain work is the same DH-per-request-per-server as conversations,
        plus the time spent waiting behind the concurrently running
        conversation rounds on the shared servers.
        """
        total_requests = num_users + self.dialing_noise_invitations()
        dh_operations = total_requests * self.num_servers
        return (
            self.parameters.dialing_wait_seconds
            + self.parameters.host.round_processing_time(dh_operations)
        )

    def client_dialing_download_bytes(self, num_users: int, dialing_fraction: float = 0.05) -> float:
        """Bytes a client downloads per dialing round (its whole bucket, §8.3)."""
        real = num_users * dialing_fraction / self.num_dialing_buckets
        noise = self.dialing_noise.mu * self.num_servers
        return (real + noise) * INVITATION_SIZE

    def estimate_dialing_round(
        self, num_users: int, dialing_fraction: float = 0.05
    ) -> DialingRoundEstimate:
        download = self.client_dialing_download_bytes(num_users, dialing_fraction)
        return DialingRoundEstimate(
            num_users=num_users,
            num_servers=self.num_servers,
            noise_invitations=self.dialing_noise_invitations()
            + self.dialing_noise.mu * self.num_dialing_buckets,
            end_to_end_latency_seconds=self.dialing_latency(num_users, dialing_fraction),
            client_download_bytes=download,
            client_download_bandwidth=download / self.dialing_round_seconds,
        )

    # ---------------------------------------------------------------- factories

    @classmethod
    def paper(cls, num_servers: int = 3) -> "VuvuzelaCostModel":
        """The model calibrated with the paper's constants (§8.1, §8.2)."""
        return cls(
            conversation_noise=LaplaceParams(mu=300_000, b=13_800),
            dialing_noise=LaplaceParams(mu=13_000, b=770),
            num_servers=num_servers,
        )

    @classmethod
    def from_config(cls, config, parameters: CostModelParameters | None = None) -> "VuvuzelaCostModel":
        """Build a model matching a :class:`~repro.core.config.VuvuzelaConfig`."""
        return cls(
            conversation_noise=config.conversation_noise,
            dialing_noise=config.dialing_noise,
            num_servers=config.num_servers,
            num_dialing_buckets=config.num_dialing_buckets,
            dialing_round_seconds=config.dialing_round_seconds,
            parameters=parameters,
        )


def best_case_crypto_latency(num_users: int, noise_requests: float, num_servers: int,
                             host: HostSpec = PAPER_SERVER) -> float:
    """The paper's §8.2 lower bound: (requests x servers) / DH rate, no overhead."""
    return (num_users + noise_requests) * num_servers / host.dh_ops_per_sec
