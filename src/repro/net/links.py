"""Link and host models used for bandwidth/latency accounting.

The deployment simulator (:mod:`repro.simulation`) needs to translate "this
round moved N requests of S bytes across the chain" into seconds and
bytes/second.  These small models describe the capacity of a link or host the
way the paper's evaluation describes its EC2 testbed: 10 Gb/s NICs, 36-core
servers, clients on DSL/3G connections (§8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigurationError


@dataclass(frozen=True)
class LinkSpec:
    """A network link with a fixed bandwidth and propagation delay."""

    bandwidth_bytes_per_sec: float
    latency_seconds: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.bandwidth_bytes_per_sec < math.inf:
            raise ConfigurationError("link bandwidth must be positive and finite")
        if not 0 <= self.latency_seconds < math.inf:
            raise ConfigurationError("link latency must be finite and non-negative")

    def transfer_time(self, num_bytes: float) -> float:
        """Seconds to move ``num_bytes`` across this link (serialisation + propagation)."""
        if num_bytes < 0:
            raise ConfigurationError("cannot transfer a negative number of bytes")
        return self.latency_seconds + num_bytes / self.bandwidth_bytes_per_sec

    # The control-plane wire form: a :class:`~repro.net.faults.LinkRule`
    # embeds a LinkSpec when it is shipped to a live server process.

    def to_dict(self) -> dict:
        return {
            "bandwidth_bytes_per_sec": self.bandwidth_bytes_per_sec,
            "latency_seconds": self.latency_seconds,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LinkSpec":
        if not isinstance(data, dict) or not set(data) <= {
            "bandwidth_bytes_per_sec", "latency_seconds"
        }:
            raise ConfigurationError(f"malformed link spec {data!r}")
        return cls(
            bandwidth_bytes_per_sec=json_number(data["bandwidth_bytes_per_sec"]),
            latency_seconds=json_number(data.get("latency_seconds", 0.0)),
        )


def json_number(value) -> float:
    """A JSON number as a float.  ``true``/``false``, strings, containers and
    integers too large for a float are refused, never coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"expected a number, not {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigurationError(f"{value!r} is out of a float's range") from None


@dataclass(frozen=True)
class HostSpec:
    """Compute capacity of one server, expressed the way the paper does.

    The paper reports that one 36-core c4.8xlarge performs about 340,000
    Curve25519 Diffie-Hellman operations per second, and that everything else
    (serialisation, shuffling, noise generation) costs at most as much again
    (§8.2 "within 2x of the cost of the inevitable cryptographic operations").
    """

    dh_ops_per_sec: float
    cores: int = 36
    protocol_overhead_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.dh_ops_per_sec <= 0:
            raise ConfigurationError("dh_ops_per_sec must be positive")
        if self.cores <= 0:
            raise ConfigurationError("cores must be positive")
        if self.protocol_overhead_factor < 1.0:
            raise ConfigurationError("the protocol overhead factor cannot be below 1")

    def crypto_time(self, dh_operations: float) -> float:
        """Seconds of pure Diffie-Hellman work for ``dh_operations`` operations."""
        if dh_operations < 0:
            raise ConfigurationError("cannot perform a negative number of operations")
        return dh_operations / self.dh_ops_per_sec

    def round_processing_time(self, dh_operations: float) -> float:
        """Crypto time inflated by the protocol overhead factor."""
        return self.crypto_time(dh_operations) * self.protocol_overhead_factor


#: The paper's EC2 c4.8xlarge server (§8.1, §8.2).
PAPER_SERVER = HostSpec(dh_ops_per_sec=340_000, cores=36, protocol_overhead_factor=2.0)

#: The paper's 10 Gb/s data-centre link.
PAPER_DATACENTER_LINK = LinkSpec(bandwidth_bytes_per_sec=10e9 / 8, latency_seconds=0.001)

#: A client on a DSL-class connection (§8.3 argues tens of KB/s suffice).
CLIENT_DSL_LINK = LinkSpec(bandwidth_bytes_per_sec=1_000_000, latency_seconds=0.03)
