"""Network substrate: transport interface, in-process and TCP transports, link models."""

from .links import (
    CLIENT_DSL_LINK,
    PAPER_DATACENTER_LINK,
    PAPER_SERVER,
    HostSpec,
    LinkSpec,
)
from .faults import (
    CLIENTS,
    LinkConditioner,
    LinkRule,
    apply_link_command,
    conditioner_for,
    link_target,
)
from .messages import Envelope, MessageKind, Observation
from .tcp import TcpTransport, parse_address
from .transport import Network, TrafficStats, Transport

__all__ = [
    "CLIENT_DSL_LINK",
    "CLIENTS",
    "Envelope",
    "HostSpec",
    "LinkConditioner",
    "LinkRule",
    "LinkSpec",
    "MessageKind",
    "apply_link_command",
    "conditioner_for",
    "Network",
    "Observation",
    "PAPER_DATACENTER_LINK",
    "PAPER_SERVER",
    "TcpTransport",
    "TrafficStats",
    "Transport",
    "link_target",
    "parse_address",
]
