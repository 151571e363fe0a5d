"""Core public API: configuration, the runnable system, deployment, metrics."""

from .config import VuvuzelaConfig
from .deployment import DeploymentLauncher, NetworkRoundResult
from .metrics import ConversationRoundMetrics, DialingRoundMetrics
from .system import VuvuzelaSystem

__all__ = [
    "ConversationRoundMetrics",
    "DeploymentLauncher",
    "DialingRoundMetrics",
    "NetworkRoundResult",
    "VuvuzelaConfig",
    "VuvuzelaSystem",
]
