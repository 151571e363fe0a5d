"""Vuvuzela: scalable private messaging resistant to traffic analysis.

A from-scratch Python reproduction of the SOSP 2015 paper by van den Hooff,
Lazar, Zaharia and Zeldovich.  The package implements the complete system —
conversation and dialing protocols, mix chain, dead drops, differential-
privacy noise, clients and servers — plus the deployment simulator, adversary
models and baselines used to reproduce the paper's evaluation.

Quickstart::

    from repro import VuvuzelaConfig, VuvuzelaSystem

    system = VuvuzelaSystem(VuvuzelaConfig.small(seed=1))
    alice, bob = system.add_client("alice"), system.add_client("bob")

    alice.dial(bob.public_key)
    system.run_dialing_round()
    bob.accept_call(bob.incoming_calls[0])
    alice.start_conversation(bob.public_key)

    alice.send_message("hi Bob!")
    system.run_conversation_round()
    print(bob.messages_from(alice.public_key))
"""

from .core import (
    ConversationRoundMetrics,
    DeploymentLauncher,
    DialingRoundMetrics,
    VuvuzelaConfig,
    VuvuzelaSystem,
)
from .client import ClientConnection, VuvuzelaClient
from .errors import ReproError

__version__ = "0.1.0"

__all__ = [
    "ClientConnection",
    "ConversationRoundMetrics",
    "DeploymentLauncher",
    "DialingRoundMetrics",
    "ReproError",
    "VuvuzelaClient",
    "VuvuzelaConfig",
    "VuvuzelaSystem",
    "__version__",
]
