"""Parallel round execution: chunk-sharded, multi-core batch crypto.

The paper's servers saturate all their cores on a round's crypto (§8); a
single-threaded Python pipeline cannot.  This package supplies the execution
layer that closes the gap: :class:`RoundEngine` runs a round's peel and
noise wrap, and a dialing round's trial decryption, inline or split across
one forked worker per usable core, and pipelines chunk results back in order
with bounded in-flight memory — byte-identical either way under a fixed rng.

The package also owns round *sequencing*: :class:`RoundCoordinator`
(:mod:`repro.runtime.coordinator`) opens a submission window per round (a
pure :class:`SubmissionWindow` state machine, :mod:`repro.runtime.window`),
collects client requests until a deadline, refuses stragglers, and drives the
batch through the chain over any :class:`~repro.net.transport.Transport`.
"""

from .engine import RoundEngine, default_engine
from .window import RoundResult, SubmissionWindow
from .coordinator import ABORTED, LATE, RoundCoordinator

# The protocol plug-ins and the scheduler sit above the coordinator and pull
# in the protocol packages (conversation, dialing, mixnet); they must stay
# below this line so the package's own engine/coordinator attributes exist
# when those packages import back into ``repro.runtime``.
from .protocols import (
    PROTOCOL_KINDS,
    ConversationProtocol,
    DialingProtocol,
    RoundProtocol,
    build_protocols,
    make_protocol,
)
from .scheduler import (
    CHURN_ACTIONS,
    ChurnEvent,
    ClientSession,
    RoundScheduler,
    ScheduleReport,
)
from .campaign import (
    CAMPAIGN_SHAPES,
    INVARIANTS,
    Campaign,
    CampaignReport,
    InvariantViolation,
    check_invariants,
    edge_rules,
)

__all__ = [
    "ABORTED",
    "CAMPAIGN_SHAPES",
    "Campaign",
    "CampaignReport",
    "INVARIANTS",
    "InvariantViolation",
    "CHURN_ACTIONS",
    "ChurnEvent",
    "LATE",
    "PROTOCOL_KINDS",
    "ClientSession",
    "ConversationProtocol",
    "DialingProtocol",
    "RoundCoordinator",
    "RoundEngine",
    "RoundProtocol",
    "RoundResult",
    "RoundScheduler",
    "ScheduleReport",
    "SubmissionWindow",
    "build_protocols",
    "check_invariants",
    "default_engine",
    "edge_rules",
    "make_protocol",
]
