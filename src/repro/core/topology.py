"""Shared construction of a deployment's components from one config.

:class:`~repro.core.system.VuvuzelaSystem` (everything in one process) and
the standalone server processes (:mod:`repro.server.entry_main`,
:mod:`repro.server.chain_main`) must build *the same* deployment from the
same :class:`~repro.core.config.VuvuzelaConfig`: identical server key pairs,
identical per-server noise rng streams, identical client keys.  That works
because :meth:`DeterministicRandom.fork` derives a child stream purely from
``(seed, label)`` — so a chain server process can re-derive exactly the
streams the in-process system would have handed it, without ever seeing the
other servers' material.  This module is the single place those fork labels
live.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import VuvuzelaConfig
from ..client import VuvuzelaClient
from ..conversation import ConversationProcessor
from ..crypto import DeterministicRandom, KeyPair
from ..crypto.keys import PublicKey
from ..crypto.rng import SecureRandom
from ..dialing import DialingProcessor
from ..errors import ConfigurationError
from ..mixnet import MixServer, ServerRoundView
from ..mixnet.chain import RoundObserver, RoundProcessor
from ..net import Transport
from ..runtime import ConversationProtocol, DialingProtocol, RoundEngine, make_protocol
from ..server import ChainServerEndpoint


def endpoint_name(index: int, protocol: str) -> str:
    """The wire name of one protocol instance of one chain server."""
    return f"server-{index}/{protocol}"


def control_name(index: int) -> str:
    """The wire name of one chain server's control endpoint."""
    return f"server-{index}/control"


def root_rng(config: VuvuzelaConfig) -> DeterministicRandom:
    """The deployment's root rng; every component stream is forked off it."""
    if config.seed is not None:
        return DeterministicRandom(config.seed)
    return DeterministicRandom(SecureRandom().random_uint(64))


def require_seed(config: VuvuzelaConfig) -> None:
    """Multi-process deployments need a seed so every process derives the
    same key material; an unseeded config would give each process its own."""
    if config.seed is None:
        raise ConfigurationError(
            "a multi-process deployment requires config.seed so the entry, "
            "chain and client processes derive identical keys"
        )


def server_keypairs(config: VuvuzelaConfig, root: DeterministicRandom) -> list[KeyPair]:
    """Long-term key pairs of the whole chain, in chain order."""
    return [KeyPair.generate(root.fork(f"server-key-{i}")) for i in range(config.num_servers)]


def build_client(
    config: VuvuzelaConfig,
    name: str,
    root: DeterministicRandom,
    server_public_keys: list[PublicKey],
) -> VuvuzelaClient:
    """One user's client, with the deployment-deterministic key and rng."""
    return VuvuzelaClient(
        name=name,
        keys=KeyPair.generate(root.fork(f"client-key-{name}")),
        server_public_keys=list(server_public_keys),
        rng=root.fork(f"client-rng-{name}"),
        max_conversations=config.max_conversations_per_client,
    )


def build_dialing_processor(config: VuvuzelaConfig, root: DeterministicRandom) -> DialingProcessor:
    """The last server's dialing-round processor, §5.3 noise included."""
    return DialingProtocol(num_buckets=config.num_dialing_buckets).build_processor(config, root)


@dataclass
class NoiseLedger:
    """Accumulates, per round, how much cover traffic a set of servers added."""

    per_round: dict[int, int] = field(default_factory=dict)

    def observer(self, view: ServerRoundView) -> None:
        self.per_round[view.round_number] = (
            self.per_round.get(view.round_number, 0) + view.noise_requests_added
        )

    def for_round(self, round_number: int) -> int:
        return self.per_round.get(round_number, 0)


def build_server_endpoints(
    config: VuvuzelaConfig,
    index: int,
    transport: Transport,
    root: DeterministicRandom,
    *,
    engine: RoundEngine | None = None,
    keypairs: list[KeyPair] | None = None,
    conversation_processor: RoundProcessor | None = None,
    dialing_processor: RoundProcessor | None = None,
    conversation_observer: RoundObserver | None = None,
    dialing_observer: RoundObserver | None = None,
) -> tuple[ChainServerEndpoint, ChainServerEndpoint]:
    """Build chain server ``index``'s two protocol endpoints on ``transport``.

    Everything protocol-specific — noise builders, fork labels, processors,
    request kinds — comes from the :class:`~repro.runtime.RoundProtocol`
    plug-ins, so both protocols flow through one construction path.  The mix
    servers are configured exactly the way the in-process system configures
    them — same fork labels, same noise builders, same draw order — so
    a chain that is split across processes is byte-identical to the
    single-process one under a fixed seed.  Pass ``keypairs`` when the
    caller already derived the chain's keys (they come from the same root,
    so deriving them again is pure redundant keygen).
    """
    if keypairs is None:
        keypairs = server_keypairs(config, root)
    if not 0 <= index < config.num_servers:
        raise ConfigurationError(f"server index {index} is outside the {config.num_servers}-chain")
    public_keys = [kp.public for kp in keypairs]
    is_last = index == config.num_servers - 1
    if is_last and (conversation_processor is None or dialing_processor is None):
        raise ConfigurationError("the last chain server needs both round processors")

    processors = {"conversation": conversation_processor, "dialing": dialing_processor}
    observers = {"conversation": conversation_observer, "dialing": dialing_observer}
    endpoints: dict[str, ChainServerEndpoint] = {}
    for name in ("conversation", "dialing"):
        protocol = make_protocol(name, config)
        mix_server = MixServer(
            index=index,
            keypair=keypairs[index],
            chain_public_keys=public_keys,
            rng=root.fork(protocol.server_rng_label(index)),
            noise_builder=(None if is_last else protocol.noise_builder(config)),
            observer=observers[name],
            engine=engine,
        )
        endpoints[name] = ChainServerEndpoint(
            name=endpoint_name(index, name),
            mix_server=mix_server,
            network=transport,
            next_endpoint=(None if is_last else endpoint_name(index + 1, name)),
            processor=processors[name] if is_last else None,
            request_kind=protocol.kind,
        )
    return endpoints["conversation"], endpoints["dialing"]


def build_conversation_processor() -> ConversationProcessor:
    """The last server's conversation-round processor (dead-drop matching)."""
    return ConversationProtocol().build_processor(None, None)
