"""Shared construction of a deployment's components from one config.

The server roles (:mod:`repro.server.entry_main`,
:mod:`repro.server.chain_main`) are built from this module whoever hosts
them: :class:`~repro.core.system.VuvuzelaSystem`, all in one process, or
their own ``main()`` as TCP subprocesses.  Both must build *the same*
deployment from the same :class:`~repro.core.config.VuvuzelaConfig`:
identical server key pairs, identical per-server noise rng streams,
identical client keys.  That works because :meth:`DeterministicRandom.fork`
derives a child stream purely from ``(seed, label)`` — so a chain server
process can re-derive exactly the streams the in-process system hands its
hosted servers, without ever seeing the other servers' material.  An
unseeded config (in process only) draws its root once, in the driver, and
hands that root to every hosted role.  This module is the single place
those fork labels live.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import VuvuzelaConfig
from ..client import VuvuzelaClient
from ..crypto import DeterministicRandom, KeyPair
from ..crypto.keys import PublicKey
from ..crypto.rng import SecureRandom
from ..errors import ConfigurationError
from ..mixnet import MixServer, ServerRoundView
from ..mixnet.chain import RoundObserver
from ..net import Transport
from ..runtime import PROTOCOL_KINDS, RoundEngine, make_protocol
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
    keypairs: list[KeyPair],
    observers: dict[str, RoundObserver],
    engine: RoundEngine | None = None,
) -> dict[str, ChainServerEndpoint]:
    """Build chain server ``index``'s protocol endpoints on ``transport``,
    by protocol name.

    Everything protocol-specific — noise builders, fork labels, the last
    server's round processors, request kinds — comes from the
    :class:`~repro.runtime.RoundProtocol` plug-ins, so both protocols flow
    through one construction path.  Every host builds its servers here —
    same fork labels, same noise builders, same draw order — so a chain that
    is split across processes is byte-identical to the single-process one
    under a fixed seed.  ``keypairs`` are the whole chain's, derived once
    from ``root``; ``observers`` see each protocol's rounds.
    """
    if not 0 <= index < config.num_servers:
        raise ConfigurationError(f"server index {index} is outside the {config.num_servers}-chain")
    public_keys = [kp.public for kp in keypairs]
    is_last = index == config.num_servers - 1
    endpoints: dict[str, ChainServerEndpoint] = {}
    for name in PROTOCOL_KINDS:
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
            processor=protocol.build_processor(config, root) if is_last else None,
            request_kind=protocol.kind,
        )
    return endpoints
