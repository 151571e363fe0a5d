"""One chain server role, and its standalone process: ``python -m repro.server.chain_main``.

:class:`ChainServerProcess` is one Vuvuzela chain server — both protocol
endpoints of one position in the chain — on whatever
:class:`~repro.net.Transport` its host hands it: the in-memory
:class:`~repro.net.Network` of :class:`~repro.core.system.VuvuzelaSystem`,
or, through :func:`main`, a :class:`~repro.net.tcp.TcpTransport` listener
of its own, the way the paper deploys its servers on separate machines
(§8.1).  Its key pair and noise streams come from the deployment's root rng
(:mod:`repro.core.topology`), so a chain split across processes is
byte-identical to the in-process one.

Its control plane (``server-<i>/control`` over TCP, a direct ``_dispatch``
call in process; see :mod:`repro.server.control`), command by command:

- ``ping`` — liveness, plus the transport's endpoints;
- ``noise`` (``protocol``, ``round``) — the cover traffic this server added;
- ``histogram`` / ``invitations`` (``round``; last server only) — the
  round's (m1, m2) access histogram, or its invitation store snapshot;
- ``add-link-rule`` / ``heal-links`` / ``link-stats`` — rules on what this
  server sends (:func:`~repro.net.faults.apply_link_command`);
- ``shutdown`` — end :func:`main`.

Typical invocation (the :class:`~repro.core.deployment.DeploymentLauncher`
builds this command line for you)::

    python -m repro.server.chain_main --config '<json>' --index 1 \
        --port 0 --next 127.0.0.1:7003

On startup the process prints ``READY <port>`` to stdout; the launcher waits
for that line to learn OS-assigned ports.
"""

from __future__ import annotations

from .control import ControlledProcess, integer, protocol_name, serve
from ..core import topology
from ..core.config import VuvuzelaConfig
from ..crypto import DeterministicRandom, KeyPair
from ..errors import ProtocolError
from ..net import TcpTransport, Transport, parse_address
from ..net.faults import apply_link_command
from ..runtime import PROTOCOL_KINDS, RoundEngine


class ChainServerProcess(ControlledProcess):
    """One chain server's endpoints and control plane, on ``transport``.

    ``root`` and ``keypairs`` are the deployment's root rng and the chain's
    key pairs — the host derives them once, so an unseeded in-process
    deployment still gives its servers the keys its clients encrypt to.
    ``engine`` runs the peels and noise wraps (the serial default when
    ``None``).
    """

    def __init__(
        self,
        config: VuvuzelaConfig,
        index: int,
        transport: Transport,
        root: DeterministicRandom,
        keypairs: list[KeyPair],
        *,
        engine: RoundEngine | None = None,
    ) -> None:
        super().__init__(transport)
        self.index = index
        #: Per protocol, the cover traffic this server added to each round.
        self.noise = {name: topology.NoiseLedger() for name in PROTOCOL_KINDS}
        self.endpoints = topology.build_server_endpoints(
            config,
            index,
            transport,
            root,
            keypairs=keypairs,
            observers={name: ledger.observer for name, ledger in self.noise.items()},
            engine=engine,
        )
        transport.register(topology.control_name(index), self.handle_control)

    def _dispatch(self, command: dict) -> dict:
        cmd = command.get("cmd")
        if cmd == "ping":
            return {"ok": True, "index": self.index, "endpoints": self.transport.endpoints()}
        if cmd == "noise":
            ledger = self.noise[protocol_name(command)]
            return {"count": ledger.for_round(integer(command, "round"))}
        if cmd == "histogram":
            round_number = integer(command, "round")
            processor = self.endpoints["conversation"].processor
            if processor is None:
                raise ProtocolError("only the last chain server has the access histogram")
            histogram = processor.histograms.get(round_number)
            if histogram is None:
                raise ProtocolError(f"conversation round {round_number} has not run here")
            return {
                "singles": histogram.singles,
                "pairs": histogram.pairs,
                "collisions": histogram.collisions,
            }
        if cmd == "invitations":
            round_number = integer(command, "round")
            processor = self.endpoints["dialing"].processor
            if processor is None:
                raise ProtocolError("only the last chain server hosts invitation dead drops")
            return {"store": processor.store_for_round(round_number).snapshot()}
        # Chaos over TCP: the launcher ships link rules to the process whose
        # outgoing hop should misbehave (e.g. drop the batch this server
        # forwards to its successor, once).
        link_reply = apply_link_command(self.transport, command)
        if link_reply is not None:
            return link_reply
        if cmd == "shutdown":
            self.shutdown.set()
            return {"ok": True}
        raise ProtocolError(f"unknown control command {cmd!r}")


def _add_arguments(parser) -> None:
    parser.add_argument("--index", type=int, required=True, help="position in the chain (0-based)")
    parser.add_argument("--next", default=None, help="host:port of the next chain server")


def _build(config: VuvuzelaConfig, args, root: DeterministicRandom) -> ChainServerProcess:
    index = args.index
    if args.next is None and index != config.num_servers - 1:
        raise ProtocolError(f"server {index} is not last and needs a --next address")
    # This server's blocking send to its successor spans the whole
    # downstream sub-chain's round work, so budget one hop allowance per
    # remaining server — a flat one-hop timeout would fire spuriously on
    # upstream hops of a slow-but-healthy chain.
    timeout = None
    if config.hop_timeout_seconds is not None:
        timeout = config.hop_timeout_seconds * max(config.num_servers - 1 - index, 1)
    transport = TcpTransport(host=args.host, port=args.port, request_timeout=timeout)
    if args.next is not None:
        successor = parse_address(args.next)
        transport.update_routes(
            {topology.endpoint_name(index + 1, name): successor for name in PROTOCOL_KINDS}
        )
    # No engine: the serial default.  Launchers SIGKILL chain servers, and a
    # forked worker pool would outlive its killed parent.
    return ChainServerProcess(
        config, index, transport, root, topology.server_keypairs(config, root)
    )


def main(argv: list[str] | None = None) -> None:
    serve("chain server", argv, _add_arguments, _build)


if __name__ == "__main__":
    main()
