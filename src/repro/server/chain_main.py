"""Standalone chain server process: ``python -m repro.server.chain_main``.

Runs one Vuvuzela chain server — both protocol endpoints of one position in
the chain — behind a :class:`~repro.net.tcp.TcpTransport` listener, the way
the paper deploys its servers on separate machines (§8.1).  The process
derives its key pair and noise streams from the shared config seed
(:mod:`repro.core.topology`), so a chain split across processes is
byte-identical to the in-process :class:`~repro.core.system.VuvuzelaSystem`.

Besides the two mixing endpoints, the process serves a small JSON control
endpoint (``server-<i>/control``) used by the deployment launcher and the
benchmarks: liveness, per-round noise accounting, the last server's
observables (access histogram, invitation dead drops) and shutdown.

Typical invocation (the :class:`~repro.core.deployment.DeploymentLauncher`
builds this command line for you)::

    python -m repro.server.chain_main --config '<json>' --index 1 \
        --port 0 --next 127.0.0.1:7003

On startup the process prints ``READY <port>`` to stdout; the launcher waits
for that line to learn OS-assigned ports.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading

from ..core.config import VuvuzelaConfig
from ..core import topology
from ..crypto.backend import set_backend
from ..errors import ProtocolError, ReproError
from ..net import Envelope, TcpTransport, parse_address
from ..net.faults import apply_link_command


class ChainServerProcess:
    """One chain server's endpoints, control plane and lifecycle."""

    def __init__(
        self,
        config: VuvuzelaConfig,
        index: int,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        next_address: tuple[str, int] | None = None,
        request_timeout: float | None = None,
    ) -> None:
        topology.require_seed(config)
        is_last = index == config.num_servers - 1
        if next_address is None and not is_last:
            raise ProtocolError(f"server {index} is not last and needs a --next address")
        self.config = config
        self.index = index
        self.shutdown = threading.Event()
        if request_timeout is None and config.hop_timeout_seconds is not None:
            # This server's blocking send to its successor spans the whole
            # downstream sub-chain's round work, so budget one hop allowance
            # per remaining server — a flat one-hop timeout would fire
            # spuriously on upstream hops of a slow-but-healthy chain.
            remaining = max(config.num_servers - 1 - index, 1)
            request_timeout = config.hop_timeout_seconds * remaining
        self.transport = TcpTransport(host=host, port=port, request_timeout=request_timeout)
        if next_address is not None:
            self.transport.update_routes(
                {
                    topology.endpoint_name(index + 1, "conversation"): next_address,
                    topology.endpoint_name(index + 1, "dialing"): next_address,
                }
            )

        root = topology.root_rng(config)
        self.conversation_noise = topology.NoiseLedger()
        self.dialing_noise = topology.NoiseLedger()
        self.conversation_processor = topology.build_conversation_processor() if is_last else None
        self.dialing_processor = topology.build_dialing_processor(config, root) if is_last else None
        # No engine: the serial default.  Launchers SIGKILL chain servers,
        # and a forked worker pool would outlive its killed parent.
        topology.build_server_endpoints(
            config,
            index,
            self.transport,
            root,
            conversation_processor=self.conversation_processor,
            dialing_processor=self.dialing_processor,
            conversation_observer=self.conversation_noise.observer,
            dialing_observer=self.dialing_noise.observer,
        )
        self.transport.register(topology.control_name(index), self.handle_control)

    def listen(self) -> tuple[str, int]:
        return self.transport.listen()

    def close(self) -> None:
        self.transport.close()

    # ---------------------------------------------------------- control plane

    def handle_control(self, envelope: Envelope) -> bytes:
        try:
            # bytes() first: the payload is a zero-copy view over the TCP
            # frame, and memoryview has no .decode().
            command = json.loads(bytes(envelope.payload).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"malformed control command: {exc}") from exc
        return json.dumps(self._dispatch(command)).encode("utf-8")

    def _dispatch(self, command: dict) -> dict:
        cmd = command.get("cmd")
        if cmd == "ping":
            return {"ok": True, "index": self.index, "endpoints": self.transport.endpoints()}
        if cmd == "noise":
            ledger = (
                self.conversation_noise
                if command.get("protocol") == "conversation"
                else self.dialing_noise
            )
            return {"count": ledger.for_round(int(command["round"]))}
        if cmd == "histogram":
            if self.conversation_processor is None:
                raise ProtocolError("only the last chain server has the access histogram")
            histogram = self.conversation_processor.histograms.get(int(command["round"]))
            if histogram is None:
                raise ProtocolError(f"conversation round {command['round']} has not run here")
            return {
                "singles": histogram.singles,
                "pairs": histogram.pairs,
                "collisions": histogram.collisions,
            }
        if cmd == "invitations":
            if self.dialing_processor is None:
                raise ProtocolError("only the last chain server hosts invitation dead drops")
            store = self.dialing_processor.store_for_round(int(command["round"]))
            return {"store": store.snapshot()}
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


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description="Run one Vuvuzela chain server over TCP.")
    parser.add_argument("--config", required=True, help="VuvuzelaConfig as JSON")
    parser.add_argument("--index", type=int, required=True, help="position in the chain (0-based)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="listen port (0 = OS-assigned)")
    parser.add_argument("--next", default=None, help="host:port of the next chain server")
    parser.add_argument(
        "--backend", default=None, help="force a crypto backend (default: fastest available)"
    )
    args = parser.parse_args(argv)

    config = VuvuzelaConfig.from_json(args.config)
    if args.backend:
        set_backend(args.backend)
    try:
        process = ChainServerProcess(
            config,
            args.index,
            host=args.host,
            port=args.port,
            next_address=parse_address(args.next) if args.next else None,
        )
        _, port = process.listen()
    except ReproError as exc:
        print(f"chain server {args.index} failed to start: {exc}", file=sys.stderr)
        raise SystemExit(1)
    print(f"READY {port}", flush=True)
    try:
        process.shutdown.wait()
    finally:
        process.close()


if __name__ == "__main__":
    main()
