"""Standalone entry server process: ``python -m repro.server.entry_main``.

The untrusted entry server of a networked deployment (§7): it terminates
many client TCP connections, runs the :class:`~repro.runtime.RoundCoordinator`
in *blocking-response* mode — a client's submission is answered with its
round response once the round resolves, so the entry never needs a route
back to any client — and drives each closed batch into the first chain
server over TCP.

Round lifecycle is driven through the control API (JSON over
``MessageKind.CONTROL`` to the ``entry`` endpoint):

``{"cmd": "open-round", "protocol": "conversation", "deadline": 0.5,
"expected": 3}``
    opens the next round's submission window and returns its number; the
    window closes when the deadline fires or when ``expected`` submissions
    arrived, whichever comes first.
``{"cmd": "round-result", "protocol": ..., "round": n, "wait": 30}``
    blocks until the round resolves and returns its accounting
    (accepted / refused / late).
``register`` / ``revoke``
    manage the §9 admission-control accounts.
``{"cmd": "counters"}``
    reads the entry's running totals in one reply: ``refused``, ``late``,
    ``aborted`` (round attempts), ``buffered`` (submissions held for open
    rounds) and ``parked`` (refunds of rounds that failed for good).
    ``ping`` and ``shutdown`` do what they say.

On startup the process prints ``READY <port>`` to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading

from .entry import EntryServer
from ..core.config import VuvuzelaConfig
from ..core import topology
from ..crypto.backend import set_backend
from ..errors import NetworkError, ProtocolError, ReproError, TransportTimeout
from ..net import Envelope, MessageKind, TcpTransport, parse_address
from ..net.faults import apply_link_command
from ..runtime import PROTOCOL_KINDS, RoundCoordinator


class EntryServerProcess:
    """The networked entry server: transport, coordinator, control plane."""

    def __init__(
        self,
        config: VuvuzelaConfig,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        first_server: tuple[str, int],
        last_server: tuple[str, int] | None = None,
        request_timeout: float | None = None,
    ) -> None:
        topology.require_seed(config)
        self.config = config
        self.shutdown = threading.Event()
        # The entry→server-0 request spans the whole chain's round work, so
        # its timeout is the full-chain budget: one hop allowance per server.
        hop_timeout = (
            request_timeout
            if request_timeout is not None
            else (
                config.hop_timeout_seconds * config.num_servers
                if config.hop_timeout_seconds is not None
                else None
            )
        )
        self.transport = TcpTransport(host=host, port=port, request_timeout=hop_timeout)
        self.transport.update_routes(
            {
                topology.endpoint_name(0, "conversation"): first_server,
                topology.endpoint_name(0, "dialing"): first_server,
            }
        )
        # The entry also fronts the paper's invitation CDN: clients download
        # a dialing round's store from here over the same envelope path they
        # submit on, and the entry fetches it (once per round) from the last
        # chain server's control endpoint.
        self._last_control = topology.control_name(config.num_servers - 1)
        if last_server is not None:
            self.transport.add_route(self._last_control, *last_server)
        self.entry = EntryServer(
            network=self.transport,
            first_server={
                MessageKind.CONVERSATION_REQUEST: topology.endpoint_name(0, "conversation"),
                MessageKind.DIALING_REQUEST: topology.endpoint_name(0, "dialing"),
            },
            require_registration=config.require_registration,
            max_requests_per_account_per_round=config.max_conversations_per_client,
        )
        if last_server is not None:
            self.entry.invitation_fetcher = self._fetch_invitations
        self.coordinator = RoundCoordinator(
            self.transport,
            self.entry,
            deadline_seconds=config.round_deadline_seconds,
            blocking_responses=True,
            response_wait_seconds=config.response_wait_seconds,
            max_round_attempts=config.max_round_attempts,
        )
        self.coordinator.control_handler = self.handle_control
        self._next_round = {kind: 0 for kind in PROTOCOL_KINDS.values()}
        self._round_lock = threading.Lock()

    def listen(self) -> tuple[str, int]:
        return self.transport.listen()

    def close(self) -> None:
        # Coordinator first: it cancels deadline timers and unblocks every
        # long-poll, so client connections drain before the sockets vanish.
        self.coordinator.close()
        self.transport.close()

    # ------------------------------------------------------------- downloads

    def _fetch_invitations(self, round_number: int) -> dict:
        """Pull one dialing round's store snapshot from the last chain server."""
        reply = self.transport.send(
            self.entry.name,
            self._last_control,
            json.dumps({"cmd": "invitations", "round": round_number}).encode("utf-8"),
        )
        if reply is None:
            raise NetworkError(
                f"dialing round {round_number}: the last chain server is unreachable"
            )
        data = json.loads(bytes(reply).decode("utf-8"))
        if "store" not in data:
            raise ProtocolError(
                f"dialing round {round_number}: malformed invitation snapshot"
            )
        return data["store"]

    # ---------------------------------------------------------- control plane

    def handle_control(self, envelope: Envelope) -> bytes:
        try:
            # bytes() first: the payload is a zero-copy view over the TCP
            # frame, and memoryview has no .decode().
            command = json.loads(bytes(envelope.payload).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"malformed control command: {exc}") from exc
        return json.dumps(self._dispatch(command)).encode("utf-8")

    def _protocol(self, command: dict) -> MessageKind:
        protocol = command.get("protocol")
        if protocol not in PROTOCOL_KINDS:
            raise ProtocolError(f"unknown protocol {protocol!r}")
        return PROTOCOL_KINDS[protocol]

    def _dispatch(self, command: dict) -> dict:
        cmd = command.get("cmd")
        if cmd == "ping":
            return {"ok": True, "endpoints": self.transport.endpoints()}
        if cmd == "register":
            self.entry.register_account(str(command["name"]))
            return {"ok": True}
        if cmd == "revoke":
            self.entry.revoke_account(str(command["name"]))
            return {"ok": True}
        if cmd == "counters":
            # ``buffered`` and ``parked`` are the two sides of the refund
            # conservation invariant a campaign checks over TCP.
            coordinator = self.coordinator
            return {
                "refused": self.entry.refused_requests,
                "late": coordinator.late_requests,
                "aborted": coordinator.rounds_aborted,
                "buffered": self.entry.buffered_total(),
                "parked": sum(map(len, coordinator.resubmission_queue.values())),
            }
        if cmd == "forget-client":
            # Permanent churn: prune the departed client's parked refunds,
            # dedup digests and per-round pending state (see the coordinator).
            return {"forgotten": self.coordinator.forget_client(str(command["name"]))}
        link_reply = apply_link_command(self.transport, command)
        if link_reply is not None:
            return link_reply
        if cmd == "open-round":
            kind = self._protocol(command)
            deadline = command.get("deadline")
            expected = command.get("expected")
            with self._round_lock:
                round_number = self._next_round[kind]
                self._next_round[kind] += 1
            self.coordinator.open_round(
                kind,
                round_number,
                deadline_seconds=float(deadline) if deadline is not None else None,
                expected_requests=int(expected) if expected is not None else None,
                # Replay support: a recorded round that resolved on attempt N
                # can jump straight to N's noise streams.
                attempt=int(command.get("attempt", 1)),
            )
            return {"round": round_number}
        if cmd == "close-round":
            # Force-close a window early (scheduler failure cleanup): the
            # round runs with whatever submissions arrived, so the in-order
            # drive gate is never wedged on an abandoned open window.
            kind = self._protocol(command)
            window = self.coordinator.window(kind, int(command["round"]))
            if window is None:
                return {"error": f"round {command['round']} has no window"}
            try:
                result = self.coordinator.close_round(window)
            except ReproError as exc:
                return {"error": str(exc)}
            return {"round": result.round_number, "accepted": result.accepted}
        if cmd == "round-result":
            kind = self._protocol(command)
            wait = float(command.get("wait", 60.0))
            try:
                result = self.coordinator.wait_for_result(kind, int(command["round"]), wait)
            except (TransportTimeout, ProtocolError) as exc:
                return {"error": str(exc)}
            # Stragglers may arrive after the round resolved; the live window
            # counter includes them, the resolution-time snapshot does not.
            window = self.coordinator.window(kind, result.round_number)
            return {
                "round": result.round_number,
                "accepted": result.accepted,
                "refused": result.refused,
                "late": window.late if window is not None else result.late,
                "responded": result.responded,
                "attempts": result.attempts,
                "aborts": result.attempts - 1,
            }
        if cmd == "shutdown":
            self.shutdown.set()
            return {"ok": True}
        raise ProtocolError(f"unknown control command {cmd!r}")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description="Run the Vuvuzela entry server over TCP.")
    parser.add_argument("--config", required=True, help="VuvuzelaConfig as JSON")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="listen port (0 = OS-assigned)")
    parser.add_argument(
        "--first-server", required=True, help="host:port of chain server 0"
    )
    parser.add_argument(
        "--last-server",
        default=None,
        help="host:port of the last chain server (enables invitation downloads)",
    )
    parser.add_argument(
        "--backend", default=None, help="force a crypto backend (default: fastest available)"
    )
    args = parser.parse_args(argv)

    config = VuvuzelaConfig.from_json(args.config)
    if args.backend:
        set_backend(args.backend)
    try:
        process = EntryServerProcess(
            config,
            host=args.host,
            port=args.port,
            first_server=parse_address(args.first_server),
            last_server=parse_address(args.last_server) if args.last_server else None,
        )
        _, port = process.listen()
    except ReproError as exc:
        print(f"entry server failed to start: {exc}", file=sys.stderr)
        raise SystemExit(1)
    print(f"READY {port}", flush=True)
    try:
        process.shutdown.wait()
    finally:
        process.close()


if __name__ == "__main__":
    main()
