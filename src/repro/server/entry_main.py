"""The entry server role, and its standalone process: ``python -m repro.server.entry_main``.

:class:`EntryServerProcess` is the untrusted entry server (§7) — an
:class:`~repro.server.entry.EntryServer` behind a
:class:`~repro.runtime.RoundCoordinator` — on whatever
:class:`~repro.net.Transport` its host hands it.
:class:`~repro.core.system.VuvuzelaSystem` hosts it on its in-memory
:class:`~repro.net.Network`, where the driver submits for the clients and
takes the grouped responses.  :func:`main` hosts it on a
:class:`~repro.net.tcp.TcpTransport` in *blocking-response* mode: it
terminates many client connections, and a client's submission is answered
with its round response once the round resolves, so the entry never needs a
route back to any client.

Its control plane (JSON over ``MessageKind.CONTROL`` to the ``entry``
endpoint, or a direct ``_dispatch`` call in process; see
:mod:`repro.server.control`), command by command:

- ``ping`` — liveness, plus the transport's endpoints;
- ``register`` / ``revoke`` / ``forget-client`` (``name``) — the §9
  admission accounts, and pruning a departed client's parked refunds and
  per-round state;
- ``counters`` — the running totals ``refused``, ``late``, ``aborted``
  (round attempts), ``buffered`` (submissions held for open rounds) and
  ``parked`` (refunds of rounds that failed for good, ``{"<kind>/<round>":
  count}``), and ``next``, the round number the next ``open-round`` of each
  protocol allocates (``{"<protocol>": round}``);
- ``add-link-rule`` / ``heal-links`` / ``link-stats`` — rules on what the
  entry sends (:func:`~repro.net.faults.apply_link_command`);
- ``force-attempts`` (``plan``: ``[protocol, round, attempt]`` entries) —
  replay support: the open that allocates ``round`` starts it at
  ``attempt``;
- ``open-round`` (``protocol``; optional ``deadline``, ``expected``) — open
  the protocol's next window, return its number; it closes at the deadline
  or on the ``expected``-th submission.  The entry is the one allocator of
  round numbers, in either deployment shape;
- ``close-round`` (``protocol``, ``round``) — force a window closed early and
  drive its round; a round that fails for good raises its typed error;
- ``round-result`` (``protocol``, ``round``; optional ``wait``) — block
  until the round resolves, return its accounting;
- ``shutdown`` — end :func:`main`.

On startup the process prints ``READY <port>`` to stdout.
"""

from __future__ import annotations

import functools
import threading
from typing import Callable

from .control import (
    MAX_ATTEMPT,
    ControlledProcess,
    integer,
    protocol_name,
    request,
    rows,
    seconds,
    serve,
    text,
)
from .entry import EntryServer
from ..core import topology
from ..core.config import VuvuzelaConfig
from ..errors import ProtocolError, RoundAbortedError, TransportTimeout
from ..net import MessageKind, TcpTransport, Transport, parse_address
from ..net.faults import apply_link_command
from ..runtime import PROTOCOL_KINDS, RoundCoordinator


class EntryServerProcess(ControlledProcess):
    """The entry server and its coordinator on ``transport``.

    ``blocking_responses`` is the coordinator's mode: ``True`` when clients
    long-poll over their own connections (TCP), ``False`` when the driver
    collects the grouped responses itself (in process).
    ``last_server`` reaches the last chain server's control plane; with it
    the entry fronts the paper's invitation CDN, fetching each dialing
    round's store once and serving client downloads from that copy.
    """

    def __init__(
        self,
        config: VuvuzelaConfig,
        transport: Transport,
        *,
        blocking_responses: bool,
        last_server: Callable[[dict], dict] | None = None,
    ) -> None:
        super().__init__(transport)
        self.entry = EntryServer(
            network=transport,
            first_server={
                kind: topology.endpoint_name(0, name) for name, kind in PROTOCOL_KINDS.items()
            },
            require_registration=config.require_registration,
            max_requests_per_account_per_round=config.max_conversations_per_client,
        )
        if last_server is not None:
            self.entry.invitation_fetcher = lambda round_number: last_server(
                {"cmd": "invitations", "round": round_number}
            )["store"]
        # The coordinator owns the entry endpoint: every submission passes
        # through its round window (deadlines, straggler refusal) before
        # reaching the entry server's admission control.
        self.coordinator = RoundCoordinator(
            transport,
            self.entry,
            deadline_seconds=config.round_deadline_seconds,
            blocking_responses=blocking_responses,
            response_wait_seconds=config.response_wait_seconds,
            max_round_attempts=config.max_round_attempts,
        )
        self.coordinator.control_handler = self.handle_control
        #: The one round-number allocator: the next round per kind.
        self._next_round = {kind: 0 for kind in PROTOCOL_KINDS.values()}
        #: Replay support, beside the allocator: forced first-attempt
        #: numbers by (kind, round), spent by the open that allocates them.
        self._forced_attempts: dict[tuple[MessageKind, int], int] = {}
        self._round_lock = threading.Lock()

    def close(self) -> None:
        # Cancels deadline timers and unblocks every long-poll, so client
        # connections drain before the sockets vanish.
        self.coordinator.close()

    def _dispatch(self, command: dict) -> dict:
        cmd = command.get("cmd")
        coordinator = self.coordinator
        if cmd == "ping":
            return {"ok": True, "endpoints": self.transport.endpoints()}
        if cmd == "register":
            self.entry.register_account(text(command, "name"))
            return {"ok": True}
        if cmd == "revoke":
            self.entry.revoke_account(text(command, "name"))
            return {"ok": True}
        if cmd == "counters":
            # ``buffered`` and ``parked`` are the two sides of the refund
            # conservation invariant a campaign checks.
            return {
                "refused": self.entry.refused_requests,
                "late": coordinator.late_requests,
                "aborted": coordinator.rounds_aborted,
                "buffered": self.entry.buffered_total(),
                "parked": {
                    f"{kind.value}/{round_number}": len(entries)
                    for (kind, round_number), entries in list(
                        coordinator.resubmission_queue.items()
                    )
                    if entries
                },
                "next": {name: self._next_round[kind] for name, kind in PROTOCOL_KINDS.items()},
            }
        if cmd == "forget-client":
            # Permanent churn: prune the departed client's parked refunds,
            # dedup digests and per-round pending state (see the coordinator).
            return {"forgotten": coordinator.forget_client(text(command, "name"))}
        link_reply = apply_link_command(self.transport, command)
        if link_reply is not None:
            return link_reply
        if cmd == "force-attempts":
            # Replay support: a recorded round that resolved on attempt N
            # jumps straight to N's noise streams.  The whole plan is
            # checked before any of it is kept.
            plan = _attempt_plan(command)
            with self._round_lock:
                self._forced_attempts.update(plan)
            return {"forced": len(plan)}
        if cmd == "open-round":
            kind = PROTOCOL_KINDS[protocol_name(command)]
            deadline = seconds(command, "deadline", default=None)
            expected = integer(command, "expected", default=None)
            # The number (and its forced attempt) is spent only once its
            # window is open: a refused open leaves the allocator as it was.
            with self._round_lock:
                key = (kind, self._next_round[kind])
                coordinator.open_round(
                    kind,
                    key[1],
                    deadline_seconds=deadline,
                    expected_requests=expected,
                    attempt=self._forced_attempts.get(key, 1),
                )
                self._forced_attempts.pop(key, None)
                self._next_round[kind] += 1
            return {"round": key[1]}
        if cmd == "close-round":
            # Close a window and drive its round: the driver's explicit close,
            # and failure cleanup — the round runs with whatever submissions
            # arrived, so the in-order drive gate is never wedged on an
            # abandoned open window.  A round that fails for good raises.
            kind = PROTOCOL_KINDS[protocol_name(command)]
            round_number = integer(command, "round")
            window = coordinator.window(kind, round_number)
            if window is None:
                raise ProtocolError(f"{kind.value} round {round_number} has no window")
            try:
                result = coordinator.close_round(window)
            except RoundAbortedError:
                # Long-poll mode: the attempt was refunded and its retry
                # window is open; ``round-result`` waits the retry out.
                return {"round": round_number}
            return {"round": result.round_number, "accepted": result.accepted}
        if cmd == "round-result":
            kind = PROTOCOL_KINDS[protocol_name(command)]
            round_number = integer(command, "round")
            wait = seconds(command, "wait", default=60.0)
            try:
                result = coordinator.wait_for_result(kind, round_number, wait)
            except (TransportTimeout, ProtocolError) as exc:
                return {"error": str(exc)}
            # Stragglers may arrive after the round resolved; the live window
            # counter includes them, the resolution-time snapshot does not.
            window = coordinator.window(kind, result.round_number)
            return {
                "round": result.round_number,
                "accepted": result.accepted,
                "refused": result.refused,
                "late": window.late if window is not None else result.late,
                "responded": result.responded,
                "attempts": result.attempts,
            }
        if cmd == "shutdown":
            self.shutdown.set()
            return {"ok": True}
        raise ProtocolError(f"unknown control command {cmd!r}")


def _attempt_plan(command: dict) -> dict[tuple[MessageKind, int], int]:
    """``force-attempts``' ``plan``, every entry checked: ``{(kind, round):
    attempt}``."""
    plan = {}
    for protocol, round_number, attempt in rows(command, "plan", 3):
        entry = {"cmd": command["cmd"], "protocol": protocol, "round": round_number,
                 "attempt": attempt}
        key = (PROTOCOL_KINDS[protocol_name(entry)], integer(entry, "round"))
        plan[key] = integer(entry, "attempt", minimum=1, maximum=MAX_ATTEMPT)
    return plan


def _add_arguments(parser) -> None:
    parser.add_argument("--first-server", required=True, help="host:port of chain server 0")
    parser.add_argument(
        "--last-server",
        default=None,
        help="host:port of the last chain server (enables invitation downloads)",
    )


def _build(config: VuvuzelaConfig, args, _root) -> EntryServerProcess:
    # The entry→server-0 request spans the whole chain's round work, so its
    # timeout is the full-chain budget: one hop allowance per server.
    timeout = None
    if config.hop_timeout_seconds is not None:
        timeout = config.hop_timeout_seconds * config.num_servers
    transport = TcpTransport(host=args.host, port=args.port, request_timeout=timeout)
    first = parse_address(args.first_server)
    transport.update_routes({topology.endpoint_name(0, name): first for name in PROTOCOL_KINDS})
    last_server = None
    if args.last_server is not None:
        last_control = topology.control_name(config.num_servers - 1)
        transport.add_route(last_control, *parse_address(args.last_server))
        last_server = functools.partial(request, transport, "entry", last_control)
    return EntryServerProcess(
        config, transport, blocking_responses=True, last_server=last_server
    )


def main(argv: list[str] | None = None) -> None:
    serve("entry server", argv, _add_arguments, _build)


if __name__ == "__main__":
    main()
