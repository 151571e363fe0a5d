"""Launch a real multi-process Vuvuzela deployment on localhost TCP.

:class:`DeploymentLauncher` spawns the deployment shape the paper evaluates
(§8.1) — one untrusted entry server in front of a chain of N mix servers,
each a separate OS process listening on its own socket — from a single
:class:`VuvuzelaConfig`, and wires clients to the entry over
:class:`~repro.net.tcp.TcpTransport` connections.

Because every process derives its keys and noise streams from the shared
config seed (:mod:`repro.core.topology`), a scenario run through the
launcher produces *identical protocol outcomes* to the same scenario run
through the in-process :class:`~repro.core.system.VuvuzelaSystem` — the
integration tests assert exactly that.

Typical use::

    config = VuvuzelaConfig.small(seed=7)
    with DeploymentLauncher(config) as deployment:
        alice = deployment.add_client("alice")
        bob = deployment.add_client("bob")
        alice.client.dial(bob.client.public_key)
        deployment.run_dialing_round([alice, bob])
        ...

Rounds are driven through the entry server's control API: the launcher opens
a submission window (deadline and/or expected request count), the client
connections submit — each submission long-polls until the round resolves —
and the launcher collects the round's accounting.

Everything that is not transport or process supervision — population, ledger
records, ``run_conversation_round`` / ``run_dialing_round`` /
``run_continuous`` / ``run_swarm_round`` — is inherited from
:class:`~repro.core.driver.RoundDriver`; this module supplies the TCP seam.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from queue import Empty, Queue

from . import topology
from .config import VuvuzelaConfig
from .driver import RoundDriver
from ..client import ClientConnection, VuvuzelaClient
from ..deaddrop import InvitationDropStore
from ..errors import NetworkError, ProtocolError
from ..net import (
    CLIENTS,
    LinkConditioner,
    LinkRule,
    MessageKind,
    TcpTransport,
    conditioner_for,
    link_target,
)
from ..server.wire import decode_collect_reply, encode_collect_request
from ..runtime.protocols import RoundProtocol
from ..runtime.scheduler import ScheduledRound

#: Client names per ``RESPONSE_COLLECT`` frame when a swarm round's responses
#: are pulled down from the entry.
COLLECT_CHUNK = 4096


@dataclass
class ServerProcess:
    """One spawned server process, where it listens, and how to respawn it."""

    name: str
    process: subprocess.Popen
    host: str
    port: int
    #: The module arguments it was spawned with (without the python binary),
    #: kept so :meth:`DeploymentLauncher.restart_server` can respawn it on
    #: the same port after a crash.
    args: list[str] = field(default_factory=list)
    #: The thread draining the process's stdout; it closes the pipe at EOF.
    pump: threading.Thread | None = None

    @property
    def alive(self) -> bool:
        return self.process.poll() is None

    def reap(self, timeout: float = 5.0) -> None:
        """After the process exited: let its stdout pump close the pipe."""
        if self.pump is not None:
            self.pump.join(timeout)


@dataclass
class NetworkRoundResult:
    """The launcher's view of one networked round."""

    protocol: str
    round_number: int
    accepted: int
    refused: int
    late: int
    responded: int
    wall_clock_seconds: float
    #: Chain-drive attempts aborted by a failure before this round's
    #: successful re-run (0 = clean round).
    aborts: int = 0

    def ledger_fields(self) -> dict:
        """The entry's window accounting, as the ledger records it."""
        return {
            "attempts": self.aborts + 1,
            "aborted_attempts": self.aborts,
            "accepted": self.accepted,
            "refused": self.refused,
            "late": self.late,
        }


class DeploymentLauncher(RoundDriver):
    """Spawns entry + N chain servers as subprocesses and connects clients.

    The TCP :class:`~repro.core.driver.RoundDriver`: server processes make the
    noise draws and own the windows; the launcher drives every round over the
    control plane, so it observes — and records — the same lifecycle the
    in-process shape does.
    """

    shape = "tcp"
    #: One connection, strictly ordered chunks: verdicts of chunk k gate the
    #: framing of chunk k+1, so pipelining adds nothing over TCP.
    swarm_pipelined = False

    def __init__(
        self,
        config: VuvuzelaConfig | None = None,
        *,
        host: str = "127.0.0.1",
        python: str = sys.executable,
        startup_timeout: float = 60.0,
        request_timeout: float | None = None,
        round_deadline_seconds: float | None = None,
        probe_timeout: float = 2.0,
        deadline_only_windows: bool = False,
    ) -> None:
        super().__init__(config)
        topology.require_seed(self.config)
        self.host = host
        self.python = python
        self.startup_timeout = startup_timeout
        #: Client/control request timeout; must out-wait a full round
        #: (submission window + chain + response hold) since submissions
        #: long-poll — derived from the config's round knobs unless
        #: overridden explicitly.
        self.request_timeout = (
            request_timeout
            if request_timeout is not None
            else self.config.client_request_timeout_seconds
        )
        #: Liveness probes need their own short deadline: pinging a wedged
        #: process over the long-poll-sized control timeout would block
        #: ``is_alive`` for minutes.
        self.probe_timeout = probe_timeout
        self.round_deadline_seconds = (
            round_deadline_seconds
            if round_deadline_seconds is not None
            else self.config.round_deadline_seconds
        )
        #: The paper's deployment shape: submission windows close at their
        #: deadline, never early on an expected request count.  Rounds then
        #: take a fixed wall-clock window regardless of who shows up — which
        #: is exactly the idle time the overlapping scheduler hides.
        self.deadline_only_windows = deadline_only_windows
        if deadline_only_windows and self.round_deadline_seconds is None:
            raise ProtocolError(
                "deadline_only_windows needs round_deadline_seconds — a window "
                "with neither a deadline nor an expected count never closes"
            )
        #: A pre-opened window's deadline timer starts at open time, so
        #: pre-opening during the previous round's mix would silently shrink
        #: the submission window — the scheduler skips it in this mode.
        self.preopen_windows = not deadline_only_windows
        self.servers: list[ServerProcess] = []
        self.entry_process: ServerProcess | None = None
        #: Every process ever spawned, in spawn order — the teardown list.
        #: ``servers`` is only assigned once the whole chain is up, so a
        #: failed startup must still be able to reap its partial chain.
        self._spawned: list[ServerProcess] = []
        #: Every known client's connection, online or parked (a parked one
        #: keeps its counters and gets a fresh transport on resume).
        self._connections: dict[str, ClientConnection] = {}
        self._control: TcpTransport | None = None
        self._probe: TcpTransport | None = None
        self._started = False
        #: Link rules shipped to live processes, by target name — re-sent to
        #: a chain server when :meth:`restart_server` respawns it (a fresh
        #: process has no rules; the scenario's are deployment state).
        self._shipped_rules: dict[str, list[tuple[dict, int]]] = {}
        #: One launcher-side conditioner shared by every client connection's
        #: transport: the ``"clients"`` target's rules (DSL/3G access, §8).
        self._client_conditioner: LinkConditioner | None = None

    # ------------------------------------------------------------- subprocesses

    def _spawn(self, name: str, args: list[str]) -> ServerProcess:
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [self.python, *args],
            stdout=subprocess.PIPE,
            stderr=None,  # server stderr passes through for debuggability
            env=env,
            text=True,
        )
        port, pump = self._await_ready(name, process)
        server = ServerProcess(
            name=name, process=process, host=self.host, port=port, args=args, pump=pump
        )
        self._spawned.append(server)
        return server

    def _await_ready(self, name: str, process: subprocess.Popen) -> tuple[int, threading.Thread]:
        """Wait for the child's ``READY <port>`` line (ports are OS-assigned).

        Returns the port and the thread that keeps draining the child's
        stdout (so a chatty server never blocks on a full pipe) and closes
        the pipe once the child exits.
        """
        lines: Queue[str | None] = Queue()

        def pump() -> None:
            assert process.stdout is not None
            with process.stdout:
                for line in process.stdout:
                    lines.put(line)
            lines.put(None)

        thread = threading.Thread(target=pump, name=f"{name}-stdout", daemon=True)
        thread.start()
        deadline = time.monotonic() + self.startup_timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                process.kill()
                process.wait()
                raise NetworkError(f"{name} did not report READY within {self.startup_timeout}s")
            try:
                line = lines.get(timeout=remaining)
            except Empty:
                continue
            if line is None:
                raise NetworkError(
                    f"{name} exited during startup (code {process.wait()})"
                )
            if line.startswith("READY "):
                return int(line.split()[1]), thread

    def start(self) -> "DeploymentLauncher":
        """Spawn the chain (last server first, so --next targets exist) + entry."""
        if self._started:
            return self
        self._started = True
        # A fresh entry process allocates rounds from zero again.
        self._next_rounds = {"conversation": 0, "dialing": 0}
        config_json = self.config.to_json()
        next_port: int | None = None
        chain: list[ServerProcess] = []
        try:
            for index in reversed(range(self.config.num_servers)):
                args = [
                    "-m",
                    "repro.server.chain_main",
                    "--config",
                    config_json,
                    "--index",
                    str(index),
                    "--host",
                    self.host,
                ]
                if next_port is not None:
                    args += ["--next", f"{self.host}:{next_port}"]
                server = self._spawn(f"server-{index}", args)
                chain.append(server)
                next_port = server.port
            self.servers = list(reversed(chain))
            self.entry_process = self._spawn(
                "entry",
                [
                    "-m",
                    "repro.server.entry_main",
                    "--config",
                    config_json,
                    "--host",
                    self.host,
                    "--first-server",
                    f"{self.host}:{self.servers[0].port}",
                    # The entry also fronts the invitation CDN: it fetches
                    # each dialing round's store from the last chain server
                    # and serves client DIAL_DOWNLOAD requests from cache.
                    "--last-server",
                    f"{self.host}:{self.servers[-1].port}",
                ],
            )
        except Exception:
            self.stop()
            raise
        self._control = self._client_transport(self.request_timeout)
        self._probe = self._client_transport(self.probe_timeout)
        return self

    def stop(self) -> None:
        """Shut every process down (politely, then firmly) and close sockets.

        Re-entrant and restartable: a stopped launcher can :meth:`start`
        again — it spawns a fresh deployment (new processes, new ports), so
        clients must be re-added afterwards.
        """
        self._end_session()
        if self._control is not None:
            for server in self.servers:
                if not server.alive:
                    continue  # no point in a shutdown RPC to a crashed server
                try:
                    self.server_control(server.name, {"cmd": "shutdown"})
                except (NetworkError, ProtocolError):
                    pass
            try:
                self.entry_control({"cmd": "shutdown"})
            except (NetworkError, ProtocolError):
                pass
        polite = self._control is not None  # shutdown RPCs were sent above
        for server in self._spawned:
            process = server.process
            if not polite:
                process.terminate()
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                process.terminate()
                try:
                    process.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
            server.reap()
        self.engine.close()
        for connection in self._connections.values():
            connection.transport.close()  # idempotent: parked ones closed at park time
        self._connections = {}
        self.clients = {}
        self._parked = {}
        if self._control is not None:
            self._control.close()
        if self._probe is not None:
            self._probe.close()
        self.servers = []
        self.entry_process = None
        self._spawned = []
        self._control = None
        self._probe = None
        # Without this reset, start() on a stopped launcher silently no-ops
        # and hands back a dead deployment.
        self._started = False

    def __enter__(self) -> "DeploymentLauncher":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    # ------------------------------------------------------- driver seam: ledger

    def _bind_ledger(self, ledger) -> dict:
        if self._client_conditioner is not None:
            self._client_conditioner.ledger = ledger
        # A TCP replay must rebuild the launcher in the same window mode:
        # deadline-only windows never close early on expected counts, which
        # changes the refused/late accounting.  The effective deadline rides
        # along because it may have been a launcher-level override rather
        # than a config knob.
        return {
            "deadline_only_windows": self.deadline_only_windows,
            "round_deadline_seconds": self.round_deadline_seconds,
        }

    def _retry_transient(self, call, *, timeout: float = 10.0):
        """Run a control-plane call, tolerating a just-(re)started server.

        A round resolves the instant a crashed server rejoins the chain, but
        that server's control listener may still be a few milliseconds from
        accepting — and the launcher's connection pool may hold dead sockets
        to the old process.  Anything that must talk to a fresh process right
        after a respawn (round-record observable reads, link-rule
        re-shipping) retries transient failures instead of losing to the
        race."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return call()
            except (NetworkError, ProtocolError):
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.1)

    # --------------------------------------------------------- crash recovery

    def _find(self, name_or_index: str | int) -> ServerProcess:
        if isinstance(name_or_index, str) and name_or_index == "entry":
            if self.entry_process is None:
                raise ProtocolError("the deployment has no entry process")
            return self.entry_process
        index = self._chain_index(name_or_index)
        if not 0 <= index < len(self.servers):
            raise ProtocolError(f"no chain server {name_or_index!r}")
        return self.servers[index]

    def kill_server(self, name_or_index: str | int) -> ServerProcess:
        """SIGKILL one server process — no shutdown RPC, no warning.

        This is the §6 failure model: a server vanishes mid-round.  In-flight
        batches through it fail, the coordinator aborts the round, and the
        round re-runs once the server is back (:meth:`restart_server`).
        """
        server = self._find(name_or_index)
        server.process.kill()
        server.process.wait(timeout=10.0)
        server.reap()
        self._record("kill_server", {"name": server.name})
        return server

    def restart_server(self, name_or_index: str | int) -> ServerProcess:
        """Respawn a (crashed or killed) server on its original port.

        The replacement process derives the same keys and noise streams from
        the shared config seed (:mod:`repro.core.topology`) and listens on
        the same port, so the rest of the deployment rejoins it without any
        route changes — peers simply reconnect on their next send.

        Only chain servers are restartable this way: everything they need is
        derivable from the seed.  The entry process holds runtime-only state
        (registered accounts, round counters) that a respawn would silently
        lose — restart the whole deployment (``stop()`` / ``start()``)
        instead.
        """
        if name_or_index == "entry":
            raise ProtocolError(
                "the entry process cannot be restarted in place: its account "
                "registry and round counters are runtime state a respawn "
                "would silently lose — stop() and start() the deployment"
            )
        old = self._find(name_or_index)
        if old.alive:
            old.process.kill()
        old.process.wait(timeout=10.0)
        old.reap()
        args = [arg for arg in old.args]
        if "--port" in args:
            args[args.index("--port") + 1] = str(old.port)
        else:
            args += ["--port", str(old.port)]
        replacement = self._spawn(old.name, args)
        if replacement.port != old.port:  # pragma: no cover - defensive
            raise NetworkError(
                f"{old.name} restarted on port {replacement.port}, expected {old.port}"
            )
        self._spawned.remove(old)
        if old is self.entry_process:
            self.entry_process = replacement
        else:
            self.servers[self.servers.index(old)] = replacement
        reshipped = self._shipped_rules.get(replacement.name, [])
        for rule, seed in reshipped:
            command = {"cmd": "add-link-rule", "rule": rule, "seed": seed}
            self._retry_transient(
                lambda: self.server_control(replacement.name, command)
            )
        self._record(
            "restart_server", {"name": replacement.name, "reinjected": len(reshipped)}
        )
        return replacement

    def is_alive(self, name_or_index: str | int) -> bool:
        """Liveness probe: the process runs *and* answers a control ping.

        Pings go over the dedicated short-deadline probe transport so a
        wedged-but-connected process cannot stall the poll for the full
        long-poll control timeout.
        """
        server = self._find(name_or_index)
        if not server.alive:
            return False
        endpoint = (
            "entry"
            if server is self.entry_process
            else topology.control_name(self._chain_index(server.name))
        )
        try:
            return bool(
                self._control_rpc(endpoint, {"cmd": "ping"}, transport=self._probe).get("ok")
            )
        except (NetworkError, ProtocolError):
            return False

    def wait_alive(self, name_or_index: str | int, timeout: float = 30.0) -> bool:
        """Poll :meth:`is_alive` until it holds or ``timeout`` passes."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.is_alive(name_or_index):
                return True
            time.sleep(0.05)
        return self.is_alive(name_or_index)

    def poll_liveness(self) -> dict[str, bool]:
        """One liveness snapshot of the whole deployment, by process name."""
        status = {server.name: self.is_alive(server.name) for server in self.servers}
        status["entry"] = self.is_alive("entry")
        return status

    def aborted_total(self) -> int:
        return int(self.entry_control({"cmd": "aborted-total"})["aborted"])

    def buffered_total(self) -> int:
        return int(self.entry_control({"cmd": "buffered-total"})["buffered"])

    def resubmission_parked(self) -> dict:
        parked = int(self.entry_control({"cmd": "resubmission-total"})["parked"])
        return {"total": parked} if parked else {}

    # -------------------------------------------------------------- link rules

    def add_link_rule(self, target: str | int, rule: LinkRule, *, seed: int = 0) -> LinkRule:
        """A ``"clients"`` rule goes to the launcher-side conditioner every
        client connection's transport shares; any other target's is shipped
        to that process, shapes what it *sends*, and survives
        :meth:`restart_server`."""
        tag = link_target(target)
        if tag == CLIENTS:
            engine = conditioner_for(self._client_conditioner, seed)
            self._client_conditioner = engine
            engine.ledger = self.ledger
            for connection in self._connections.values():
                connection.transport.link_conditioner = engine
            return engine.add_rule(rule, CLIENTS)
        data = rule.to_dict()
        self._process_control(tag, {"cmd": "add-link-rule", "rule": data, "seed": seed})
        self._shipped_rules.setdefault(tag, []).append((data, seed))
        self._record("link_rule_added", {"target": tag, "rule": data, "seed": seed})
        return rule

    def heal_links(self, target: str | int | None = None) -> None:
        tag = None if target is None else link_target(target)
        if tag in (None, CLIENTS) and self._client_conditioner is not None:
            self._client_conditioner.heal(CLIENTS)
        for name in [name for name in self._shipped_rules if tag in (None, name)]:
            del self._shipped_rules[name]
            try:
                self._process_control(name, {"cmd": "heal-links"})
            except (NetworkError, ProtocolError):
                pass  # the process may be mid-crash; healing must not wedge
            self._record("links_healed", {"target": name})

    def link_stats(self) -> dict:
        # No conditioner yet is a clear sky: a fresh one's all-zero counters.
        return (self._client_conditioner or LinkConditioner()).stats()

    # ------------------------------------------------------------ control plane

    @staticmethod
    def _chain_index(name_or_index: str | int) -> int:
        """Resolve ``2`` / ``"server-2"`` / ``"server-2/control"`` to 2."""
        if isinstance(name_or_index, int):
            return name_or_index
        return int(str(name_or_index).split("/")[0].split("-")[-1])

    def _client_transport(self, request_timeout: float) -> TcpTransport:
        """A fresh transport routed at the deployment (entry + server controls)."""
        assert self.entry_process is not None, "deployment not started"
        transport = TcpTransport(request_timeout=request_timeout)
        transport.add_route("entry", self.entry_process.host, self.entry_process.port)
        for index, server in enumerate(self.servers):
            transport.add_route(topology.control_name(index), server.host, server.port)
        return transport

    def _control_rpc(
        self, endpoint: str, command: dict, transport: TcpTransport | None = None
    ) -> dict:
        transport = transport if transport is not None else self._control
        if transport is None:
            raise NetworkError("deployment is not running; call start() first")
        reply = transport.send("launcher", endpoint, json.dumps(command).encode("utf-8"))
        if reply is None:
            raise NetworkError(f"control request to {endpoint} got no reply")
        return json.loads(reply.decode("utf-8"))

    def entry_control(self, command: dict) -> dict:
        return self._control_rpc("entry", command)

    def server_control(self, name_or_index: str | int, command: dict) -> dict:
        return self._control_rpc(topology.control_name(self._chain_index(name_or_index)), command)

    def _process_control(self, tag: str, command: dict) -> dict:
        """Send ``command`` to the ``"entry"`` or ``"server-N"`` process."""
        if tag == "entry":
            return self.entry_control(command)
        return self.server_control(tag, command)

    # --------------------------------------------------- driver seam: population

    def _connect_client(
        self, client: VuvuzelaClient, *, register: bool = True, **retry_options
    ) -> ClientConnection:
        """Give ``client`` its own fresh TCP connection to the entry server
        (the §7 many-connections shape); a resumed client keeps its
        :class:`ClientConnection` and its counters.  ``retry_options`` are
        the connection's ``max_submit_attempts`` / ``retry_backoff_seconds``."""
        if self.entry_process is None:
            raise NetworkError("deployment is not running; call start() first")
        transport = TcpTransport(request_timeout=self.request_timeout)
        transport.add_route("entry", self.entry_process.host, self.entry_process.port)
        transport.link_conditioner = self._client_conditioner
        connection = self._connections.get(client.name)
        if connection is None:
            connection = self._connections[client.name] = ClientConnection(
                client=client, transport=transport, **retry_options
            )
        else:
            connection.transport = transport
            connection.reconnects += 1
        if register and self.config.require_registration:
            self.entry_control({"cmd": "register", "name": client.name})
        return connection

    def _disconnect_client(self, name: str) -> None:
        if self.config.require_registration:
            try:
                self.entry_control({"cmd": "revoke", "name": name})
            except (NetworkError, ProtocolError):
                pass  # the entry may be mid-crash; churn must not wedge
        self._connections[name].transport.close()

    def _forget_client(self, name: str) -> None:
        try:
            self.entry_control({"cmd": "forget-client", "name": name})
        except (NetworkError, ProtocolError):
            pass  # best-effort pruning, same crash caveat as the revoke
        del self._connections[name]

    def connection(self, name: str) -> ClientConnection:
        return self._connections[name]

    # --------------------------------------------- driver seam: scheduled rounds

    def _participants(self, given: list | None) -> list[ClientConnection]:
        if given is not None:
            return list(given)
        return [self._connections[name] for name in self.clients]

    def open_scheduled_round(
        self, protocol: RoundProtocol, participants: list | None = None
    ) -> ScheduledRound:
        """Open the protocol's next round window on the entry process.

        Unless the deployment runs deadline-only windows, the window closes
        as soon as every participating client's requests arrived (or at the
        deadline, whichever is first).
        """
        expected = None
        if not self.deadline_only_windows:
            connections = self._participants(participants)
            expected = sum(protocol.requests_per_client(c.client) for c in connections) or None
        round_number = self.open_round(protocol.name, expected=expected)
        return ScheduledRound(protocol.name, round_number, participants=participants)

    def discard_scheduled_round(self, protocol: RoundProtocol, opened: ScheduledRound) -> None:
        try:
            self._close_round(protocol, opened)
        except (NetworkError, ProtocolError):
            pass  # best-effort: the entry may be the thing that failed

    def _close_round(self, protocol: RoundProtocol, opened: ScheduledRound) -> dict:
        return self.entry_control(
            {"cmd": "close-round", "protocol": protocol.name, "round": opened.round_number}
        )

    def _measure_round(self, protocol: RoundProtocol, opened: ScheduledRound):
        started = time.perf_counter()

        def finish(result: dict, **_client_side_counts) -> NetworkRoundResult:
            # The entry's own window accounting supersedes client-side counts.
            return self._resolve_round(
                protocol,
                NetworkRoundResult(
                    protocol=protocol.name,
                    round_number=opened.round_number,
                    accepted=result["accepted"],
                    refused=result["refused"],
                    late=result["late"],
                    responded=result["responded"],
                    wall_clock_seconds=time.perf_counter() - started,
                    aborts=int(result.get("aborts", 0)),
                ),
            )

        return finish

    def drive_scheduled_round(
        self, protocol: RoundProtocol, opened: ScheduledRound
    ) -> NetworkRoundResult:
        """Build every connection's wires on the driver's engine, submit
        them, wait out the round, poll invitations."""
        round_number = opened.round_number
        connections = self._participants(opened.participants)
        finish = self._measure_round(protocol, opened)
        built = self._build_round(protocol, opened, [c.client for c in connections])
        if connections:
            # Each submission long-polls until the round resolves, so the
            # clients submit concurrently on their own connections.
            with ThreadPoolExecutor(max_workers=len(connections)) as pool:
                list(
                    pool.map(
                        lambda connection, wires: connection.run_round(
                            protocol, round_number, wires
                        ),
                        connections,
                        built,
                    )
                )
        result = self.wait_round(protocol.name, round_number)
        if protocol.polls_invitations:
            # Every client downloads its invitation dead drop from the entry
            # over the same envelope path it submits on (DIAL_DOWNLOAD).
            self.scan_invitations(
                round_number,
                [(c.client, c.fetch_invitation_store(round_number)) for c in connections],
            )
        return finish(result)

    # ------------------------------------------------------------------ rounds

    def open_round(
        self,
        protocol: str,
        *,
        deadline: float | None = None,
        expected: int | None = None,
    ) -> int:
        command: dict = {"cmd": "open-round", "protocol": protocol}
        if deadline is not None or self.round_deadline_seconds is not None:
            command["deadline"] = deadline if deadline is not None else self.round_deadline_seconds
        if expected is not None:
            command["expected"] = expected
        # The entry allocates the round number, but it allocates sequentially
        # from zero, so the launcher's mirror predicts it — which lets a
        # replay ship the recorded first-attempt number with the open.
        forced = self._forced_attempts.get((protocol, self._next_rounds[protocol]))
        if forced is not None:
            command["attempt"] = forced
        round_number = int(self.entry_control(command)["round"])
        self._next_rounds[protocol] = round_number + 1
        return round_number

    def wait_round(self, protocol: str, round_number: int, *, wait: float = 60.0) -> dict:
        result = self.entry_control(
            {"cmd": "round-result", "protocol": protocol, "round": round_number, "wait": wait}
        )
        if "error" in result:
            raise ProtocolError(f"{protocol} round {round_number}: {result['error']}")
        return result

    # ---------------------------------------------- driver seam: swarm transport

    def _swarm_send(self, frame: bytes, kind: MessageKind, round_number: int) -> bytes | None:
        """The swarm's frames travel on the control connection straight to
        the entry's coordinator, which replies with an immediate verdict (or
        collect) frame."""
        return self._control.send("swarm", "entry", frame, kind=kind, round_number=round_number)

    def _close_swarm_round(
        self, protocol: RoundProtocol, opened: ScheduledRound, names: list[str]
    ) -> tuple[dict, dict]:
        """Close the round explicitly, then pull the onion responses down
        with ``RESPONSE_COLLECT`` frames in name-chunks."""
        round_number = opened.round_number
        self._close_round(protocol, opened)
        result = self.wait_round(protocol.name, round_number)
        grouped: dict[str, list[bytes]] = {}
        for start in range(0, len(names), COLLECT_CHUNK):
            batch = names[start : start + COLLECT_CHUNK]
            reply = self._swarm_send(
                encode_collect_request(protocol.kind, round_number, batch),
                MessageKind.RESPONSE_COLLECT,
                round_number,
            )
            if reply is None:
                raise NetworkError(f"entry dropped a collect request in round {round_number}")
            got_round, responses = decode_collect_reply(reply)
            if got_round != round_number:
                raise ProtocolError(
                    f"collected responses for round {got_round}, expected {round_number}"
                )
            grouped.update(zip(batch, responses))
        return result, grouped

    # ------------------------------------------------ driver seam: observables

    def _chain_observable(self, index: int, command: dict) -> dict:
        """One chain server's answer about a resolved round.  A round
        resolves the instant a crashed server rejoins the chain, so the read
        tolerates a control listener that is still coming up."""
        return self._retry_transient(lambda: self.server_control(index, command))

    def invitation_store(self, round_number: int) -> InvitationDropStore:
        """Download a dialing round's invitation store from the last server
        (the paper serves this from a CDN; here it is a control RPC)."""
        reply = self._chain_observable(
            self.config.num_servers - 1, {"cmd": "invitations", "round": round_number}
        )
        return InvitationDropStore.restore(reply["store"])

    def chain_noise(self, protocol: str, round_number: int) -> int:
        command = {"cmd": "noise", "protocol": protocol, "round": round_number}
        return sum(
            self._chain_observable(index, command)["count"]
            for index in range(self.config.num_servers)
        )

    def access_histogram(self, round_number: int) -> dict:
        return self._chain_observable(
            self.config.num_servers - 1, {"cmd": "histogram", "round": round_number}
        )

    def refused_total(self) -> int:
        return int(self.entry_control({"cmd": "refused-total"})["refused"])

    def late_total(self) -> int:
        return int(self.entry_control({"cmd": "late-total"})["late"])
