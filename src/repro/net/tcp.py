"""Blocking-socket TCP transport: the deployment-shaped implementation of :class:`Transport`.

This is the substrate the standalone server processes
(:mod:`repro.server.entry_main`, :mod:`repro.server.chain_main`) and the
networked clients run on.  One :class:`TcpTransport` plays both roles at
once, exactly like a real Vuvuzela node, and a request→reply round trip
crosses no thread boundary on either side of the socket:

* **server side** — ``listen()`` starts one accept thread, and each inbound
  connection gets a thread of its own that reads a frame, runs the handler
  and writes the reply, strictly in turn.  A long-poll (a client waiting for
  its round to resolve) stalls only its own connection, and nothing caps how
  many handlers run at once.
* **client side** — ``send()`` is the same blocking request/response call
  the in-process :class:`~repro.net.transport.Network` provides, run wholly
  on the calling thread: it resolves the destination through a route table,
  checks a ``TCP_NODELAY`` socket out of a per-address pool (connections are
  reused across rounds; concurrent senders get their own), writes one frame
  and reads the reply frame under one whole-request deadline.

Framing is deliberately simple: a 4-byte big-endian length, then the frame
body.  Request bodies carry (kind, round number, source, destination,
payload); reply bodies carry a status byte and either the reply payload or
an error message.  Errors raised by a remote handler are re-raised at the
sender with their type preserved (:data:`_ERROR_STATUS`) — so a timed-out
hop deep in the chain surfaces at the entry server as a timeout, not a
generic failure.
"""

from __future__ import annotations

import socket
import struct
import sys
import threading
import time
from collections import defaultdict

from .faults import LinkConditioner
from .messages import KIND_INDEX, Envelope, MessageKind, kind_at
from .transport import Handler, TrafficStats, Transport
from ..errors import ConnectTimeout, NetworkError, ProtocolError, TransportTimeout

_LENGTH = struct.Struct(">I")
_REQUEST_HEAD = struct.Struct(">BQHH")  # kind index, round number, source len, destination len

#: Hard cap on one frame; a malformed peer cannot make us buffer gigabytes.
MAX_FRAME_BYTES = 1 << 30

# Reply status bytes.
_OK, _NONE, _NETWORK_ERROR, _PROTOCOL_ERROR, _TIMEOUT, _CONNECT_TIMEOUT = range(6)
#: The error a status stands for, most specific type first.  A connect-phase
#: timeout keeps its own status: nothing was delivered, so the failure stays
#: provably retryable even after crossing hop boundaries.
_ERROR_STATUS = (
    (ConnectTimeout, _CONNECT_TIMEOUT),
    (TransportTimeout, _TIMEOUT),
    (NetworkError, _NETWORK_ERROR),
    (ProtocolError, _PROTOCOL_ERROR),
)
_ERROR_TYPE = {status: error for error, status in _ERROR_STATUS}

# repro-lint: allow[nd-wallclock] request deadlines are real time by design; they bound how long a send waits, never what it sends
_clock = time.monotonic


def encode_request(envelope: Envelope) -> bytes:
    """Serialise one request frame body (without the length prefix)."""
    source = envelope.source.encode("utf-8")
    destination = envelope.destination.encode("utf-8")
    head = _REQUEST_HEAD.pack(
        KIND_INDEX[envelope.kind], envelope.round_number, len(source), len(destination)
    )
    return b"".join((head, source, destination, envelope.payload))


def decode_request(body: bytes) -> Envelope:
    """Parse a request frame body back into an :class:`Envelope`."""
    if len(body) < _REQUEST_HEAD.size:
        raise ProtocolError("TCP request frame too short for its header")
    kind_index, round_number, source_len, destination_len = _REQUEST_HEAD.unpack_from(body, 0)
    kind = kind_at(kind_index)
    offset = _REQUEST_HEAD.size
    if len(body) < offset + source_len + destination_len:
        raise ProtocolError("truncated endpoint names in TCP request frame")
    source = body[offset : offset + source_len].decode("utf-8")
    offset += source_len
    destination = body[offset : offset + destination_len].decode("utf-8")
    offset += destination_len
    return Envelope(
        source=source,
        destination=destination,
        # A zero-copy view over the received frame: the payload is the bulk
        # of the body, and every server-side consumer (struct.unpack_from
        # decoders, batch buffers, digests) accepts bytes-like objects, so
        # the one frame-sized copy per request is avoided.  Consumers that
        # must retain data past the frame call bytes() themselves.  The view
        # is read-only (and hashable) even over a received bytearray.
        payload=memoryview(body).toreadonly()[offset:],
        kind=kind,
        round_number=round_number,
    )


def encode_reply(status: int, payload: bytes) -> bytes:
    # join accepts any buffer, so handlers may return memoryviews and the
    # reply frame is assembled without re-materialising them first.
    return b"".join((bytes((status,)), payload))


def decode_reply(body: bytes) -> bytes | None:
    """Parse a reply frame body, re-raising remote errors with their type."""
    if not body:
        raise ProtocolError("empty TCP reply frame")
    status, payload = body[0], body[1:]
    if status == _OK:
        return payload
    if status == _NONE:
        return None
    message = payload.decode("utf-8", "replace")
    error = _ERROR_TYPE.get(status)
    if error is None:
        raise ProtocolError(f"unknown TCP reply status {status}: {message}")
    raise error(message)


def _arm(sock: socket.socket, deadline: float | None) -> None:
    """Give the next socket call what is left of the request's deadline.

    Re-armed before every call, so a peer dripping one byte at a time cannot
    stretch a request past its deadline the way a per-call timeout would.
    """
    if deadline is not None:
        remaining = deadline - _clock()
        if remaining <= 0.0:
            raise TimeoutError("request deadline passed")
        sock.settimeout(remaining)


def _recv_exactly(sock: socket.socket, view: memoryview, deadline: float | None) -> bool:
    """Fill ``view`` from the socket; ``False`` if the peer closed first."""
    while view:
        _arm(sock, deadline)
        received = sock.recv_into(view)
        if not received:
            return False
        view = view[received:]
    return True


def _read_frame(sock: socket.socket, deadline: float | None = None) -> bytearray | None:
    """Read one frame into one buffer of its final size; ``None`` once the peer closed."""
    head = bytearray(_LENGTH.size)
    if not _recv_exactly(sock, memoryview(head), deadline):
        return None
    (length,) = _LENGTH.unpack(head)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"TCP frame of {length} bytes exceeds the {MAX_FRAME_BYTES} cap")
    frame = bytearray(length)
    return frame if _recv_exactly(sock, memoryview(frame), deadline) else None


def _write_frame(sock: socket.socket, body: bytes, deadline: float | None = None) -> None:
    """Send one frame as a scatter write: length prefix and body separately.

    ``sendmsg`` hands both buffers to the kernel in one call — the body,
    often a megabyte-scale batch frame, is never copied into a fresh
    ``prefix + body`` object.  The bytes on the wire are identical.
    """
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"TCP frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES} cap")
    pending = [memoryview(_LENGTH.pack(len(body))), memoryview(body)]
    while pending:
        _arm(sock, deadline)
        sent = sock.sendmsg(pending)
        while pending and sent >= len(pending[0]):
            sent -= len(pending.pop(0))
        if sent:
            pending[0] = pending[0][sent:]


def _shutdown(sock: socket.socket) -> None:
    """End both directions now: a thread blocked on ``sock`` wakes at once."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # never connected, or already shut down


class _ConnectionPool:
    """Reusable connections to one remote address, one checkout at a time each.

    A transport keeps a pool per (host, port): sequential requests reuse the
    same socket (connection reuse across rounds is what makes the per-hop
    latency flat), while concurrent senders — e.g. a multi-slot client
    submitting its requests in parallel — transparently get additional
    connections.  A checked-out socket is closed only by its sender;
    :meth:`close_all` shuts it down, which makes that sender fail.
    """

    def __init__(self, host: str, port: int, connect_timeout: float) -> None:
        self.host, self.port, self.connect_timeout = host, port, connect_timeout
        self._idle: list[socket.socket] = []
        self._all: list[socket.socket] = []
        self._lock = threading.Lock()
        self._closed = False

    def acquire(self) -> socket.socket:
        with self._lock:
            if self._closed:
                raise NetworkError("this transport is closed")
            if self._idle:
                return self._idle.pop()
        try:
            sock = socket.create_connection((self.host, self.port), self.connect_timeout)
        except TimeoutError as exc:
            raise ConnectTimeout(
                f"connecting to {self.host}:{self.port} exceeded {self.connect_timeout}s"
            ) from exc
        except OSError as exc:
            raise NetworkError(f"cannot connect to {self.host}:{self.port}: {exc}") from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(None)  # each request arms its own deadline
        with self._lock:
            self._all.append(sock)
            if self._closed:
                _shutdown(sock)  # closed while connecting: the request fails
        return sock

    def release(self, sock: socket.socket) -> None:
        with self._lock:
            if not self._closed:
                self._idle.append(sock)
                return
        sock.close()

    def discard(self, sock: socket.socket) -> None:
        with self._lock:
            if sock in self._all:
                self._all.remove(sock)
        _shutdown(sock)
        sock.close()

    def flush_idle(self) -> None:
        """Drop every idle connection.

        Called after a request on this pool fails: idle connections share the
        failed one's fate (the peer crashed or restarted), and discarding
        them now means the next request dials a fresh socket instead of
        burning a retry on each stale one.
        """
        with self._lock:
            idle, self._idle = self._idle, []
        for sock in idle:
            self.discard(sock)

    def close_all(self) -> None:
        with self._lock:
            self._closed = True
            for sock in self._all:
                _shutdown(sock)
            idle, self._idle, self._all = self._idle, [], []
        for sock in idle:
            sock.close()


class TcpTransport(Transport):
    """Length-prefixed request/response transport over blocking TCP sockets."""

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        routes: dict[str, tuple[str, int]] | None = None,
        connect_timeout: float = 10.0,
        request_timeout: float | None = 60.0,
    ) -> None:
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        #: Per-request deadline covering write + remote handling + reply.
        #: ``None`` waits forever.  Note an entry→chain send spans the whole
        #: downstream sub-chain, so upstream hops need larger budgets.
        self.request_timeout = request_timeout
        self._routes: dict[str, tuple[str, int]] = dict(routes or {})
        self._handlers: dict[str, Handler] = {}
        self._stats: dict[tuple[str, str], TrafficStats] = defaultdict(TrafficStats)
        self._stats_lock = threading.Lock()
        #: Sends that never delivered a frame (timeout, dead link, lost to a
        #: link rule).  Kept out of :class:`TrafficStats`, which counts
        #: only delivered frames: adversary-observation accounting must not be
        #: inflated by traffic that never reached the wire's far end.
        self.failed_sends = 0
        #: Deterministic link rules, mirroring ``Network.link_conditioner``.
        self.link_conditioner: LinkConditioner | None = None
        self._pools: dict[tuple[str, int], _ConnectionPool] = {}
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        #: Inbound connection → the thread serving it.
        self._inbound: dict[socket.socket, threading.Thread] = {}
        #: Inbound connections whose thread is inside a handler right now.
        self._in_handler: set[socket.socket] = set()
        self._lifecycle = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------ server side

    def register(self, name: str, handler: Handler) -> None:
        if not name:
            raise NetworkError("endpoint names must be non-empty")
        self._handlers[name] = handler

    def unregister(self, name: str) -> None:
        self._handlers.pop(name, None)

    def endpoints(self) -> list[str]:
        return sorted(self._handlers)

    def listen(self) -> tuple[str, int]:
        """Start serving registered endpoints; returns the bound (host, port)."""
        with self._lifecycle:
            if self._closed:
                raise NetworkError("this transport is closed")
            if self._listener is None:
                self._listener = socket.create_server((self.host, self.port))
                self.port = self._listener.getsockname()[1]
                self._accept_thread = threading.Thread(
                    target=self._accept_loop, args=(self._listener,), name="tcp-accept", daemon=True
                )
                self._accept_thread.start()
        return self.host, self.port

    def _accept_loop(self, listener: socket.socket) -> None:
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                if self._closed:
                    return  # close() shut the listener down
                continue  # one failed handshake; keep serving
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lifecycle:
                if self._closed:
                    conn.close()
                    return
                thread = threading.Thread(
                    target=self._serve_connection, args=(conn,), name="tcp-conn", daemon=True
                )
                self._inbound[conn] = thread
                thread.start()  # under the lock: close() never sees it unstarted

    def _serve_connection(self, conn: socket.socket) -> None:
        """One inbound connection: strict request → reply, until EOF.

        Requests on a connection are handled one at a time (the client side
        never pipelines), so a reply always answers the latest request and a
        blocking handler only ever stalls its own connection.
        """
        try:
            while (frame := _read_frame(conn)) is not None:
                with self._lifecycle:
                    self._in_handler.add(conn)
                try:
                    reply = self._handle_frame(frame)
                finally:
                    with self._lifecycle:
                        self._in_handler.discard(conn)
                _write_frame(conn, reply)
        except (OSError, ProtocolError):
            pass  # the peer vanished, close() shut us down, or a frame broke the cap
        finally:
            with self._lifecycle:
                del self._inbound[conn]
            conn.close()  # only after leaving _inbound: close() never sees a stale socket

    def _handle_frame(self, body: bytes) -> bytes:
        """Decode, dispatch to the local handler, encode the reply (or error)."""
        try:
            envelope = decode_request(body)
            handler = self._handlers.get(envelope.destination)
            if handler is None:
                raise NetworkError(f"unknown endpoint: {envelope.destination!r}")
            result = handler(envelope)
        except (NetworkError, ProtocolError) as exc:
            status = next(code for error, code in _ERROR_STATUS if isinstance(exc, error))
            return encode_reply(status, str(exc).encode("utf-8"))
        except Exception as exc:  # noqa: BLE001 - a handler bug must not kill the link
            print(f"tcp handler error: {exc!r}", file=sys.stderr)
            return encode_reply(_PROTOCOL_ERROR, f"handler failed: {exc!r}".encode("utf-8"))
        if result is None:
            return encode_reply(_NONE, b"")
        return encode_reply(_OK, result)

    # ------------------------------------------------------------ client side

    def add_route(self, name: str, host: str, port: int) -> None:
        """Teach the transport where a remote endpoint name lives."""
        self._routes[name] = (host, port)

    def update_routes(self, routes: dict[str, tuple[str, int]]) -> None:
        self._routes.update(routes)

    def send(
        self,
        source: str,
        destination: str,
        payload: bytes,
        kind: MessageKind = MessageKind.CONTROL,
        round_number: int = 0,
    ) -> bytes | None:
        envelope = Envelope(
            source=source, destination=destination, payload=payload,
            kind=kind, round_number=round_number,
        )
        if self.link_conditioner is not None:
            try:
                stall = self.link_conditioner.decide(envelope)
            except NetworkError:
                self._record_failure()
                raise
            if stall is None:
                self._record_failure()
                return None
            # The stall runs on the calling thread (each submission and each
            # chain hop has its own), never inside the conditioner's lock.
            self.link_conditioner.hold(stall)
        address = self._routes.get(destination)
        if address is None:
            # A locally served endpoint can be reached without a socket —
            # mirrors the in-process Network and keeps single-process tests
            # of TCP-facing components cheap.
            handler = self._handlers.get(destination)
            if handler is None:
                raise NetworkError(f"unknown endpoint: {destination!r}")
            self._record_delivery(envelope)
            return handler(envelope)
        with self._lifecycle:
            if self._closed:
                raise NetworkError("this transport is closed")
            pool = self._pools.get(address)
            if pool is None:
                pool = self._pools[address] = _ConnectionPool(*address, self.connect_timeout)
        try:
            reply = self._request(pool, encode_request(envelope))
        except NetworkError:  # includes TransportTimeout
            # The frame never completed a round trip: a timed-out or failed
            # send must not inflate the delivered-traffic stats.
            self._record_failure()
            raise
        self._record_delivery(envelope)
        return decode_reply(reply)

    def _record_delivery(self, envelope: Envelope) -> None:
        with self._stats_lock:
            self._stats[(envelope.source, envelope.destination)].record(envelope)

    def _record_failure(self) -> None:
        with self._stats_lock:
            self.failed_sends += 1

    def _request(self, pool: _ConnectionPool, body: bytes) -> bytearray:
        """One round trip on a pooled connection, on the calling thread."""
        sock = pool.acquire()  # connecting has its own, separate timeout
        deadline = None if self.request_timeout is None else _clock() + self.request_timeout
        try:
            _write_frame(sock, body, deadline)
            reply = _read_frame(sock, deadline)
            if reply is None:
                raise ConnectionResetError("the peer closed the connection mid-request")
        except TimeoutError as exc:
            pool.discard(sock)
            raise TransportTimeout(
                f"request to {pool.host}:{pool.port} exceeded {self.request_timeout}s"
            ) from exc
        except OSError as exc:
            pool.discard(sock)
            pool.flush_idle()  # sibling sockets to a crashed peer are dead too
            raise NetworkError(f"link to {pool.host}:{pool.port} failed: {exc}") from exc
        except ProtocolError:
            pool.discard(sock)  # an oversized frame leaves the stream unreadable
            raise
        pool.release(sock)
        return reply

    # ------------------------------------------------------------- accounting

    def stats(self, source: str, destination: str) -> TrafficStats:
        with self._stats_lock:
            return self._stats[(source, destination)]

    def total_bytes(self) -> int:
        with self._stats_lock:
            return sum(stats.bytes for stats in self._stats.values())

    def total_messages(self) -> int:
        with self._stats_lock:
            return sum(stats.messages for stats in self._stats.values())

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Stop serving and end every connection (idempotent).

        Shutting a socket down wakes whatever thread is blocked on it: the
        accept thread and idle connection threads exit and are joined, and
        a sender on either end of a connection raises :class:`NetworkError`.
        A handler still running finishes on its own thread; its reply goes
        nowhere.
        """
        with self._lifecycle:
            if self._closed:
                return
            self._closed = True
            if self._listener is not None:
                _shutdown(self._listener)
            for conn in self._inbound:
                _shutdown(conn)
            idle_threads = [
                thread for conn, thread in self._inbound.items() if conn not in self._in_handler
            ]
            pools = list(self._pools.values())
        for pool in pools:
            pool.close_all()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._listener.close()
        for thread in idle_threads:
            thread.join(timeout=5.0)

    def __enter__(self) -> "TcpTransport":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def parse_address(value: str) -> tuple[str, int]:
    """Parse ``"host:port"`` (the CLI form of a route) into a tuple."""
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise NetworkError(f"expected host:port, got {value!r}")
    return host, int(port)
