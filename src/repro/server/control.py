"""The server processes' shared control plane and their one TCP serve loop.

Both server roles — the entry (:mod:`repro.server.entry_main`) and a chain
server (:mod:`repro.server.chain_main`) — answer JSON commands through one
``_dispatch(command) -> dict`` table.  A driver reaches that table one of two
ways: in process, :class:`~repro.core.system.VuvuzelaSystem` calls it
directly; over TCP, a ``MessageKind.CONTROL`` envelope carries the command
and :meth:`ControlledProcess.handle_control` decodes it.  Every field a
command carries is validated before the command acts, and a bad one is
refused with :class:`~repro.errors.ProtocolError` — which the TCP transport
hands back to the caller as the same typed error.

:func:`serve` is the whole ``main()`` of a server process: the common
arguments, the crypto backend, the seed check, ``READY <port>`` on stdout
and the wait for a ``shutdown`` command.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from abc import ABC, abstractmethod
from typing import Any, Callable

from ..core import topology
from ..core.config import VuvuzelaConfig
from ..crypto.backend import set_backend
from ..errors import NetworkError, ProtocolError, ReproError
from ..net import Envelope, Transport
from ..runtime import PROTOCOL_KINDS

#: Round numbers travel in a 64-bit field, attempts in a 32-bit one.
MAX_ROUND = 2**64 - 1
MAX_ATTEMPT = 2**32 - 1
_REQUIRED: Any = object()


def decode_command(payload) -> dict:
    """One JSON control command; anything but a JSON object is refused."""
    try:
        # bytes() first: the payload may be a zero-copy view over the TCP
        # frame, and memoryview has no .decode().
        command = json.loads(bytes(payload).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed control command: {exc}") from exc
    if not isinstance(command, dict):
        raise ProtocolError(f"a control command is a JSON object, not {type(command).__name__}")
    return command


def _field(command: dict, key: str, default: Any, valid, expected: str) -> Any:
    """``command[key]`` if ``valid`` holds for it; an absent key reads
    ``default``, and a ``None`` default makes the field optional."""
    value = command.get(key, default)
    if value is None and default is None:
        return None
    if isinstance(value, bool) or not valid(value):
        shown = "nothing" if value is _REQUIRED else repr(value)
        raise ProtocolError(
            f"control {command.get('cmd')!r}: {key!r} must be {expected}, got {shown}"
        )
    return value


def integer(
    command: dict, key: str, *, minimum: int = 0, maximum: int = MAX_ROUND, default: Any = _REQUIRED
) -> int | None:
    """An integer in ``[minimum, maximum]``; booleans are not integers."""
    return _field(
        command, key, default,
        lambda value: isinstance(value, int) and minimum <= value <= maximum,
        f"an integer in [{minimum}, {maximum}]",
    )


def seconds(command: dict, key: str, *, default: Any = _REQUIRED) -> float | None:
    """A wait a thread can sleep on: a number in ``[0, threading.TIMEOUT_MAX]``."""
    value = _field(
        command, key, default,
        lambda value: isinstance(value, (int, float)) and 0 <= value <= threading.TIMEOUT_MAX,
        "a number of seconds",
    )
    return None if value is None else float(value)


def text(command: dict, key: str) -> str:
    """A non-empty string (a client name)."""
    return _field(
        command, key, _REQUIRED, lambda value: isinstance(value, str) and value != "",
        "a non-empty string",
    )


def rows(command: dict, key: str, width: int) -> list[list]:
    """A list of ``width``-element lists; the caller checks each element."""
    return _field(
        command, key, _REQUIRED,
        lambda value: isinstance(value, list)
        and all(isinstance(row, list) and len(row) == width for row in value),
        f"a list of {width}-element lists",
    )


def protocol_name(command: dict) -> str:
    """One of the pipeline's protocol names."""
    return _field(
        command, "protocol", _REQUIRED,
        lambda value: isinstance(value, str) and value in PROTOCOL_KINDS,
        f"one of {sorted(PROTOCOL_KINDS)}",
    )


def request(transport: Transport, source: str, destination: str, command: dict) -> dict:
    """Send one control command over ``transport`` and decode the reply."""
    reply = transport.send(source, destination, json.dumps(command).encode("utf-8"))
    if reply is None:
        raise NetworkError(f"control request to {destination} got no reply")
    return json.loads(bytes(reply).decode("utf-8"))


class ControlledProcess(ABC):
    """A server role on some transport, with a JSON control plane."""

    def __init__(self, transport: Transport) -> None:
        self.transport = transport
        #: Set by the ``shutdown`` command; :func:`serve` waits on it.
        self.shutdown = threading.Event()

    def handle_control(self, envelope: Envelope) -> bytes:
        return json.dumps(self._dispatch(decode_command(envelope.payload))).encode("utf-8")

    @abstractmethod
    def _dispatch(self, command: dict) -> dict:
        """Act on one decoded command and return its JSON-safe reply."""

    def close(self) -> None:
        """Stop the role's own machinery (the transport is its host's)."""


def serve(
    role: str,
    argv: list[str] | None,
    add_arguments: Callable[[argparse.ArgumentParser], None],
    build: Callable[[VuvuzelaConfig, argparse.Namespace, Any], ControlledProcess],
) -> None:
    """Run one server role over TCP until a ``shutdown`` command arrives.

    ``build(config, args, root)`` makes the role's
    :class:`~repro.net.TcpTransport` (listening on ``args.host`` /
    ``args.port``) and the process on it; ``root`` is the seeded root rng
    every key and noise stream is forked off.
    """
    parser = argparse.ArgumentParser(description=f"Run the Vuvuzela {role} over TCP.")
    parser.add_argument("--config", required=True, help="VuvuzelaConfig as JSON")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="listen port (0 = OS-assigned)")
    parser.add_argument(
        "--backend", default=None, help="force a crypto backend (default: fastest available)"
    )
    add_arguments(parser)
    args = parser.parse_args(argv)

    config = VuvuzelaConfig.from_json(args.config)
    if args.backend:
        set_backend(args.backend)
    try:
        topology.require_seed(config)
        process = build(config, args, topology.root_rng(config))
        _, port = process.transport.listen()
    except ReproError as exc:
        print(f"{role} failed to start: {exc}", file=sys.stderr)
        raise SystemExit(1)
    print(f"READY {port}", flush=True)
    try:
        process.shutdown.wait()
    finally:
        process.close()
        process.transport.close()

