"""The append-only, hash-chained round ledger (writer and reader).

A ledger is a JSONL file: one record per line, each carrying a sequence
number, a record type, an arbitrary JSON ``data`` payload, the previous
record's hash, and its own hash — SHA-256 over the canonical JSON encoding
of ``(seq, type, data, prev)``.  The chain gives the file the two
properties replay needs (same discipline as an immutable event log):

* **append-only integrity** — any edit, reorder or deletion in the file's
  interior breaks the chain and is detected on read;
* **crash consistency** — the only damage a crash of the (single) writing
  process can cause is a torn final line, which recovery truncates.

Exactly one process appends to a ledger file.  In a networked deployment
that is the orchestrating process (the :class:`~repro.core.deployment.
DeploymentLauncher` owns the clients and drives every round), so the ledger
never needs multi-writer coordination.

The ``fsync`` policy trades durability for latency:

``"always"``
    fsync after every record — a crash loses nothing but the torn tail.
``"round"`` (default)
    fsync only after round-boundary records (resolved metrics, schedule
    completion) — a crash loses at most the in-flight round.
``"never"``
    leave flushing to the OS — for benchmarks and throwaway runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from ..errors import LedgerError

#: Hash of "nothing before the first record".
GENESIS = "0" * 64

#: Record types whose append marks a round boundary (``fsync="round"``).
ROUND_BOUNDARY_TYPES = frozenset(
    {"round_metrics", "round_failed", "schedule_done", "schedule_failed", "session_end"}
)

_FSYNC_POLICIES = ("always", "round", "never")


def canonical_json(value: Any) -> bytes:
    """The byte encoding records are hashed over: sorted keys, no whitespace."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")


def record_hash(seq: int, type_: str, data: Any, prev: str) -> str:
    payload = canonical_json({"seq": seq, "type": type_, "data": data, "prev": prev})
    return hashlib.sha256(payload).hexdigest()


@dataclass(frozen=True)
class LedgerRecord:
    """One verified entry of a round ledger."""

    seq: int
    type: str
    data: dict
    prev: str
    hash: str

    def to_line(self) -> bytes:
        return (
            json.dumps(
                {
                    "seq": self.seq,
                    "type": self.type,
                    "data": self.data,
                    "prev": self.prev,
                    "hash": self.hash,
                },
                sort_keys=True,
                separators=(",", ":"),
                ensure_ascii=True,
            ).encode("ascii")
            + b"\n"
        )


def _parse_line(line: bytes) -> LedgerRecord | None:
    """Parse one JSONL line; ``None`` if it is not a well-formed record."""
    try:
        raw = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(raw, dict):
        return None
    try:
        record = LedgerRecord(
            seq=int(raw["seq"]),
            type=str(raw["type"]),
            data=raw["data"],
            prev=str(raw["prev"]),
            hash=str(raw["hash"]),
        )
    except (KeyError, TypeError, ValueError):
        return None
    if not isinstance(record.data, dict):
        return None
    return record


def _scan(path: Path) -> tuple[list[LedgerRecord], int, bool]:
    """Read and verify a ledger file.

    Returns ``(records, valid_bytes, truncated)`` where ``valid_bytes`` is
    the length of the verified prefix and ``truncated`` reports whether a
    torn tail (crash mid-append) was dropped.  A break *before* the last
    line is tampering, not a crash, and raises :class:`LedgerError`.
    """
    records: list[LedgerRecord] = []
    prev = GENESIS
    offset = 0
    truncated = False
    # Streamed line by line: a long session's ledger is verified without
    # holding the raw file next to its parsed records.
    with open(path, "rb") as handle:
        for line in handle:
            if not line.endswith(b"\n"):
                # A record is committed only once its trailing newline is on
                # disk; a newline-less tail is a torn append, whatever it
                # parses as (a resumed writer must never continue a
                # half-written line).
                truncated = True
                break
            record = _parse_line(line)
            ok = (
                record is not None
                and record.seq == len(records)
                and record.prev == prev
                and record.hash
                == record_hash(record.seq, record.type, record.data, record.prev)
            )
            if not ok:
                if not handle.peek(1):
                    # Damage confined to the final line: the torn-append shape.
                    truncated = True
                    break
                raise LedgerError(
                    f"{path}: hash chain broken at record {len(records)} — the "
                    f"ledger's interior was modified or corrupted"
                )
            assert record is not None
            records.append(record)
            prev = record.hash
            offset += len(line)
    return records, offset, truncated


@dataclass(frozen=True)
class LedgerView:
    """The verified contents of a ledger file."""

    path: Path
    records: list[LedgerRecord]
    #: A torn final line was found and dropped during recovery.
    truncated: bool = False

    def __iter__(self) -> Iterator[LedgerRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def of_type(self, *types: str) -> list[LedgerRecord]:
        wanted = set(types)
        return [record for record in self.records if record.type in wanted]

    def head(self) -> str:
        return self.records[-1].hash if self.records else GENESIS


def load_ledger(path: str | os.PathLike, *, allow_truncated_tail: bool = True) -> LedgerView:
    """Read and verify a ledger file, recovering from a torn tail.

    With ``allow_truncated_tail=False`` a torn tail raises
    :class:`LedgerError` instead of being dropped (audits that must see a
    cleanly closed ledger).
    """
    resolved = Path(path)
    if not resolved.exists():
        raise LedgerError(f"{resolved}: no such ledger")
    records, _, truncated = _scan(resolved)
    if truncated and not allow_truncated_tail:
        raise LedgerError(f"{resolved}: torn tail record (crash mid-append)")
    return LedgerView(path=resolved, records=records, truncated=truncated)


def slice_ledger(
    path: str | os.PathLike, destination: str | os.PathLike, *, upto_seq: int
) -> int:
    """Write the verified prefix of a ledger through ``upto_seq`` (inclusive).

    A prefix of a hash chain is itself a valid hash chain, so the slice is
    directly loadable and replayable — this is how a campaign emits
    a minimal ledger reproducing an invariant violation.  Returns the number
    of records written.
    """
    view = load_ledger(path)
    kept = [record for record in view.records if record.seq <= upto_seq]
    with open(destination, "wb") as handle:
        for record in kept:
            handle.write(record.to_line())
        handle.flush()
        os.fsync(handle.fileno())
    return len(kept)


def client_digest(client) -> dict:
    """A compact, deterministic fingerprint of one client's user-visible state.

    Covers exactly what the byte-identity guarantee promises the user: every
    delivered plaintext (with its round and sender) and the invitations that
    reached the client.  Identical across deployment shapes because the
    client object itself is shape-invariant.
    """
    received = [
        [message.round_number, message.sender.hex(), message.body.hex()]
        for message in client.received
    ]
    return {
        "received": hashlib.sha256(canonical_json(received)).hexdigest(),
        "received_count": len(received),
        "incoming_calls": len(client.incoming_calls),
    }


@dataclass
class LedgerWriter:
    """Crash-consistent, hash-chained appender for one ledger file.

    Opening an existing path *resumes* the chain: the file is verified, a
    torn tail from a previous crash is truncated away, and new records
    continue from the last valid hash.  Appends are thread-safe — the
    overlapping scheduler records conversation and dialing rounds from
    different threads.
    """

    path: Path
    fsync: str = "round"
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __init__(self, path: str | os.PathLike, *, fsync: str = "round") -> None:
        if fsync not in _FSYNC_POLICIES:
            raise LedgerError(f"unknown fsync policy {fsync!r} (use one of {_FSYNC_POLICIES})")
        self.path = Path(path)
        self.fsync = fsync
        self._lock = threading.Lock()
        self._closed = False
        self.recovered_tail = False
        if self.path.exists():
            records, valid_bytes, truncated = _scan(self.path)
            if truncated:
                with open(self.path, "r+b") as handle:
                    handle.truncate(valid_bytes)
                    handle.flush()
                    os.fsync(handle.fileno())
                self.recovered_tail = True
            self._seq = len(records)
            self._prev = records[-1].hash if records else GENESIS
        else:
            self._seq = 0
            self._prev = GENESIS
        self._handle = open(self.path, "ab")

    def append(self, type_: str, data: dict) -> LedgerRecord:
        """Append one record and return it (with its chained hash)."""
        if self._closed:
            raise LedgerError(f"{self.path}: ledger writer is closed")
        # Canonicalise through JSON now so the hash covers exactly the bytes
        # a reader will see (tuples become lists, keys become strings, ...).
        data = json.loads(canonical_json(data).decode("ascii"))
        with self._lock:
            record = LedgerRecord(
                seq=self._seq,
                type=type_,
                data=data,
                prev=self._prev,
                hash=record_hash(self._seq, type_, data, self._prev),
            )
            self._handle.write(record.to_line())
            if self.fsync == "always" or (
                self.fsync == "round" and type_ in ROUND_BOUNDARY_TYPES
            ):
                self._handle.flush()
                # repro-lint: allow[lock-blocking-call] crash-consistency: the hash chain's append order must equal the on-disk order, so the sync stays inside the lock
                os.fsync(self._handle.fileno())
            self._seq += 1
            self._prev = record.hash
        return record

    def flush(self) -> None:
        """Push every appended record to disk now, regardless of policy."""
        with self._lock:
            if not self._closed:
                self._handle.flush()
                # repro-lint: allow[lock-blocking-call] explicit flush(): callers asked for durability before the lock is released
                os.fsync(self._handle.fileno())

    @property
    def records_written(self) -> int:
        return self._seq

    def head(self) -> str:
        return self._prev

    def close(self) -> None:
        if self._closed:
            return
        with self._lock:
            self._closed = True
            self._handle.flush()
            # repro-lint: allow[lock-blocking-call] final durability barrier: no append may slip between the last sync and the close
            os.fsync(self._handle.fileno())
            self._handle.close()

    def __enter__(self) -> "LedgerWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
