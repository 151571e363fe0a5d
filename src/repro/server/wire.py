"""Typed frames over one grammar: the batches servers and the swarm exchange.

Every frame that carries a list of byte strings is a 13-byte head — round
number, attempt, kind index — followed by one packed list
(:mod:`repro.net.packed`, whose ``unpack`` is the one bounds check).  The
functions here only give the list its meaning:

* a **hop batch** (:func:`encode_batch`) is a round's requests, or its
  responses, forwarded between servers whole;
* a **submission batch** (:data:`~repro.net.MessageKind.SUBMISSION_BATCH`)
  is one chunk of a round's ``(client, wire)`` submissions, so ingesting
  100k clients costs thousands of frames instead of 100k round trips.  Its
  list holds the chunk's names and then its payloads, two columns of equal
  count;
* a **collect request** (:data:`~repro.net.MessageKind.RESPONSE_COLLECT`)
  lists the clients whose responses a resolved round should return;
* a **collect reply** holds one packed list of responses per named client.

The kind index is the submitted kind for submissions and collect requests,
and ``CONTROL`` in the frames that carry none.  The attempt is the
coordinator's §6 retry counter in hop batches and 1 elsewhere.

Two frames are not lists and keep fixed structs: the **verdict frame**
answering a submission batch with one byte per entry (accepted / refused /
late) — immediately, never a long-poll, so the sender's synchronous wait
per chunk is the ingest backpressure — and the client's
:data:`~repro.net.MessageKind.DIAL_DOWNLOAD` request for a dialing round's
invitation store (the paper serves this from a CDN; the entry server is our
untrusted CDN front).

All decoders return zero-copy :class:`memoryview` slices for the payloads
and refuse a malformed frame with :class:`~repro.errors.ProtocolError`.
"""

from __future__ import annotations

import struct

from ..errors import ProtocolError
from ..net import MessageKind
from ..net.messages import KIND_INDEX, kind_at
from ..net.packed import pack, unpack

_HEAD = struct.Struct(">QIB")  # round number, attempt, kind index
_DOWNLOAD = struct.Struct(">Q")  # dialing round number
_VERDICT_HEAD = struct.Struct(">QI")  # round number, verdict count

#: Per-entry verdict bytes in a :func:`encode_batch_verdicts` frame.
VERDICT_ACCEPTED = 0
VERDICT_REFUSED = 1
VERDICT_LATE = 2


def _round(round_number: int) -> int:
    if round_number < 0:
        raise ProtocolError("round numbers are non-negative")
    return round_number


def _attempt(attempt: int) -> int:
    if attempt < 1:
        raise ProtocolError("round attempts are numbered from 1")
    return attempt


def _frame(round_number: int, attempt: int, kind: MessageKind, entries) -> bytes:
    return pack(_HEAD.pack(_round(round_number), _attempt(attempt), KIND_INDEX[kind]), entries)


def _fields(payload, head: struct.Struct) -> tuple:
    if len(payload) < head.size:
        raise ProtocolError(f"frame too short to contain its {head.size}-byte header")
    return head.unpack_from(payload, 0)


def _present(buffer) -> list[memoryview]:
    """A frame's packed list, none of whose entries may be missing."""
    entries = unpack(buffer)
    if any(entry is None for entry in entries):
        raise ProtocolError("a frame's list holds a missing entry")
    return entries


def _open(payload) -> tuple[int, int, MessageKind, list[memoryview]]:
    """Split a list frame into ``(round_number, attempt, kind, entries)``."""
    round_number, attempt, kind_index = _fields(payload, _HEAD)
    attempt, kind = _attempt(attempt), kind_at(kind_index)
    return round_number, attempt, kind, _present(memoryview(payload)[_HEAD.size :])


def _names(entries: list[memoryview]) -> list[str]:
    try:
        return [str(name, "utf-8") for name in entries]
    except UnicodeDecodeError:
        raise ProtocolError("a client name in a frame is not UTF-8") from None


def encode_batch(round_number: int, requests: list[bytes], attempt: int = 1) -> bytes:
    """Serialise a round's worth of requests (or responses).

    ``attempt`` is the coordinator's §6 retry counter for the round (1 for a
    round's first drive).  It travels in the batch header so every hop — and
    the last server's dead-drop processor — agrees on which attempt of the
    round it is processing: each server derives its noise, wrap scalars and
    mix permutation from a per-``(round, attempt)`` rng fork, so a retried or
    crash-recovered round is a pure function of the config seed, not of how
    many batches the server happened to process before it.

    Accepts any bytes-like entries, so zero-copy slices from
    :func:`decode_batch` can be re-encoded without materialising copies.
    """
    return _frame(round_number, attempt, MessageKind.CONTROL, requests)


def decode_batch(payload: bytes) -> tuple[int, int, list[memoryview]]:
    """Parse a batch back into (round_number, attempt, requests) without copying.

    The returned requests are read-only :class:`memoryview` slices of
    ``payload``.  Views compare equal to the bytes they alias; callers that
    need to outlive ``payload`` take ``bytes(request)`` explicitly.
    """
    round_number, attempt, _, requests = _open(payload)
    return round_number, attempt, requests


def encode_download_request(round_number: int) -> bytes:
    """Frame a client's invitation-store download request for one round."""
    return _DOWNLOAD.pack(_round(round_number))


def decode_download_request(payload: bytes) -> int:
    """Parse a download request back to its dialing round number."""
    if len(payload) != _DOWNLOAD.size:
        raise ProtocolError("malformed invitation download request")
    (round_number,) = _DOWNLOAD.unpack(payload)
    return round_number


def encode_submission_batch(
    kind: MessageKind, round_number: int, entries: list[tuple[str, bytes]]
) -> bytes:
    """Frame one chunk of a round's ``(client, payload)`` submissions.

    Payload entries may be any bytes-like object, so a swarm chunk of
    memoryviews is framed without intermediate copies.
    """
    names = [source.encode("utf-8") for source, _ in entries]
    return _frame(round_number, 1, kind, [*names, *(payload for _, payload in entries)])


def decode_submission_batch(
    payload: bytes,
) -> tuple[MessageKind, int, list[tuple[str, memoryview]]]:
    """Parse a submission batch; payloads come back as zero-copy views."""
    round_number, _, kind, entries = _open(payload)
    count = len(entries) // 2
    if 2 * count != len(entries):
        raise ProtocolError("a submission batch needs as many payloads as names")
    return kind, round_number, list(zip(_names(entries[:count]), entries[count:]))


def encode_batch_verdicts(round_number: int, verdicts: bytes) -> bytes:
    """Frame the per-entry admission verdicts of one submission batch.

    ``verdicts`` may be any buffer (the coordinator hands over its working
    bytearray); ``join`` concatenates without an intermediate copy of it.
    """
    return b"".join((_VERDICT_HEAD.pack(round_number, len(verdicts)), verdicts))


def decode_batch_verdicts(payload: bytes) -> tuple[int, bytes]:
    """Parse a verdict frame back to ``(round_number, verdict bytes)``."""
    round_number, count = _fields(payload, _VERDICT_HEAD)
    # repro-lint: allow[zero-copy] declared retention boundary: verdicts are handed to callers that outlive the reply frame
    verdicts = bytes(memoryview(payload)[_VERDICT_HEAD.size :])
    if len(verdicts) != count:
        raise ProtocolError("verdict frame length does not match its count")
    if any(v > VERDICT_LATE for v in verdicts):
        raise ProtocolError("unknown verdict byte in a verdict frame")
    return round_number, verdicts


def encode_collect_request(kind: MessageKind, round_number: int, names: list[str]) -> bytes:
    """Frame a bulk response-collection request for one round."""
    return _frame(round_number, 1, kind, [name.encode("utf-8") for name in names])


def decode_collect_request(payload: bytes) -> tuple[MessageKind, int, list[str]]:
    """Parse a collect request back to ``(kind, round_number, names)``."""
    round_number, _, kind, names = _open(payload)
    return kind, round_number, _names(names)


def encode_collect_reply(round_number: int, responses: list[list[bytes]]) -> bytes:
    """Frame per-client response lists, aligned with the request's names."""
    return _frame(round_number, 1, MessageKind.CONTROL, [pack(b"", client) for client in responses])


def decode_collect_reply(payload: bytes) -> tuple[int, list[list[memoryview]]]:
    """Parse a collect reply; responses come back as zero-copy views."""
    round_number, _, _, clients = _open(payload)
    return round_number, [_present(client) for client in clients]
