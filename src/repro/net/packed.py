"""The packed list: one grammar for every batch of byte strings.

Servers forward whole rounds, the swarm submits and collects in chunks, and
the round engine ships each chunk to a worker and back.  All of them are "a
list of byte strings, some possibly missing", and all of them travel in this
one layout (big-endian)::

    u32 count
    u32 ends[count]        # where each entry stops, relative to the payload area
    u8  present[count]     # 0 = the entry is None (its span is empty)
    payload bytes          # the entries, back to back

:func:`unpack` reads the whole offset table with one ``struct.unpack_from``
and hands back zero-copy :class:`memoryview` slices.  Its bounds check is
the only one: a short header, a count the buffer cannot hold, offsets that
decrease, and offsets that stop short of or run past the buffer's end are
all refused with :class:`~repro.errors.ProtocolError`.  The typed frames in
:mod:`repro.server.wire` and the engine's task blocks are thin wrappers.
"""

from __future__ import annotations

import struct
from itertools import accumulate
from typing import Sequence

from ..errors import ProtocolError

_COUNT = struct.Struct(">I")
#: Table bytes per entry: one u32 end offset and one presence byte.
_PER_ENTRY = 5


def pack(head: bytes, entries: Sequence[bytes | memoryview | None]) -> bytes:
    """Serialise ``head`` followed by a list of (possibly ``None``) byte strings.

    ``head`` is the enclosing frame's fixed header (``b""`` for a bare
    list); it is joined in the same pass, so a round's payloads are copied
    once.  Entries may be any bytes-like object; ``bytes.join`` reads them
    through the buffer protocol, so views are framed without intermediate
    copies.
    """
    count = len(entries)
    if any(entry is None for entry in entries):
        present = bytes([entry is not None for entry in entries])
        entries = [b"" if entry is None else entry for entry in entries]
    else:
        present = b"\x01" * count
    table = struct.pack(f">I{count}I", count, *accumulate(map(len, entries)))
    return b"".join((head, table, present, *entries))


def unpack(buffer) -> list[memoryview | None]:
    """Parse one packed list that fills ``buffer`` exactly, without copying.

    The returned entries are views of ``buffer`` (``None`` where the
    presence byte is clear); callers that outlive it take ``bytes``.
    """
    view = memoryview(buffer)
    size = len(view)
    if size < _COUNT.size:
        raise ProtocolError("packed list too short to contain its count")
    (count,) = _COUNT.unpack_from(view, 0)
    base = _COUNT.size + _PER_ENTRY * count
    if base > size:
        raise ProtocolError(f"packed list of {count} entries overruns its {size} bytes")
    ends = struct.unpack_from(f">{count}I", view, _COUNT.size)
    body = view[base:]
    if (ends[-1] if count else 0) != len(body) or list(ends) != sorted(ends):
        raise ProtocolError(
            f"packed list offsets must rise to the end of its {len(body)}-byte payload"
        )
    present = view[base - count : base]
    return [body[lo:hi] if flag else None for lo, hi, flag in zip((0, *ends), ends, present)]


def unpack_owned(buffer) -> list[bytes | None]:
    """:func:`unpack`, copied out into owned ``bytes``: a round engine task
    block, whose entries outlive the pipe message that carried them."""
    # repro-lint: allow[zero-copy] retention boundary: engine results outlive their task block, and workers hand owned bytes to the crypto ops
    return [None if view is None else bytes(view) for view in unpack(buffer)]
