"""Packed entry blocks: how round batches cross the engine's task pipe.

A round's wires are variable-length byte strings, and a peel's results may
be ``None`` (the batch pipeline marks malformed wires that way).  The engine
packs one chunk of them into one flat *entry block* — an offset table
followed by the concatenated payloads — so a chunk crosses the pipe to a
worker, and its results cross back, as one ``bytes`` object instead of a
pickled list of thousands.

Block layout (little-endian, 8-byte aligned so the offset table can be read
through ``memoryview.cast("Q")`` without copying)::

    u64 count
    u64 offsets[count + 1]     # relative to the payload area
    u8  mask[count]            # 1 = entry present, 0 = entry is None
    payload bytes

``None`` entries are encoded with a zero-length payload span and a cleared
mask bit, so peel results round-trip through workers unchanged.
"""

from __future__ import annotations

import struct
from typing import Sequence

_COUNT = struct.Struct("<Q")


def pack_entries(entries: Sequence[bytes | memoryview | None]) -> bytes:
    """Serialise a batch of (possibly ``None``) byte strings into one block."""
    count = len(entries)
    offsets = [0] * (count + 1)
    mask = bytearray(count)
    parts: list[bytes | memoryview] = []
    position = 0
    for index, entry in enumerate(entries):
        if entry is not None:
            mask[index] = 1
            parts.append(entry)
            position += len(entry)
        offsets[index + 1] = position
    header = (
        _COUNT.pack(count)
        + struct.pack(f"<{count + 1}Q", *offsets)
        + bytes(mask)
    )
    return b"".join([header, *parts])


class BlockView:
    """Read-side view of a packed entry block over a borrowed buffer.

    Never copies: :meth:`slices` returns ``memoryview`` windows into the
    underlying buffer (``None`` for masked-out entries).  Every view handed
    out is tracked and released by :meth:`close`, so the buffer can be
    resized or freed deterministically afterwards.
    """

    def __init__(self, buffer) -> None:
        view = buffer if isinstance(buffer, memoryview) else memoryview(buffer)
        self._root = view
        (self.count,) = _COUNT.unpack_from(view, 0)
        offsets_end = 8 + (self.count + 1) * 8
        self._offsets = view[8:offsets_end].cast("Q")
        self._mask = view[offsets_end : offsets_end + self.count]
        self._payload_base = offsets_end + self.count
        self._children: list[memoryview] = []

    def slices(self, lo: int = 0, hi: int | None = None) -> list[memoryview | None]:
        """Entry windows ``[lo, hi)``; ``None`` where the mask bit is clear."""
        hi = self.count if hi is None else hi
        if not 0 <= lo <= hi <= self.count:
            raise ValueError(f"entry range [{lo}, {hi}) outside block of {self.count}")
        base = self._payload_base
        out: list[memoryview | None] = []
        for index in range(lo, hi):
            if not self._mask[index]:
                out.append(None)
                continue
            window = self._root[base + self._offsets[index] : base + self._offsets[index + 1]]
            self._children.append(window)
            out.append(window)
        return out

    def close(self) -> None:
        for child in self._children:
            child.release()
        self._children.clear()
        self._offsets.release()
        self._mask.release()


def unpack_entries(buffer) -> list[bytes | None]:
    """Copy a packed block back out into owned byte strings."""
    block = BlockView(buffer)
    try:
        return [None if entry is None else bytes(entry) for entry in block.slices()]
    finally:
        block.close()
