"""The packed-list grammar and the typed frames over it: every refusal, and
structure-aware mutations of valid frames.

One table lists each way a frame can be refused.  The property test builds
valid frames with every ``repro.server.wire`` codec pair and the engine's
task block, then truncates them, lies in their count or offsets, or appends
bytes.  A frame's length is exact, so a truncated or extended one must be
refused; after a lie the decoder must either return a value that survives
a re-encode or raise :class:`ProtocolError` — never any other exception.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.net import MessageKind
from repro.net.messages import KIND_INDEX
from repro.net.packed import pack, unpack, unpack_owned
from repro.net.tcp import decode_request
from repro.server import wire

HEAD = struct.Struct(">QIB")  # round number, attempt, kind index
U32 = struct.Struct(">I")
SUBMIT = KIND_INDEX[MessageKind.CONVERSATION_REQUEST]


def head(attempt: int = 1, kind_index: int = 0) -> bytes:
    return HEAD.pack(7, attempt, kind_index)


REFUSALS = [
    # The grammar's one bounds check.
    ("short list header", unpack, b"\x00\x00\x00", "too short to contain its count"),
    ("count the buffer cannot hold", unpack, U32.pack(3) + b"\x01\x01", "overruns"),
    ("offsets that decrease", unpack, struct.pack(">4I", 3, 2, 1, 3) + b"\x01" * 3 + b"abc", "must rise"),
    ("offsets past the end", unpack, struct.pack(">2I", 1, 5) + b"\x01abc", "must rise"),
    ("trailing bytes", unpack, pack(b"", [b"abc"]) + b"x", "must rise"),
    ("engine block cut short", unpack_owned, pack(b"", [b"abc", None])[:-2], "must rise"),
    # The typed frames' heads.
    ("frame shorter than its head", wire.decode_batch, head()[:-1], "too short"),
    ("attempt zero", wire.decode_batch, head(attempt=0) + pack(b"", []), "numbered from 1"),
    ("unknown kind index", wire.decode_submission_batch, head(kind_index=200) + pack(b"", []), "unknown message kind"),
    ("unknown kind index over TCP", decode_request, struct.pack(">BQHH", 200, 0, 0, 0), "unknown message kind"),
    ("list frame with a missing entry", wire.decode_batch, head() + pack(b"", [b"a", None]), "missing entry"),
    ("collect reply with a missing response", wire.decode_collect_reply, head() + pack(b"", [pack(b"", [None])]), "missing entry"),
    # What the lists mean.
    ("submission names without payloads", wire.decode_submission_batch, head(kind_index=SUBMIT) + pack(b"", [b"a"]), "as many payloads"),
    ("submission name not UTF-8", wire.decode_submission_batch, head(kind_index=SUBMIT) + pack(b"", [b"\xff\xfe", b"x"]), "not UTF-8"),
    ("collect name not UTF-8", wire.decode_collect_request, head(kind_index=SUBMIT) + pack(b"", [b"\xff\xfe"]), "not UTF-8"),
    # The fixed-struct frames.
    ("download request of the wrong size", wire.decode_download_request, b"\x00" * 7, "malformed"),
    ("verdict frame shorter than its head", wire.decode_batch_verdicts, b"\x00" * 11, "too short"),
    ("verdict count mismatch", wire.decode_batch_verdicts, struct.pack(">QI", 7, 2) + b"\x00", "does not match"),
    ("unknown verdict byte", wire.decode_batch_verdicts, struct.pack(">QI", 7, 1) + b"\x03", "unknown verdict"),
    # Encoders refuse what no frame can carry.
    ("negative round in a list frame", lambda _: wire.encode_batch(-1, []), None, "non-negative"),
    ("negative round in a download", lambda _: wire.encode_download_request(-1), None, "non-negative"),
    ("attempt zero on encode", lambda _: wire.encode_batch(0, [], 0), None, "numbered from 1"),
]


@pytest.mark.parametrize(
    "decode,frame,message", [row[1:] for row in REFUSALS], ids=[row[0] for row in REFUSALS]
)
def test_every_refusal_is_a_protocol_error(decode, frame, message):
    with pytest.raises(ProtocolError, match=message):
        decode(frame)


@dataclass(frozen=True)
class Codec:
    """One frame type: how to draw its encoder's arguments, and where its
    list's count sits (``None`` for a frame without a count)."""

    encode: Callable
    decode: Callable
    args: st.SearchStrategy
    #: Decoded value -> encoder arguments, to re-encode an accepted frame.
    again: Callable
    count_at: int | None
    #: Whether u32 offsets follow the count (a packed list).
    listed: bool = True


rounds = st.integers(min_value=0, max_value=2**64 - 1)
kinds = st.sampled_from(list(MessageKind))
blobs = st.lists(st.binary(max_size=24), max_size=6)

CODECS = {
    "batch": Codec(
        wire.encode_batch,
        wire.decode_batch,
        st.tuples(rounds, blobs, st.integers(min_value=1, max_value=2**32 - 1)),
        lambda value: (value[0], value[2], value[1]),
        HEAD.size,
    ),
    "download": Codec(
        wire.encode_download_request,
        wire.decode_download_request,
        st.tuples(rounds),
        lambda value: (value,),
        None,
    ),
    "submission": Codec(
        wire.encode_submission_batch,
        wire.decode_submission_batch,
        st.tuples(kinds, rounds, st.lists(st.tuples(st.text(max_size=8), st.binary(max_size=24)), max_size=5)),
        lambda value: value,
        HEAD.size,
    ),
    "verdicts": Codec(
        wire.encode_batch_verdicts,
        wire.decode_batch_verdicts,
        st.tuples(rounds, st.lists(st.integers(0, 2), max_size=8).map(bytes)),
        lambda value: value,
        8,
        listed=False,
    ),
    "collect_request": Codec(
        wire.encode_collect_request,
        wire.decode_collect_request,
        st.tuples(kinds, rounds, st.lists(st.text(max_size=8), max_size=6)),
        lambda value: value,
        HEAD.size,
    ),
    "collect_reply": Codec(
        wire.encode_collect_reply,
        wire.decode_collect_reply,
        st.tuples(rounds, st.lists(blobs, max_size=5)),
        lambda value: value,
        HEAD.size,
    ),
    "engine_block": Codec(
        lambda entries: pack(b"", entries),
        unpack_owned,
        st.tuples(st.lists(st.none() | st.binary(max_size=24), max_size=6)),
        lambda value: (value,),
        0,
    ),
}


def mutate(data, codec: Codec, frame: bytes) -> tuple[bytes, bool]:
    """Truncate the frame, lie in its count or one offset, or append bytes;
    says whether the result must be refused."""
    mutations = ["truncate", "append"]
    if codec.count_at is not None:
        mutations.append("count")
        if codec.listed and U32.unpack_from(frame, codec.count_at)[0]:
            mutations.append("offset")
    mutation = data.draw(st.sampled_from(mutations))
    if mutation == "truncate":
        return frame[: data.draw(st.integers(0, len(frame) - 1))], True
    if mutation == "append":
        return frame + data.draw(st.binary(min_size=1, max_size=12)), True
    at = codec.count_at
    if mutation == "offset":
        (count,) = U32.unpack_from(frame, at)
        at += U32.size * (1 + data.draw(st.integers(0, count - 1)))
    lie = U32.pack(data.draw(st.integers(0, 2**32 - 1)))
    return frame[:at] + lie + frame[at + U32.size :], False


@pytest.mark.parametrize("name", list(CODECS))
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_mutated_frames_round_trip_or_are_refused(name, data):
    codec = CODECS[name]
    frame, must_refuse = mutate(data, codec, codec.encode(*data.draw(codec.args)))
    try:
        value = codec.decode(frame)
    except ProtocolError:
        return
    assert not must_refuse
    assert codec.decode(codec.encode(*codec.again(value))) == value

