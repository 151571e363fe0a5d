"""In-memory span tracer for the traced (`--trace 1`) benchmark run.

A *span* is one call into a layer: name, start, end, the span that caused it
and the round it belongs to.  Recording happens only inside a *root* span (one
measured round, or one scheduler session).  Spans nest per thread; the first
span a helper thread opens while a root is active (the swarm's submit pool
thread, the scheduler's dialing thread) becomes a *remote* child of that root.
High-frequency leaf calls (every curve multiply, AEAD box and HKDF expansion)
are not kept as spans — they are *charged* to the span they ran in, as one
(seconds, calls, units) aggregate per (span name, tag, leaf name), so a
4,000-wire round costs a handful of records instead of tens of thousands.

Self time is a span's duration minus what its children and charged leaves
cover.  A root's remote children run on other threads: the part of them that
falls into the root thread's own idle gaps (it was only waiting) is taken out
of the root's self time, the rest ran in parallel with other traced work and
is the *overlap*.  That gives the identity the benchmark's smoke test checks::

    sum(root durations) == sum(every self time) - overlap
"""

from __future__ import annotations

import json
import threading
from time import perf_counter


class Span:
    """One timed call; ``covered`` is what same-thread children and leaves took."""

    __slots__ = ("name", "start", "end", "parent", "round_id", "tag", "covered", "remote")

    def __init__(self, name: str, parent: "Span | None", remote: bool, round_id, tag) -> None:
        self.name = name
        self.parent = parent
        #: Opened on another thread than its parent (only roots have such children).
        self.remote = remote
        self.round_id = round_id
        self.tag = tag
        self.covered = 0.0
        self.end = 0.0
        self.start = perf_counter()

    @property
    def duration(self) -> float:
        return self.end - self.start


def _merged(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Sorted, non-overlapping union of ``intervals``."""
    merged: list[tuple[float, float]] = []
    for begin, end in sorted(intervals):
        if merged and begin <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        elif end > begin:
            merged.append((begin, end))
    return merged


def _gaps(start: float, end: float, busy: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """The parts of ``[start, end]`` that the merged ``busy`` list leaves free."""
    gaps: list[tuple[float, float]] = []
    cursor = start
    for begin, finish in busy:
        if begin > cursor:
            gaps.append((cursor, begin))
        cursor = max(cursor, finish)
    if end > cursor:
        gaps.append((cursor, end))
    return gaps


def _common(left: list[tuple[float, float]], right: list[tuple[float, float]]) -> float:
    """Total length both merged interval lists cover."""
    total = 0.0
    i = j = 0
    while i < len(left) and j < len(right):
        begin = max(left[i][0], right[j][0])
        end = min(left[i][1], right[j][1])
        if end > begin:
            total += end - begin
        if left[i][1] < right[j][1]:
            i += 1
        else:
            j += 1
    return total


class Tracer:
    """Collects spans and leaf charges from every thread of the driver process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: (enclosing span name, its tag, leaf name) -> [seconds, calls, units]
        self.leaves: dict[tuple, list[float]] = {}
        self._local = threading.local()
        self._root: Span | None = None

    # ---------------------------------------------------------------- spans

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, *, round_id=None, tag=None, root: bool = False) -> Span | None:
        """Open a span, or return ``None`` when no root is active (untimed code)."""
        stack = self._stack()
        if root:
            span = self._root = Span(name, None, False, round_id, tag)
        elif stack:
            parent = stack[-1]
            span = Span(
                name,
                parent,
                False,
                parent.round_id if round_id is None else round_id,
                parent.tag if tag is None else tag,
            )
        elif self._root is not None:
            parent = self._root
            span = Span(
                name,
                parent,
                True,
                parent.round_id if round_id is None else round_id,
                parent.tag if tag is None else tag,
            )
        else:
            return None
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()
        if span.parent is not None and not span.remote:
            span.parent.covered += span.end - span.start
        if span is self._root:
            self._root = None
        self.spans.append(span)

    # --------------------------------------------------------------- leaves

    def charge(self, leaf: str, seconds: float, units: int = 1) -> None:
        """Charge one leaf call to the span the calling thread is inside.

        A leaf outside every span of its thread is not recorded: that time
        stays in the root's self time, which is what orchestration means.
        """
        stack = self._stack()
        if not stack:
            return
        owner = stack[-1]
        owner.covered += seconds
        key = (owner.name, owner.tag, leaf)
        entry = self.leaves.get(key)
        if entry is None:
            self.leaves[key] = [seconds, 1, units]
        else:
            entry[0] += seconds
            entry[1] += 1
            entry[2] += units

    # -------------------------------------------------------------- summary

    def summary(self) -> dict:
        """Self seconds per span name and per leaf, the overlap, the wall.

        ``leaves_in`` is the leaf time charged inside each span name (a
        layer's self time plus this is its time *including* the crypto it
        called).  ``by_tag`` repeats ``self`` and ``leaves_in`` per tag
        ("conversation" / "dialing"), so one kind of round can be read alone.
        """
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(id(span.parent), []).append(span)
        result: dict = {"wall": 0.0, "overlap": 0.0, "self": {}, "leaves": {}, "leaves_in": {}}
        by_tag: dict = {}

        def add(table: dict, key: str, seconds: float) -> None:
            table[key] = table.get(key, 0.0) + seconds

        for span in self.spans:
            own = span.duration - span.covered
            if span.parent is None:
                result["wall"] += span.duration
                kids = children.get(id(span), [])
                remote = [(kid.start, kid.end) for kid in kids if kid.remote]
                if remote:
                    local = _merged([(kid.start, kid.end) for kid in kids if not kid.remote])
                    idle = _gaps(span.start, span.end, local)
                    hidden = min(own, _common(idle, _merged(remote)))
                    result["overlap"] += sum(end - begin for begin, end in remote) - hidden
                    own -= hidden
            add(result["self"], span.name, own)
            if span.tag is not None:
                add(by_tag.setdefault(span.tag, {"self": {}, "leaves_in": {}})["self"], span.name, own)
        for (owner, tag, leaf), (seconds, calls, units) in self.leaves.items():
            entry = result["leaves"].setdefault(leaf, [0.0, 0, 0])
            entry[0] += seconds
            entry[1] += calls
            entry[2] += units
            add(result["leaves_in"], owner, seconds)
            if tag is not None:
                add(by_tag.setdefault(tag, {"self": {}, "leaves_in": {}})["leaves_in"], owner, seconds)
        result["by_tag"] = by_tag
        return result

    def dump(self, path, header: dict) -> None:
        """Write every span and leaf aggregate as one JSON document."""
        index = {id(span): number for number, span in enumerate(self.spans)}
        document = {
            **header,
            "span_fields": ["name", "start", "end", "parent", "round", "tag", "remote"],
            "spans": [
                [
                    span.name,
                    span.start,
                    span.end,
                    None if span.parent is None else index[id(span.parent)],
                    span.round_id,
                    span.tag,
                    span.remote,
                ]
                for span in self.spans
            ],
            "leaf_fields": ["span", "tag", "leaf", "seconds", "calls", "units"],
            "leaves": [
                [owner, tag, leaf, seconds, calls, units]
                for (owner, tag, leaf), (seconds, calls, units) in self.leaves.items()
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
            handle.write("\n")
