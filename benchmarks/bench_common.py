"""Shared helpers for the benchmark harness.

Every module in this directory regenerates one table or figure from the
paper's evaluation (README "Paper figures" is the index).  Benchmarks attach the
regenerated series to ``benchmark.extra_info`` so the JSON output of
``pytest benchmarks/ --benchmark-only --benchmark-json=results.json`` contains
the data alongside the timings, and also print a compact table so a plain run
shows the numbers being compared against the paper.
"""

from __future__ import annotations

import resource
import sys
import time
from contextlib import contextmanager


class PhaseTimer:
    """Accumulates measured per-phase seconds across the rounds of a run.

    Benchmarks split a round's wall clock into named phases (wrap,
    admission, chain, decode, ...) either by timing blocks directly::

        timer = PhaseTimer()
        with timer.phase("wrap"):
            build_the_round()

    or by absorbing a phase dict the system already measured
    (``SwarmRoundReport.phases``)::

        timer.absorb(report.phases)

    ``to_dict()`` returns the per-round records plus summed totals, the
    shape the BENCH_*.json artifacts embed.
    """

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}
        self.rounds: list[dict] = []

    def add(self, name: str, seconds: float) -> None:
        self.totals[name] = self.totals.get(name, 0.0) + seconds

    @contextmanager
    def phase(self, name: str):
        begin = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - begin)

    def absorb(self, phases: dict | None) -> None:
        """Fold one round's ``{*_seconds: float}`` phase dict into the run."""
        if phases is None:
            return
        self.rounds.append({key: value for key, value in phases.items()})
        for key, value in phases.items():
            if key.endswith("_seconds") and key != "total_seconds":
                self.add(key[: -len("_seconds")], value)

    def to_dict(self) -> dict:
        return {
            "totals": {name: round(seconds, 4) for name, seconds in sorted(self.totals.items())},
            "rounds": [
                {
                    key: (round(value, 4) if isinstance(value, float) else value)
                    for key, value in record.items()
                }
                for record in self.rounds
            ],
        }


def peak_rss_bytes() -> int:
    """Peak resident-set size of this process, in bytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalise so the
    JSON artifacts are comparable across hosts.  This is a high-water mark —
    report it once at the end of a run, after the largest round.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return int(peak)
    return int(peak) * 1024


def emit(title: str, rows: list[dict[str, object]]) -> None:
    """Print a small aligned table with the regenerated figure/table data."""
    if not rows:
        return
    columns = list(rows[0].keys())
    widths = {
        column: max(len(str(column)), *(len(_fmt(row[column])) for row in rows))
        for column in columns
    }
    lines = [f"\n== {title} =="]
    lines.append("  ".join(str(column).rjust(widths[column]) for column in columns))
    for row in rows:
        lines.append("  ".join(_fmt(row[column]).rjust(widths[column]) for column in columns))
    print("\n".join(lines), file=sys.stderr)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) < 0.01 and value != 0:
            return f"{value:.2e}"
        return f"{value:.2f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)
