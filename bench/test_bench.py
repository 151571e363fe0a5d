"""Smoke test of the round benchmark: contract, schema, determinism, trace sums.

Runs every workload at ``--smoke`` sizes (a few seconds in all), untraced and
traced, through the same command the driver uses.
"""

from __future__ import annotations

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("cryptography", reason="the benchmark requires the cryptography backend")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: Counts that must repeat exactly for one seed (and a fixed number of rounds).
EXACT_COUNTS = ("crypto.curve_ops", "mixnet.noise_wires", "net.frames", "wire.bytes", "ledger.records")
#: Per-layer seconds that are not a share of the round wall.
NOT_SELF_TIME = {"dialing.round_p50_s", "trace.round_p50_s", "core.round_wall_s", "scheduler.overlap_s"}

_spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def results() -> dict:
    """``(workload, trace) -> [result, ...]``: one untraced and two traced runs each."""
    collected: dict = {}
    for workload in WORKLOADS:
        for trace in (0, 1, 1):
            done = run(workload, trace)
            assert done.returncode == 0, done.stdout + done.stderr
            collected.setdefault((workload, trace), []).append(
                json.loads(done.stdout.splitlines()[-1])
            )
    return collected


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert SPEC["paths"] == ["bench"]
    assert 2 <= len(WORKLOADS) <= 8
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    # 4 + 22 runs per workload, each the window plus three set-ups, inside 3420 s.
    assert (4 + 22 * len(WORKLOADS)) * (SPEC["run_seconds"] + 12) < 3420


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted(results, workload, trace, section):
    result = results[(workload, trace)][0]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {entry["name"]: entry["unit"] for entry in SPEC[section]}
    assert set(result["metrics"]) == set(declared)
    for name, measured in result["metrics"].items():
        assert set(measured) == {"value", "unit"} and measured["unit"] == declared[name]
        assert isinstance(measured["value"], (int, float)) and measured["value"] >= 0
    if trace == 0:
        assert all(measured["value"] > 0 for measured in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_sum_to_the_round_wall(results, workload):
    metrics = {name: m["value"] for name, m in results[(workload, 1)][0]["metrics"].items()}
    self_times = sum(
        value for name, value in metrics.items()
        if (name.endswith("_s") or name == "admission.s") and name not in NOT_SELF_TIME
    )
    wall = metrics["core.round_wall_s"]
    assert self_times - metrics["scheduler.overlap_s"] == pytest.approx(wall, rel=1e-6)
    assert (BENCH / "out" / f"trace-{workload}.json").is_file()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_for_one_seed(results, workload):
    first, second = (
        {name: run["metrics"][name]["value"] for name in EXACT_COUNTS}
        for run in results[(workload, 1)]
    )
    assert first == second


def test_overlap_accounting_on_a_hand_built_trace():
    """Root 0-10 s; a local child 1-4 s; a remote child 2-6 s: 2 s of the remote
    child ran beside the local child (overlap), 2 s while the root only waited."""
    tracer = spans.Tracer()
    root = spans.Span("core", None, False, 0, None)
    local = spans.Span("swarm.wrap", root, False, 0, None)
    remote = spans.Span("admission", root, True, 0, None)
    (root.start, root.end), (local.start, local.end), (remote.start, remote.end) = (0, 10), (1, 4), (2, 6)
    root.covered = 3.0
    tracer.spans = [local, remote, root]
    summary = tracer.summary()
    assert summary["wall"] == 10 and summary["overlap"] == 2
    assert summary["self"] == {"swarm.wrap": 3, "admission": 4, "core": 5}
    assert sum(summary["self"].values()) - summary["overlap"] == summary["wall"]


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, there is nothing to measure."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")
