"""The round benchmark: four workloads through the real round path.

    python3 bench/run.py                              # every workload, untraced
    python3 bench/run.py --trace 1                    # ... plus the per-layer split and the tracing overhead
    python3 bench/run.py --workload tcp-small --seed 7 --seconds 15 --trace 0
    python3 bench/run.py --aa [--runs 10]             # two sets of the same code against the bounds
    python3 bench/run.py --smoke [--trace 1]          # tiny sizes, a few seconds

With ``--workload`` this process measures that one workload (a fresh process
per workload, so the RSS high-water mark is per workload) and prints, as the
last line of its standard output, one JSON object::

    {"correct": true, "attempted": 1000, "failed": 0, "metrics": {"msgs_per_s": {"value": 1.2, "unit": "1/s"}, ...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1``
the per-layer ones (and writes ``bench/out/trace-<workload>.json``).  Metric
names, units and regression bounds live in ``BENCHMARK.json`` and nowhere else.
See ``bench/README.md`` for the catalogue.
"""

from time import perf_counter

_STARTED = perf_counter()  # set-up time is counted from here

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
#: In-run set-up samples (this process plus fresh probe processes); the median is reported.
SETUP_SAMPLES = 3
#: A child must end well inside the driver's 180 s limit.
CHILD_TIMEOUT = 170


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ------------------------------------------------------------------ host stamp


def host_stamp() -> dict:
    """Where this ran; ``noisy`` flags a host too loaded for timings to mean much."""
    from repro.crypto import active_backend

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "backend": active_backend().name,
        "numpy": importlib.util.find_spec("numpy") is not None,
        "uvloop": importlib.util.find_spec("uvloop") is not None,
        "commit": commit,
        "load1": round(load1, 2),
        "noisy": load1 > nproc / 2,
    }


# ------------------------------------------------------------- one workload


def tail(samples: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    for percentile in (99, 95, 90, 75):
        if len(samples) * (100 - percentile) / 100 >= 10:
            return percentile, statistics.quantiles(samples, n=100)[percentile - 1]
    return None


def setup_probe(args) -> float:
    """Set the workload up once more in a fresh process; its set-up seconds."""
    command = [
        sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(command, capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=True)
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def layer_metrics(summary: dict, counts: dict, window) -> dict[str, float]:
    """Every per-layer metric, per measured conversation round."""
    rounds = len(window.round_seconds)
    self_s, leaves = summary["self"], summary["leaves"]

    def spent(name: str) -> float:
        return self_s.get(name, 0.0) / rounds

    def leaf(name: str, column: int) -> float:
        return leaves.get(name, (0.0, 0, 0))[column] / rounds

    def count(name: str) -> float:
        return counts.get(name, 0) / rounds

    def share(part: str, whole: str) -> float:
        return counts.get(part, 0) / counts[whole] if counts.get(whole) else 0.0

    return {
        "crypto.curve_s": leaf("crypto.curve", 0),
        "crypto.curve_ops": leaf("crypto.curve", 2),
        "crypto.aead_s": leaf("crypto.aead", 0),
        "crypto.aead_boxes": leaf("crypto.aead", 2),
        "crypto.kdf_s": leaf("crypto.kdf", 0),
        "swarm.wrap_s": spent("swarm.wrap"),
        "swarm.decode_s": spent("swarm.decode"),
        "swarm.wires": count("swarm.wires"),
        "mixnet.hop0_s": spent("mixnet.hop0"),
        "mixnet.hop1_s": spent("mixnet.hop1"),
        "mixnet.hop2_s": spent("mixnet.hop2"),
        "mixnet.noise_s": spent("mixnet.noise"),
        "mixnet.noise_wires": count("mixnet.noise_wires"),
        "mixnet.shuffle_s": spent("mixnet.shuffle"),
        "deaddrop.exchange_s": spent("deaddrop.exchange"),
        "deaddrop.download_s": spent("deaddrop.download"),
        "deaddrop.requests": count("deaddrop.requests"),
        "deaddrop.matched_share": share("deaddrop.paired_accesses", "deaddrop.accesses"),
        "admission.s": spent("admission"),
        "admission.chunks": count("admission.chunks"),
        "admission.peak_buffer": counts.get("admission.peak_buffer", 0),
        "admission.accepted": count("admission.accepted"),
        "admission.refused": count("admission.refused"),
        "admission.late": count("admission.late"),
        "wire.encode_s": spent("wire.encode"),
        "wire.decode_s": spent("wire.decode"),
        "wire.bytes": count("wire.bytes"),
        "net.rpc_s": spent("net.rpc"),
        "net.frames": count("net.frames"),
        "net.bytes": count("net.bytes"),
        "net.control_rpcs_per_round": count("net.control_rpcs"),
        "client.build_s": spent("client.build"),
        "client.handle_s": spent("client.handle"),
        "dialing.scan_s": spent("dialing.scan"),
        "dialing.invitations_scanned": count("dialing.invitations_scanned"),
        "dialing.found_share": share("dialing.found", "dialing.dials"),
        "dialing.round_p50_s": (
            statistics.median(window.dial_round_seconds) if window.dial_round_seconds else 0.0
        ),
        "scheduler.overlap_s": summary["overlap"] / rounds,
        "scheduler.rounds": count("scheduler.rounds"),
        "ledger.append_s": spent("ledger.append"),
        "ledger.records": count("ledger.records"),
        "ledger.bytes": count("ledger.bytes"),
        "core.orchestration_s": spent("core"),
        "core.orchestration_share": self_s.get("core", 0.0) / summary["wall"],
        "core.round_wall_s": summary["wall"] / rounds,
        "trace.round_p50_s": statistics.median(window.round_seconds),
        "trace.spans": counts["trace.spans"],
    }


def print_split(title: str, self_s: dict, leaves_in: dict, wall: float, rounds: int) -> None:
    """One self-time table: seconds per round, share, and time including its crypto."""
    print(f"  {title}: {wall / rounds:.6f} s a round")
    for name, seconds in sorted(self_s.items(), key=lambda item: -item[1]):
        inside = leaves_in.get(name, 0.0)
        print(
            f"    {name:<20} self {seconds / rounds:10.6f} s {100 * seconds / wall:5.1f}%"
            + (f"   with its crypto {(seconds + inside) / rounds:10.6f} s" if inside else "")
        )


def measure(args, spec: dict) -> int:
    """Measure one workload in this process; print the result line last."""
    if not (SRC / "repro").is_dir():
        sys.exit(f"bench/run.py: {SRC}/repro not found — run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    from repro.crypto import active_backend

    if active_backend().name != "cryptography":
        sys.exit(
            "bench/run.py: the 'cryptography' backend is required (the pure-Python one is "
            "~20x slower, so its numbers are not comparable); install 'cryptography'"
        )
    import workloads

    instrumentation = None
    if args.trace:
        import layers
        import spans

        instrumentation = layers.Instrumentation(spans.Tracer())
        instrumentation.install()

    host = host_stamp()
    workload = workloads.make(
        args.workload, args.seed, smoke=args.smoke, instrumentation=instrumentation
    )
    window = workloads.Window()
    try:
        workload.setup()
        setup_samples = [perf_counter() - _STARTED]
        if args.setup_only:
            print(json.dumps({"setup_s": setup_samples[0]}))
            return 0
        if instrumentation is not None:
            instrumentation.reset()
        began = perf_counter()
        unit_rates: list[float] = []  # messages per second of each closed-loop unit
        while len(unit_rates) < args.rounds if args.rounds else perf_counter() - began < args.seconds:
            unit_began, delivered = perf_counter(), window.messages
            workload.run_unit(window)
            unit_rates.append((window.messages - delivered) / (perf_counter() - unit_began))
        wall = perf_counter() - began
        workload.finish(window)
        rss = workload.peak_rss_mb()
    finally:
        workload.close()

    print(
        "host " + " ".join(f"{key}={value}" for key, value in host.items())
        + (" — NOISY: load above nproc/2, timings are suspect" if host["noisy"] else "")
    )
    print(
        f"workload {args.workload} seed={args.seed} trace={args.trace}: {len(unit_rates)} closed-loop "
        f"units, {len(window.round_seconds)} conversation rounds, {len(window.dial_round_seconds)} "
        f"dialing rounds in {wall:.3f} s (one driver process, one control connection"
        + (", loopback TCP)" if args.workload == "tcp-small" else ", in-process)")
    )
    print(f"  fail_share        {window.failed / window.attempted:.6f}        "
          f"({window.failed} of {window.attempted} operations)")
    if args.trace:
        catalogue = spec["per_layer"]
        values = report_layers(args, window, instrumentation, host)
    else:
        catalogue = spec["end_to_end"]
        if not args.smoke:
            setup_samples += [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
        values = report_end_to_end(args, window, unit_rates, wall, rss, setup_samples)
    for problem in window.problems[:20]:
        print(f"  PROBLEM: {problem}")

    names = [entry["name"] for entry in catalogue]
    if sorted(names) != sorted(values):
        sys.exit(f"bench/run.py: measured {sorted(values)} but BENCHMARK.json declares {sorted(names)}")
    if args.trace:
        for entry in catalogue:
            print(f"  {entry['name']:<28} {values[entry['name']]:.6f} {entry['unit']}")
    correct = not window.problems and window.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": window.attempted,
        "failed": window.failed,
        "metrics": {
            entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
            for entry in catalogue
        },
    }))
    return 0 if correct else 1


def report_end_to_end(args, window, unit_rates, wall, rss, setup_samples) -> dict[str, float]:
    """Print and return the end-to-end metrics (and the ungated ones beside them)."""
    rounds = len(window.round_seconds)
    values = {
        "msgs_per_s": statistics.median(unit_rates),
        "round_p50_s": statistics.median(window.round_seconds),
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setup_samples),
    }
    print(f"  msgs_per_s        {values['msgs_per_s']:.3f} 1/s   (median of {len(unit_rates)} units; "
          f"{window.messages} messages verified in {wall:.3f} s = {window.messages / wall:.3f} 1/s overall)")
    print(f"  round_p50_s       {values['round_p50_s']:.6f} s    (n={rounds})")
    highest = tail(window.round_seconds)
    if highest:
        print(f"  round_tail_s      {highest[1]:.6f} s    (p{highest[0]}, n={rounds}; not gated)")
    if window.dial_round_seconds:
        print(
            f"  dial_round_p50_s  {statistics.median(window.dial_round_seconds):.6f} s    "
            f"(n={len(window.dial_round_seconds)}, incl. invitation download and scan; not gated)"
        )
    print(f"  peak_rss_mb       {rss:.2f} MiB"
          + (" (driver + 4 server processes)" if args.workload == "tcp-small" else ""))
    print(f"  setup_s           {values['setup_s']:.4f} s    (median of {len(setup_samples)} set-ups: "
          + ", ".join(f"{sample:.3f}" for sample in setup_samples) + ")")
    return values


def report_layers(args, window, instrumentation, host: dict) -> dict[str, float]:
    """Check the trace adds up, print the split, write the trace; the per-layer metrics."""
    tracer = instrumentation.tracer
    summary = tracer.summary()
    rounds = len(window.round_seconds)
    leaf_self = {name: entry[0] for name, entry in summary["leaves"].items()}
    accounted = sum(summary["self"].values()) + sum(leaf_self.values())
    if abs(accounted - summary["overlap"] - summary["wall"]) > 1e-6 * summary["wall"]:
        window.problems.append(
            f"trace does not add up: self times {accounted:.6f} s - overlap "
            f"{summary['overlap']:.6f} s != wall {summary['wall']:.6f} s"
        )
    print_split("round wall", {**summary["self"], **leaf_self}, summary["leaves_in"], summary["wall"], rounds)
    print(f"    {'scheduler.overlap':<20}      {-summary['overlap'] / rounds:10.6f} s  (threads ran in parallel)")
    dialing = summary["by_tag"].get("dialing")
    if dialing and window.dial_round_seconds:
        print_split(
            "inside dialing rounds (crypto counted with its caller)",
            {name: seconds + dialing["leaves_in"].get(name, 0.0) for name, seconds in dialing["self"].items()},
            {}, sum(window.dial_round_seconds), len(window.dial_round_seconds),
        )
    OUT.mkdir(exist_ok=True)
    tracer.dump(
        OUT / f"trace-{args.workload}.json",
        {"workload": args.workload, "seed": args.seed, "host": host, "rounds": rounds},
    )
    counts = {**window.counts, **instrumentation.counts, "trace.spans": len(tracer.spans)}
    return layer_metrics(summary, counts, window)


# ----------------------------------------------------------- every workload


def run_child(workload: str, seed: int, trace: int, args) -> dict:
    """One workload in a fresh process; echoes its report, returns its result."""
    command = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.rounds:
        command += ["--rounds", str(args.rounds)]
    if args.smoke:
        command += ["--smoke"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    sys.stdout.flush()
    if done.returncode != 0 and not (lines and lines[-1].startswith("{")):
        sys.exit(f"bench/run.py: {workload} failed (exit {done.returncode}):\n{done.stderr}")
    return json.loads(lines[-1])


def run_all(args, spec: dict) -> int:
    """Every workload once (and once more traced, with ``--trace 1``)."""
    status = 0
    for entry in spec["workloads"]:
        print(f"== {entry['name']}: {entry['why']}")
        result = run_child(entry["name"], args.seed, 0, args)
        status |= not result["correct"]
        if args.trace:
            traced = run_child(entry["name"], args.seed, 1, args)
            status |= not traced["correct"]
            overhead = (
                traced["metrics"]["trace.round_p50_s"]["value"]
                / result["metrics"]["round_p50_s"]["value"]
            )
            print(f"  tracing overhead  {overhead:.3f}x   (traced / untraced round_p50_s)")
    return int(status)


def quartile_spread(values: list[float]) -> float | None:
    """Distance between the quartiles as a share of the median (four runs or more)."""
    if len(values) < 4:
        return None
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def worse_by(entry: dict, before: float, after: float) -> float:
    """How much worse ``after`` is than ``before``, as a share of ``before``."""
    change = (after - before) / before
    return -change if entry["better"] == "higher" else change


def run_aa(args, spec: dict) -> int:
    """Two sets of runs of the same code, workload order alternated.

    Prints, per (metric, workload), both medians, each set's spread (the
    distance between the quartiles as a share of the median, once a set has at
    least four runs) and the bound; fails when the second set's median is worse
    than the first's by more than the bound, or a spread (``setup_s`` apart)
    exceeds it.
    """
    names = [entry["name"] for entry in spec["workloads"]]
    sets: list[dict] = [{}, {}]
    for which in (0, 1):
        for run in range(args.runs):
            order = names if (which + run) % 2 == 0 else names[::-1]
            for workload in order:
                seed = args.seed + which * args.runs + run
                print(f"== set {'AB'[which]} run {run + 1}/{args.runs}: {workload} seed={seed}")
                result = run_child(workload, seed, 0, args)
                if not result["correct"]:
                    return 1
                for metric, measured in result["metrics"].items():
                    sets[which].setdefault((metric, workload), []).append(measured["value"])
    failed = False
    report = []
    print(f"{'metric':<14}{'workload':<12}{'median A':>12}{'median B':>12}{'B worse by':>12}"
          f"{'spread A':>10}{'spread B':>10}{'bound':>8}")
    for entry in spec["end_to_end"]:
        for workload in names:
            a, b = (sets[which][(entry["name"], workload)] for which in (0, 1))
            medians = statistics.median(a), statistics.median(b)
            spreads = [quartile_spread(a), quartile_spread(b)]
            worse = worse_by(entry, *medians)
            bad = worse > entry["bound"] or (
                entry["name"] != "setup_s"
                and any(spread is not None and spread > entry["bound"] for spread in spreads)
            )
            failed |= bad
            report.append({
                "metric": entry["name"], "workload": workload, "values_a": a, "values_b": b,
                "median_a": medians[0], "median_b": medians[1], "b_worse_by": worse,
                "spread_a": spreads[0], "spread_b": spreads[1], "bound": entry["bound"], "ok": not bad,
            })
            print(
                f"{entry['name']:<14}{workload:<12}{medians[0]:>12.5g}{medians[1]:>12.5g}{worse:>+12.4f}"
                + "".join(f"{spread:>10.4f}" if spread is not None else f"{'-':>10}" for spread in spreads)
                + f"{entry['bound']:>8.2f}" + ("  FAIL" if bad else "")
            )
    OUT.mkdir(exist_ok=True)
    (OUT / "aa.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT / 'aa.json'}")
    return int(failed)


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=[entry["name"] for entry in spec["workloads"]],
                        help="measure this one workload in this process (default: each, in its own process)")
    parser.add_argument("--seed", type=int, default=1, help="seed of every generated input")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long the measured window lasts")
    parser.add_argument("--rounds", type=int, default=0,
                        help="measure exactly this many closed-loop units (rounds; sessions on "
                             "dial-mix) instead of --seconds, so that counts repeat exactly")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: trace the layers and report the per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny input sizes, one set-up sample")
    parser.add_argument("--aa", action="store_true", help="two sets of runs compared against the bounds")
    parser.add_argument("--runs", type=int, default=1, help="runs per workload in each --aa set")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.smoke and not args.rounds:
        args.rounds = 2
    if args.workload:
        return measure(args, spec)
    if args.aa:
        return run_aa(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
