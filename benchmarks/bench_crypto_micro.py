"""§7 dominant costs: Diffie-Hellman and onion processing micro-benchmarks.

Paper claim: server CPU time is dominated by the repeated Diffie-Hellman
operations of wrapping and unwrapping onion layers — one DH per request per
server — with the paper's 36-core machines sustaining ~340,000 Curve25519
operations per second.  These micro-benchmarks measure this implementation's
X25519 and onion throughput (on whatever backend is active) so the cost model
can be recalibrated to local hardware, and they quantify the gap between the
pure-Python reference primitives and the accelerated backend.

Besides the pytest benchmarks, the module runs standalone and writes the
kernel-level rates per available backend to ``BENCH_crypto_micro.json``::

    PYTHONPATH=src python benchmarks/bench_crypto_micro.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest
from bench_common import emit

from repro.crypto import (
    DeterministicRandom,
    KeyPair,
    available_backends,
    peel_request,
    set_backend,
    wrap_request,
)
from repro.crypto.backend import CRYPTOGRAPHY, PURE_PYTHON, active_backend
from repro.net.links import PAPER_SERVER


@pytest.fixture(scope="module")
def keys():
    rng = DeterministicRandom(1)
    ours = KeyPair.generate(rng)
    servers = [KeyPair.generate(rng) for _ in range(3)]
    peer = KeyPair.generate(rng)
    return rng, ours, servers, peer


def test_x25519_exchange_throughput(benchmark, keys):
    rng, ours, _, peer = keys
    result = benchmark(ours.exchange, peer.public)
    assert len(result) == 32
    ops_per_second = 1.0 / benchmark.stats.stats.mean
    emit(
        "Section 7: Diffie-Hellman throughput",
        [
            {
                "backend": active_backend().name,
                "DH ops/sec (this machine, 1 core)": ops_per_second,
                "paper (36-core server)": PAPER_SERVER.dh_ops_per_sec,
            }
        ],
    )
    benchmark.extra_info["dh_ops_per_second"] = ops_per_second


def test_onion_wrap_throughput(benchmark, keys):
    rng, _, servers, _ = keys
    publics = [server.public for server in servers]
    wire, _ = benchmark(wrap_request, b"x" * 272, publics, 1, rng)
    assert len(wire) == 272 + 3 * 48


def test_onion_peel_throughput(benchmark, keys):
    rng, _, servers, _ = keys
    publics = [server.public for server in servers]
    wire, _ = wrap_request(b"x" * 272, publics, 1, rng)
    inner, _ = benchmark(peel_request, wire, servers[0].private, 0, 1)
    assert len(inner) == 272 + 2 * 48


@pytest.mark.skipif(
    CRYPTOGRAPHY not in available_backends(), reason="cryptography backend not installed"
)
def test_pure_python_x25519_throughput(benchmark, keys):
    """The dependency-free fallback: orders of magnitude slower, still correct."""
    _, ours, _, peer = keys
    expected = ours.exchange(peer.public)  # computed on the accelerated backend
    try:
        set_backend(PURE_PYTHON)
        result = benchmark(ours.exchange, peer.public)
    finally:
        set_backend(CRYPTOGRAPHY)
    assert result == expected


# --------------------------------------------------------------- standalone


def _seconds_per_call(fn, budget: float = 0.25) -> float:
    """Adaptive timing: one probe call sizes the loop, then measure."""
    begin = time.perf_counter()
    fn()
    once = time.perf_counter() - begin
    if once >= budget:
        return once
    repeats = min(20_000, max(1, int(budget / max(once, 1e-9))))
    begin = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - begin) / repeats


def _backend_rates(batch: int) -> dict:
    """Kernel-level ops/sec on the *active* backend."""
    from repro.crypto import wrap_request_batch
    from repro.crypto.hkdf import derive_key, derive_key_schedule

    rng = DeterministicRandom(3)
    ours = KeyPair.generate(rng)
    peer = KeyPair.generate(rng)
    servers = [KeyPair.generate(rng) for _ in range(3)]
    publics = [kp.public for kp in servers]
    backend = active_backend()

    scalars = [rng.random_bytes(32) for _ in range(batch)]
    secrets = [rng.random_bytes(32) for _ in range(batch)]
    inners = [rng.random_bytes(272) for _ in range(batch)]
    key = rng.random_bytes(32)
    nonce = rng.random_bytes(12)

    rates = {
        "batch": batch,
        "x25519_exchange_ops_per_sec": 1.0
        / _seconds_per_call(lambda: ours.exchange(peer.public)),
        # A fresh key's public half alone (what importing a private key costs
        # under OpenSSL), and the wrap shape: fresh key pair + exchange, fused.
        "x25519_base_mult_ops_per_sec": 1.0
        / _seconds_per_call(lambda: backend.x25519_scalar_base_mult(scalars[0])),
        "x25519_keypair_exchange_pairs_per_sec": batch
        / _seconds_per_call(
            lambda: backend.x25519_fixed_point_batch(scalars, peer.public.data)
        ),
        "hkdf_derive_key_ops_per_sec": 1.0
        / _seconds_per_call(lambda: derive_key(key, "bench")),
        "hkdf_schedule_ops_per_sec": batch
        / _seconds_per_call(lambda: derive_key_schedule(secrets, "bench")),
        # ``batch`` 272-byte boxes under one shared nonce, the shape a hop
        # seals: the active backend's AEAD, not the reference ChaCha20.
        "aead_seal_batch_bytes_per_sec": batch
        * len(inners[0])
        / _seconds_per_call(lambda: backend.aead_seal_batch(secrets, nonce, inners)),
        "wrap_request_batch_wires_per_sec": batch
        / _seconds_per_call(lambda: wrap_request_batch(list(inners), publics, 1, rng)),
    }
    return {name: (value if name == "batch" else round(value, 1)) for name, value in rates.items()}


def main() -> None:
    import argparse
    import json
    import os
    import platform

    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_crypto_micro.json"),
        help="where to write the JSON artifact",
    )
    args = parser.parse_args()

    original = active_backend().name
    per_backend: dict[str, dict] = {}
    try:
        for name in available_backends():
            set_backend(name)
            # The pure-Python fallback is orders of magnitude slower; a small
            # batch keeps its calibration run bounded.
            per_backend[name] = _backend_rates(batch=256 if name != PURE_PYTHON else 8)
            print(f"  measured backend {name}", file=sys.stderr)
    finally:
        set_backend(original)

    results = {
        "benchmark": "crypto_micro",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "paper_dh_ops_per_sec_36core": PAPER_SERVER.dh_ops_per_sec,
        "backends": per_backend,
    }
    emit(
        "Crypto kernel rates (per backend)",
        [
            {"backend": name, **rates}
            for name, rates in per_backend.items()
        ],
    )
    Path(args.output).write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {args.output}", file=sys.stderr)


if __name__ == "__main__":
    main()
