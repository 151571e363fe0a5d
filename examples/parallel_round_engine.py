"""The round engine: inline or on every core, byte-identical.

A Vuvuzela server's round is a big batch of independent crypto; the
:class:`~repro.runtime.RoundEngine` decides where that batch executes.  It
has one worker per usable core and no other setting: a peel or noise wrap
large enough to pay for the hop is split into one chunk per worker on a
forked pool, anything smaller runs inline.  Every driver
(:class:`~repro.VuvuzelaSystem`, :class:`~repro.DeploymentLauncher`) owns
one such engine; a chain built with :func:`~repro.mixnet.build_chain` can
share one too.

This example runs the same round inline and on the pool and shows the
responses are byte-identical.

Run with::

    PYTHONPATH=src python examples/parallel_round_engine.py
"""

from __future__ import annotations

import time

from repro.crypto import DeterministicRandom, KeyPair, wrap_request
from repro.mixnet import build_chain
from repro.runtime import RoundEngine


def run_chain_round(engine: RoundEngine) -> tuple[list[bytes], float]:
    """One 3-server round over 600 wires with the given engine."""
    keypairs = [KeyPair.generate(DeterministicRandom(f"server-{i}")) for i in range(3)]
    chain = build_chain(
        keypairs,
        processor=lambda round_number, payloads: [bytes(p).upper() for p in payloads],
        rng=DeterministicRandom("chain"),
        engine=engine,
    )
    rng = DeterministicRandom("clients")
    publics = [kp.public for kp in keypairs]
    wires = [wrap_request(f"msg-{i}".encode(), publics, 1, rng)[0] for i in range(600)]
    start = time.perf_counter()
    responses = chain.run_round(1, wires)
    return responses, time.perf_counter() - start


def main() -> None:
    inline_responses, inline_seconds = run_chain_round(RoundEngine(workers=1))

    # Share ONE engine across the chain so all servers use the same worker
    # pool, and close it (or use `with`) when the deployment stops.  Two
    # workers even on a one-core host, so the pool path always runs here.
    with RoundEngine(workers=max(2, RoundEngine().workers)) as engine:
        pooled_responses, pooled_seconds = run_chain_round(engine)
        workers = engine.workers

    assert pooled_responses == inline_responses
    print(f"inline round: {inline_seconds * 1000:7.1f} ms")
    print(f"pooled round: {pooled_seconds * 1000:7.1f} ms  ({workers} workers, fork included)")
    print("rounds byte-identical: True")


if __name__ == "__main__":
    main()
