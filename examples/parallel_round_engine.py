"""Configuring the parallel round engine.

A Vuvuzela server's round is a big batch of independent crypto; the
:class:`~repro.runtime.RoundEngine` decides how that batch executes:

* ``serial``  — inline, chunked to keep kernel working sets cache-resident
  (the default; no pools, no cleanup),
* ``process`` — chunks on worker processes over zero-pickle shared-memory
  blocks; wall-clock scales with cores.

Both modes are byte-identical under a fixed seed — this example proves it on
a real round, then shows both ways of selecting an engine: per deployment
through :class:`~repro.VuvuzelaConfig`, and per chain through
:func:`~repro.mixnet.build_chain`.

Run with::

    PYTHONPATH=src python examples/parallel_round_engine.py
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro import VuvuzelaConfig, VuvuzelaSystem
from repro.crypto import DeterministicRandom, KeyPair, wrap_request
from repro.mixnet import build_chain
from repro.runtime import PROCESS, SERIAL, RoundEngine


def run_chain_round(engine: RoundEngine | None) -> tuple[list[bytes], float]:
    """One 3-server round over 300 wires with the given engine."""
    keypairs = [KeyPair.generate(DeterministicRandom(f"server-{i}")) for i in range(3)]
    chain = build_chain(
        keypairs,
        processor=lambda round_number, payloads: [bytes(p).upper() for p in payloads],
        rng=DeterministicRandom("chain"),
        engine=engine,
    )
    rng = DeterministicRandom("clients")
    publics = [kp.public for kp in keypairs]
    wires = [wrap_request(f"msg-{i}".encode(), publics, 1, rng)[0] for i in range(300)]
    start = time.perf_counter()
    responses = chain.run_round(1, wires)
    return responses, time.perf_counter() - start


def main() -> None:
    # --- engine modes are byte-identical ---------------------------------
    serial_responses, serial_seconds = run_chain_round(RoundEngine(mode=SERIAL))

    # chunk_size tuning: smaller chunks bound memory harder and pipeline
    # sooner; 0 picks the measured kernel sweet spot (8192).  Share ONE
    # engine across the chain so all servers use the same worker pool, and
    # close it (or use `with`) when the deployment stops.
    with RoundEngine(mode=PROCESS, workers=2, chunk_size=64) as engine:
        sharded_responses, sharded_seconds = run_chain_round(engine)

    assert sharded_responses == serial_responses
    print(f"serial round:          {serial_seconds * 1000:7.1f} ms")
    print(f"process-sharded round: {sharded_seconds * 1000:7.1f} ms  (2 workers)")
    print("rounds byte-identical: True")

    # --- deployment-level configuration ----------------------------------
    # VuvuzelaSystem threads one engine through every chain server of both
    # protocols; `close()` (or a `with` block) shuts the pool down.
    config = replace(VuvuzelaConfig.small(seed=1), engine_mode="process", engine_workers=2)
    with VuvuzelaSystem(config) as system:
        alice, bob = system.add_client("alice"), system.add_client("bob")
        alice.dial(bob.public_key)
        system.run_dialing_round()
        bob.accept_call(bob.incoming_calls[0])
        alice.start_conversation(bob.public_key)
        alice.send_message("hello from the process-sharded engine")
        system.run_conversation_round()
        print("bob received:", bob.messages_from(alice.public_key))


if __name__ == "__main__":
    main()
