"""A straight-line Algorithm 1 oracle for the swarm's byte-identity tests.

It rebuilds a swarm population's conversation wires client by client from
the scalar primitives — :func:`~repro.crypto.wrap_request`,
:func:`~repro.conversation.encrypt_message`, ``message_key`` and
:func:`~repro.conversation.round_dead_drop` — sharing no code with the
columnar build it checks beyond those primitives and the deployment's key
and rng forks.
"""

from __future__ import annotations

from repro.conversation import directional_keys, encrypt_message, round_dead_drop
from repro.conversation.messages import message_key
from repro.core import topology
from repro.crypto import KEY_SIZE, KeyPair, PrivateKey, wrap_request


def reference_wires(swarm, rounds, messages=None) -> dict[int, list[bytes]]:
    """``{round: wires in population order}`` for ``rounds``, built in order.

    ``messages`` maps a round to the raw ``{name: plaintext}`` its paired
    senders queued (unframed, as :meth:`ClientSwarm.set_message` sends them).
    """
    messages = messages or {}
    root = topology.root_rng(swarm.config)
    servers = [keypair.public for keypair in topology.server_keypairs(swarm.config, root)]
    keys = {name: KeyPair.generate(root.fork(f"client-key-{name}")) for name in swarm.names}
    rngs = {name: root.fork(f"client-rng-{name}").fork("conversation") for name in swarm.names}
    partners = {a: b for a, b in swarm.population.pairs} | {b: a for a, b in swarm.population.pairs}
    built: dict[int, list[bytes]] = {}
    for round_number in rounds:
        wires = []
        for name in swarm.names:
            rng = rngs[name]
            if name in partners:
                own, peer = keys[name], keys[partners[name]].public
                secret = own.exchange(peer)
                send, _ = directional_keys(secret, bytes(own.public), bytes(peer))
                text = messages.get(round_number, {}).get(name, b"")
            else:
                # Step 1b: the fake peer's scalar, then the client's own.
                fake_peer = PrivateKey(rng.random_bytes(KEY_SIZE)).public_key()
                secret = PrivateKey(rng.random_bytes(KEY_SIZE)).exchange(fake_peer)
                send, text = message_key(secret), b""
            inner = round_dead_drop(secret, round_number) + encrypt_message(send, round_number, text)
            wire, _ = wrap_request(inner, servers, round_number, rng)
            wires.append(wire)
        built[round_number] = wires
    return built
