"""Per-round state stays bounded across many in-process swarm rounds.

Once round N + RESPONSE_WINDOWS resolves, round N's window keeps its counts
and nothing per client, and the driver's traced memory stops growing with
the number of clients times the number of rounds it has run.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro import VuvuzelaConfig, VuvuzelaSystem
from repro.net import MessageKind
from repro.runtime.coordinator import RESPONSE_WINDOWS
from repro.simulation import ClientSwarm, WorkloadSpec

CLIENTS = 300
ROUNDS = 3 * RESPONSE_WINDOWS + 5
#: Rounds run untraced first: engine pools fork (so their workers do not
#: inherit tracing), codec tables fill and the first windows settle.
WARM_ROUNDS = 5
#: Traced bytes a round may add once warm.  Keeping each settled window's
#: client names and per-client maps costs ~85 B per client per round
#: (~25 KB a round here); the round's own records are a few KB.
GROWTH_PER_ROUND = 8 * 1024


def test_settled_windows_keep_their_counts_and_no_client_state():
    config = VuvuzelaConfig.small(seed=31)
    swarm = ClientSwarm.from_spec(
        config, WorkloadSpec(num_users=CLIENTS, conversing_fraction=0.6, dialing_fraction=0.0)
    )
    kind = MessageKind.CONVERSATION_REQUEST
    counts: dict[int, tuple[int, int, int]] = {}
    traced: list[int] = []
    with VuvuzelaSystem(config) as system:
        try:
            for number in range(ROUNDS):
                if number == WARM_ROUNDS:
                    tracemalloc.start()
                round_number = system.run_swarm_round(swarm).metrics.round_number
                window = system.coordinator.window(kind, round_number)
                assert len(window.per_client) == CLIENTS
                counts[round_number] = (window.accepted, window.refused, window.late)
                if tracemalloc.is_tracing():
                    gc.collect()
                    traced.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()

        newest = max(counts)
        for round_number, held in counts.items():
            window = system.coordinator.window(kind, round_number)
            assert (window.accepted, window.refused, window.late) == held == (CLIENTS, 0, 0)
            if round_number > newest - RESPONSE_WINDOWS:
                assert len(window.per_client) == CLIENTS
                continue
            assert window.outcome.responses is None
            assert window.per_client == {} and window.submitted == {}
            assert window.claimed == set() and window.refused_digests == set()

    # Memory allocated before tracing began and freed later is never
    # subtracted: count once the windows released were traced ones too.
    steady = traced[RESPONSE_WINDOWS:]
    growth = (steady[-1] - steady[0]) / (len(steady) - 1)
    assert growth < GROWTH_PER_ROUND, f"traced memory grew {growth:.0f} B a round"
