"""The four workloads: seeded inputs, the closed-loop unit, the output checks.

Everything the program is given — population, pairings, plaintexts, greetings,
the deployment seed — is generated here from ``--seed``; the program receives
only these inputs.  Each workload exposes the same small surface to
``run.py``: ``setup()`` (build + one untimed warm-up), ``run_unit(window)``
(one closed-loop step: a round, or a scheduler session), ``finish(window)``
(checks that need the whole run) and ``close()``.

All load is a closed loop from this one driver process: the next round opens
only when the previous one resolved, as in the paper's back-to-back rounds.
"""

from __future__ import annotations

import os
import random
import resource
import shutil
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro import DeploymentLauncher, VuvuzelaConfig, VuvuzelaSystem
from repro.client.framing import MAX_BODY_SIZE
from repro.conversation.messages import MAX_MESSAGE_SIZE
from repro.errors import LedgerError
from repro.ledger import LedgerWriter, load_ledger
from repro.simulation import ClientSwarm
from repro.simulation.workload import GeneratedPopulation

#: Recorded for later claims: no size, bound or default in this benchmark was
#: chosen while looking at this seed.
HELD_OUT_SEED = 20150917

OUT_DIR = Path(__file__).resolve().parent / "out"

@dataclass(frozen=True)
class Sizes:
    """A workload's input sizes; ``--smoke`` swaps in the tiny column."""

    users: int
    conversation_mu: float = 10.0
    #: dial-mix: conversation rounds per scheduler session, dialing every Nth.
    session_rounds: int = 0
    dialing_interval: int = 0


FULL = {
    "conv-swarm": Sizes(users=2000),
    "conv-noise": Sizes(users=100, conversation_mu=800.0),
    "tcp-small": Sizes(users=4, conversation_mu=1.0),
    "dial-mix": Sizes(users=100, session_rounds=8, dialing_interval=4),
}
SMOKE = {
    "conv-swarm": Sizes(users=40),
    "conv-noise": Sizes(users=8, conversation_mu=30.0),
    "tcp-small": Sizes(users=4, conversation_mu=1.0),
    "dial-mix": Sizes(users=8, session_rounds=4, dialing_interval=2),
}
CONVERSING_FRACTION = 0.6


@dataclass
class Window:
    """What the measured window accumulated."""

    round_seconds: list[float] = field(default_factory=list)
    dial_round_seconds: list[float] = field(default_factory=list)
    #: Client messages delivered and verified against what was sent.
    messages: int = 0
    #: One operation is one client wire offered to a round, or one dial.
    attempted: int = 0
    failed: int = 0
    #: Whole-run checks that failed (noise accounting, ledger chain, ...).
    problems: list[str] = field(default_factory=list)
    #: Counts taken by the workload itself (the traced run reports them).
    counts: dict[str, float] = field(default_factory=dict)

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def fail(self, count: int, what: str) -> None:
        if count:
            self.failed += count
            self.problems.append(what)


def _rss_mb(pids: list[int]) -> float:
    """This process's high-water RSS plus the given children's, in MiB (Linux)."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pids:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def _pairing(names: list[str], paired: int, rng: random.Random):
    """Pair up ``paired`` randomly chosen names; the pairs and the partner of each."""
    shuffled = list(names)
    rng.shuffle(shuffled)
    pairs = [(shuffled[i], shuffled[i + 1]) for i in range(0, paired - paired % 2, 2)]
    return pairs, {a: b for a, b in pairs} | {b: a for a, b in pairs}


def _root_span(instrumentation, **kwargs):
    """The traced run's root span around one call into the program."""
    return instrumentation.root(**kwargs) if instrumentation else nullcontext()


class SwarmWorkload:
    """conv-swarm, conv-noise (in-process) and tcp-small (subprocess TCP).

    One unit is one conversation round offered by the whole population through
    ``run_swarm_round``; every paired user sends a fresh plaintext every round.
    """

    def __init__(self, name: str, seed: int, sizes: Sizes, instrumentation=None) -> None:
        self.tcp = name == "tcp-small"
        self.instrumentation = instrumentation
        self.rng = random.Random(seed)
        names = [f"user-{index}" for index in range(sizes.users)]
        pairs, self.partner = _pairing(names, int(sizes.users * CONVERSING_FRACTION), self.rng)
        self.population = GeneratedPopulation(
            names=names, pairs=pairs, idle=[n for n in names if n not in self.partner]
        )
        self.config = VuvuzelaConfig.small(seed=seed, conversation_mu=sizes.conversation_mu)
        self.system: VuvuzelaSystem | None = None
        self.deployment: DeploymentLauncher | None = None
        self.server_processes: list = []
        self.rounds_run: list[int] = []

    def setup(self) -> None:
        self.swarm = ClientSwarm(self.config, self.population)
        if self.tcp:
            # A TCP round is a strict request -> reply chain through five
            # processes, so one of them runs at a time.  Left to the scheduler,
            # whether a wake-up lands on the same core or the other one moved
            # round_p50_s by 15% between runs of the same code on a 2-vCPU VM
            # (spread 10%); on one core it is both faster and steady (2%).
            # The servers inherit the driver's affinity.
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
            self.deployment = DeploymentLauncher(self.config).start()
            spawned = [*self.deployment.servers, self.deployment.entry_process]
            self.server_processes = [server.process for server in spawned]
        else:
            self.system = VuvuzelaSystem(self.config)
            if self.instrumentation is not None:
                self.instrumentation.trace_noise_builders(self.system)
        self.run_unit(Window())  # warm-up: caches filled, lazy set-up done

    def run_unit(self, window: Window) -> None:
        plaintexts = {
            name: self.rng.randbytes(self.rng.randrange(1, MAX_MESSAGE_SIZE - 1))
            for name in self.partner
        }
        for name, text in plaintexts.items():
            self.swarm.set_message(name, text)
        # Each deployment allocates conversation rounds from zero, in order.
        round_number = len(self.rounds_run)
        started = perf_counter()
        with _root_span(self.instrumentation, round_id=round_number, tag="conversation"):
            if self.tcp:
                result, ingest, outcome = self.deployment.run_swarm_round(self.swarm)
                ran = result.round_number
            else:
                report = self.system.run_swarm_round(self.swarm)
                ingest, outcome = report.ingest, report.outcome
                ran = report.metrics.round_number
        window.round_seconds.append(perf_counter() - started)
        self.rounds_run.append(ran)
        if ran != round_number:
            window.problems.append(f"expected round {round_number}, the program ran round {ran}")

        wires = len(self.population.names)
        wrong = sum(
            1 for name, partner in self.partner.items()
            if outcome.messages.get(name) != plaintexts[partner]
        )
        extra = len(set(outcome.messages) - set(self.partner))
        window.attempted += wires
        window.fail(ingest.refused, f"round {round_number}: {ingest.refused} wires refused")
        window.fail(ingest.late, f"round {round_number}: {ingest.late} wires late")
        window.fail(outcome.lost, f"round {round_number}: {outcome.lost} responses lost")
        window.fail(wrong, f"round {round_number}: {wrong} plaintexts missing or wrong")
        window.fail(extra, f"round {round_number}: {extra} idle users received a message")
        if outcome.delivered != wires or ingest.accepted != wires:
            window.problems.append(
                f"round {round_number}: delivered {outcome.delivered}, "
                f"accepted {ingest.accepted}, offered {wires}"
            )
        window.messages += wires - min(wires, ingest.refused + ingest.late + outcome.lost + wrong)
        if not self.tcp:
            self._check_noise(window, round_number, report.metrics.noise_requests,
                              report.metrics.histogram.total_accesses, report.metrics.histogram.pairs)

        window.add("swarm.wires", wires)
        window.add("admission.chunks", ingest.chunks)
        window.add("admission.accepted", ingest.accepted)
        window.add("admission.refused", ingest.refused)
        window.add("admission.late", ingest.late)
        window.peak("admission.peak_buffer", ingest.peak_server_buffer)

    def _check_noise(self, window: Window, round_number: int, noise: int, accesses: int, pairs: int) -> None:
        """The dead drops saw exactly the client wires plus the noise the mixers drew."""
        wires = len(self.population.names)
        if accesses != wires + noise:
            window.problems.append(
                f"round {round_number}: {accesses} dead-drop accesses, "
                f"but {wires} wires + {noise} noise requests"
            )
        window.add("deaddrop.accesses", accesses)
        window.add("deaddrop.paired_accesses", 2 * pairs)

    def finish(self, window: Window) -> None:
        if self.tcp:
            # The servers drew the noise in their own processes; ask them (after
            # the window, so the RPCs are not timed) about the last few rounds.
            for round_number in self.rounds_run[-8:]:
                histogram = self.deployment.access_histogram(round_number)
                accesses = histogram["singles"] + 2 * histogram["pairs"] + 3 * histogram["collisions"]
                noise = self.deployment.chain_noise("conversation", round_number)
                self._check_noise(window, round_number, noise, accesses, histogram["pairs"])

    def peak_rss_mb(self) -> float:
        return _rss_mb([process.pid for process in self.server_processes])

    def close(self) -> None:
        if self.system is not None:
            self.system.close()
        if self.deployment is not None:
            self.deployment.stop()
            for process in self.server_processes:
                process.wait()


class DialMixWorkload:
    """Per-client sessions through the overlapping scheduler, with a ledger.

    Every caller holds a standing dial to its partner, so every dialing round
    carries real invitations; every client says one message per conversation
    round.  One unit is one ``run_continuous`` session.
    """

    def __init__(self, name: str, seed: int, sizes: Sizes, instrumentation=None) -> None:
        self.sizes = sizes
        self.instrumentation = instrumentation
        self.rng = random.Random(seed)
        self.names = [f"client-{index}" for index in range(sizes.users)]
        self.pairs, self.partner = _pairing(self.names, sizes.users, self.rng)
        self.config = VuvuzelaConfig.small(seed=seed)
        #: Never more driver threads than cores: depth 2 adds the dialing thread.
        self.pipeline_depth = min(2, os.cpu_count() or 1)
        self.system: VuvuzelaSystem | None = None
        self.sessions: dict = {}
        self.seen_messages = {name: 0 for name in self.names}
        self.seen_calls = {name: 0 for name in self.names}

    def setup(self) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(prefix="dial-mix-", dir=OUT_DIR))
        self.system = VuvuzelaSystem(self.config)
        self.ledger = LedgerWriter(self.scratch / "ledger.jsonl", fsync="never")
        self.system.attach_ledger(self.ledger)
        if self.instrumentation is not None:
            self.instrumentation.trace_noise_builders(self.system)
        self.greetings = {name: self._text() for name in self.names}
        for name in self.names:
            self.sessions[name] = self.system.add_session(name, greetings=[self.greetings[name]])
        for caller, callee in self.pairs:
            peer = self.sessions[callee].client.public_key
            self.sessions[caller].dial(peer)
            self.sessions[caller].flood_target = peer  # re-dials every dialing round
        # Warm-up session: the first dialing round opens every conversation and
        # the greetings cross in the first conversation round.
        warmup = Window()
        self._session(
            warmup,
            rounds=self.sizes.dialing_interval,
            expected={n: [self.greetings[self.partner[n]]] for n in self.names},
        )
        if warmup.failed or warmup.problems:
            raise RuntimeError(f"dial-mix warm-up failed: {warmup.problems}")
        self.first_measured_record = self.ledger.records_written

    def _text(self) -> bytes:
        return self.rng.randbytes(self.rng.randrange(1, MAX_BODY_SIZE))

    def run_unit(self, window: Window) -> None:
        self._session(window, rounds=self.sizes.session_rounds, expected=None)

    def _session(self, window: Window, *, rounds: int, expected) -> None:
        """One scheduler session; without ``expected``, every client says one
        message per round and must receive exactly its partner's."""
        sent: dict[str, list[bytes]] = {}
        if expected is None:
            sent = {name: [self._text() for _ in range(rounds)] for name in self.names}
            expected = {name: sent[self.partner[name]] for name in self.names}
        with _root_span(self.instrumentation):
            for name, texts in sent.items():
                for text in texts:
                    self.sessions[name].say(text)
            report = self.system.run_continuous(
                rounds,
                dialing_interval=self.sizes.dialing_interval,
                pipeline_depth=self.pipeline_depth,
            )

        for metrics in report.conversation:
            window.round_seconds.append(metrics.wall_clock_seconds)
            window.attempted += metrics.client_requests
            window.fail(
                metrics.refused_requests + metrics.late_requests + metrics.lost_requests,
                f"conversation round {metrics.round_number}: refused/late/lost wires",
            )
            if metrics.histogram.total_accesses != metrics.client_requests + metrics.noise_requests:
                window.problems.append(
                    f"conversation round {metrics.round_number}: dead-drop accesses do not "
                    f"equal client wires + noise requests"
                )
            window.add("admission.accepted", metrics.client_requests - metrics.refused_requests - metrics.late_requests)
            window.add("admission.refused", metrics.refused_requests)
            window.add("admission.late", metrics.late_requests)
            window.add("deaddrop.accesses", metrics.histogram.total_accesses)
            window.add("deaddrop.paired_accesses", 2 * metrics.histogram.pairs)
        for metrics in report.dialing:
            window.dial_round_seconds.append(metrics.wall_clock_seconds)
            if sum(metrics.bucket_sizes.values()) != metrics.real_invitations + metrics.noise_invitations:
                window.problems.append(
                    f"dialing round {metrics.round_number}: bucket sizes do not equal "
                    f"real + noise invitations"
                )
            window.add("admission.accepted", metrics.client_requests - metrics.refused_requests - metrics.late_requests)

        # Every say arrives exactly once and in order; every dial is found.
        undelivered = 0
        for name in self.names:
            client = self.sessions[name].client
            got = [message.body for message in client.received[self.seen_messages[name]:]]
            self.seen_messages[name] = len(client.received)
            if got != expected[name]:
                undelivered += max(len(expected[name]), 1)
        window.fail(undelivered, f"{undelivered} messages missing, duplicated or out of order")
        window.messages += sum(len(texts) for texts in expected.values()) - undelivered
        dials = missed = 0
        for caller, callee in self.pairs:
            client = self.sessions[callee].client
            calls = client.incoming_calls[self.seen_calls[callee]:]
            self.seen_calls[callee] = len(client.incoming_calls)
            dials += len(report.dialing)
            found = [call for call in calls if call.caller == self.sessions[caller].client.public_key]
            missed += abs(len(report.dialing) - len(found)) + (len(calls) - len(found))
        window.attempted += dials
        window.fail(missed, f"{missed} dials not found exactly once")

        window.add("dialing.dials", dials)
        window.add("dialing.found", dials - missed)
        window.add("scheduler.rounds", len(report.conversation) + len(report.dialing))

    def finish(self, window: Window) -> None:
        self.system.close()  # appends session_end
        written = self.ledger.records_written
        self.ledger.close()
        path = self.scratch / "ledger.jsonl"
        try:
            view = load_ledger(path, allow_truncated_tail=False)
        except LedgerError as exc:
            window.problems.append(f"ledger hash chain does not verify: {exc}")
        else:
            if len(view) != written:
                window.problems.append(f"ledger holds {len(view)} records, {written} were appended")
            measured = view.records[self.first_measured_record:]
            window.add("ledger.records", len(measured))
            window.add("ledger.bytes", sum(len(record.to_line()) for record in measured))

    def peak_rss_mb(self) -> float:
        return _rss_mb([])

    def close(self) -> None:
        if self.system is not None:
            self.system.close()
            self.ledger.close()
        shutil.rmtree(self.scratch, ignore_errors=True)


def make(name: str, seed: int, *, smoke: bool = False, instrumentation=None):
    sizes = (SMOKE if smoke else FULL)[name]
    kind = DialMixWorkload if name == "dial-mix" else SwarmWorkload
    return kind(name, seed, sizes, instrumentation)
