"""What the analyzer looks at, and where each rule family applies.

Scopes are fnmatch patterns over *module ids* — POSIX-style paths relative to
the directory containing the top-level package (``repro/net/tcp.py``).  Tests
point the same rules at fixture files by building a :class:`LintConfig` whose
patterns match bare fixture names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch


def _matches(module_id: str, patterns: tuple[str, ...]) -> bool:
    return any(fnmatch(module_id, pattern) for pattern in patterns)


#: The packages whose code runs inside a round — where a stray wall-clock
#: read or ambient RNG draw silently breaks serial ≡ overlapped ≡ TCP ≡
#: replay byte-identity.  ``client``, ``simulation`` and the rest of ``core``
#: drive rounds from outside (launchers, benchmarks, workload generators)
#: and are deliberately not policed: their timing reads shape wall clocks,
#: not bytes.  The shared round driver is the exception: it writes the
#: ledger's round records for both deployment shapes.
ROUND_PATH = (
    "repro/core/driver.py",
    "repro/crypto/*",
    "repro/mixnet/*",
    "repro/server/*",
    "repro/runtime/*",
    "repro/conversation/*",
    "repro/dialing/*",
    "repro/deaddrop/*",
    "repro/net/*",
)

#: Sanctioned boundary modules, exempt from the nondeterminism family:
#: ``crypto/rng.py`` is where ``os.urandom`` is *supposed* to live (the
#: :class:`SecureRandom` production boundary every seeded run swaps out).
SANCTIONED = ("repro/crypto/rng.py",)

#: The zero-copy wire path: TCP framing, the packed-list grammar and the
#: typed frames over it (server batches and the engine's task blocks), the
#: coordinator's gate (every networked submission passes through it), the
#: window's payload digest and the conditioner's hash-keyed decisions.
WIRE_PATH = (
    "repro/net/tcp.py",
    "repro/net/faults.py",
    "repro/net/packed.py",
    "repro/server/wire.py",
    "repro/server/entry.py",
    "repro/runtime/coordinator.py",
    "repro/runtime/window.py",
)

#: The modules whose locks form the round-lifecycle lock graph.  The shared
#: round driver and the in-process system (``_round_lock``) call into all of
#: them.
LOCK_MODULES = (
    "repro/core/driver.py",
    "repro/core/system.py",
    "repro/server/entry_main.py",
    "repro/runtime/coordinator.py",
    "repro/runtime/engine.py",
    "repro/runtime/scheduler.py",
    "repro/net/tcp.py",
    "repro/net/faults.py",
    "repro/ledger/writer.py",
)

#: Names that carry wire data (frames, payloads, envelope bodies) in the
#: wire-path modules: ``bytes()``/``tobytes()`` on these is a copy of data
#: the zero-copy path promised not to re-materialise.
WIRE_NAMES = frozenset(
    {
        "payload",
        "body",
        "wire",
        "frame",
        "result",
        "request",
        "response",
        "reply",
        "entries",
        "requests",
        "responses",
        "verdicts",
        "view",
    }
)

#: Attribute name → class resolution for the interprocedural lock analysis:
#: ``self.ledger.append(...)`` is a call into ``LedgerWriter.append``.  Only
#: declared bindings are followed — name-based guessing would turn every
#: ``list.append`` into a ledger call.
ATTR_BINDINGS: dict[str, str] = {
    "ledger": "LedgerWriter",
    "link_conditioner": "LinkConditioner",
    "conditioner": "LinkConditioner",
}

#: Callables that block the calling thread.  ``Condition.wait`` is absent on
#: purpose: waiting on a condition *releases* its lock, which is the sound
#: long-poll pattern the coordinator uses.
BLOCKING_NAMES = frozenset(
    {
        "sleep",
        "fsync",
        "join",
        "result",
        "send",
        "sendall",
        "recv",
        "wait_for_result",
        "run_round_grouped",
        "submit_round",
    }
)

#: Call names considered pure derivations inside an rng fork label: hashing
#: a message identity into a label is the sanctioned hash-keyed pattern
#: (the PR 7 conditioner), and plain formatting never adds entropy.
LABEL_PURE_CALLS = frozenset(
    {
        "sha256",
        "blake2b",
        "blake2s",
        "hexdigest",
        "digest",
        "hex",
        "str",
        "int",
        "len",
        "format",
        "encode",
        "decode",
        "join",
        # dict lookups of stored state are stored identities
        "get",
        "pop",
    }
)


@dataclass(frozen=True)
class LintConfig:
    """Scope configuration for one lint run."""

    round_path: tuple[str, ...] = ROUND_PATH
    sanctioned: tuple[str, ...] = SANCTIONED
    wire_path: tuple[str, ...] = WIRE_PATH
    lock_modules: tuple[str, ...] = LOCK_MODULES
    wire_names: frozenset[str] = WIRE_NAMES
    attr_bindings: dict[str, str] = field(default_factory=lambda: dict(ATTR_BINDINGS))
    blocking_names: frozenset[str] = BLOCKING_NAMES
    label_pure_calls: frozenset[str] = LABEL_PURE_CALLS

    def in_round_path(self, module_id: str) -> bool:
        return _matches(module_id, self.round_path) and not self.is_sanctioned(module_id)

    def is_sanctioned(self, module_id: str) -> bool:
        return _matches(module_id, self.sanctioned)

    def in_wire_path(self, module_id: str) -> bool:
        return _matches(module_id, self.wire_path)

    def in_lock_modules(self, module_id: str) -> bool:
        return _matches(module_id, self.lock_modules)
