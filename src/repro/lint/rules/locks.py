"""Interprocedural lock analysis over the round-lifecycle modules.

Builds a lock-acquisition graph: which locks each class declares (including
``Condition(self._lock)`` aliasing — a condition *is* its wrapped lock),
which locks each method acquires via ``with``, and which calls happen while
holding them.  Calls are resolved same-class (``self._gate(...)``) and
through declared attribute bindings (``self.ledger.append(...)`` →
``LedgerWriter.append``), then summaries propagate to a fixpoint — so a
method that calls into a helper that calls into ``fsync`` is just as
blocking as one that fsyncs inline.

* ``lock-order`` — two locks acquired in both orders somewhere in the
  program (the classic ABBA deadlock), or a non-reentrant lock re-acquired
  while held;
* ``lock-blocking-call`` — a blocking call (send/sleep/fsync/join/…) made
  while holding a lock, directly or through a resolved callee.
  ``Condition.wait`` is exempt: waiting *releases* the lock.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from ..config import LintConfig
from ..engine import Finding, ParsedModule, project_rule
from ._shared import dotted_name

_LOCK_CTORS = {"Lock", "RLock"}
_BLOCKY_RECEIVERS = ("thread", "task", "timer", "proc", "future", "fut", "worker")


@dataclass(frozen=True)
class LockId:
    """One lock, canonically named after alias resolution."""

    owner: str  # class name, or "<module:...>" for module-level locks
    attr: str
    reentrant: bool = False

    def label(self) -> str:
        return f"{self.owner}.{self.attr}" if self.owner else self.attr


@dataclass
class MethodInfo:
    module: ParsedModule
    owner: str  # class name, "" for module-level functions
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: (held locks, acquired lock, location node)
    acquisitions: list[tuple[tuple[LockId, ...], LockId, ast.AST]] = field(
        default_factory=list
    )
    #: (held locks, blocking call name, location node)
    blocking: list[tuple[tuple[LockId, ...], str, ast.AST]] = field(
        default_factory=list
    )
    #: (held locks, callee key, location node)
    calls: list[tuple[tuple[LockId, ...], tuple[str, str], ast.AST]] = field(
        default_factory=list
    )

    @property
    def key(self) -> tuple[str, str]:
        if self.owner:
            return (self.owner, self.name)
        return ("", f"{self.module.module}:{self.name}")

    @property
    def qualname(self) -> str:
        return f"{self.owner}.{self.name}" if self.owner else self.name


def _lock_ctor(value: ast.expr) -> str | None:
    """``Lock``/``RLock``/``Condition`` when ``value`` constructs one."""
    if not isinstance(value, ast.Call):
        return None
    chain = dotted_name(value.func) or ""
    tail = chain.rsplit(".", 1)[-1]
    if tail in _LOCK_CTORS or tail == "Condition":
        return tail
    if tail == "field":
        for keyword in value.keywords:
            if keyword.arg == "default_factory":
                factory = dotted_name(keyword.value) or ""
                factory_tail = factory.rsplit(".", 1)[-1]
                if factory_tail in _LOCK_CTORS:
                    return factory_tail
    return None


def _discover_locks(
    classdef: ast.ClassDef,
) -> tuple[dict[str, bool], dict[str, str]]:
    """``attr → reentrant`` plus ``attr → aliased attr`` for one class."""
    locks: dict[str, bool] = {}
    aliases: dict[str, str] = {}
    for node in ast.walk(classdef):
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        ctor = _lock_ctor(value)
        if ctor is None:
            continue
        for target in targets:
            attr: str | None = None
            if isinstance(target, ast.Attribute) and isinstance(
                target.value, ast.Name
            ):
                if target.value.id == "self":
                    attr = target.attr
            elif isinstance(target, ast.Name):
                attr = target.id
            if attr is None:
                continue
            if ctor == "Condition":
                assert isinstance(value, ast.Call)
                wrapped = value.args[0] if value.args else None
                if (
                    isinstance(wrapped, ast.Attribute)
                    and isinstance(wrapped.value, ast.Name)
                    and wrapped.value.id == "self"
                ):
                    aliases[attr] = wrapped.attr
                else:
                    # Condition() constructs its own RLock internally.
                    locks[attr] = True
            else:
                locks[attr] = ctor == "RLock"
    return locks, aliases


class _ClassLocks:
    """Alias-resolved lock lookup for one class."""

    def __init__(self, owner: str, classdef: ast.ClassDef) -> None:
        self.owner = owner
        raw_locks, self._aliases = _discover_locks(classdef)
        self._locks = raw_locks

    def resolve(self, attr: str) -> LockId | None:
        seen: set[str] = set()
        while attr in self._aliases and attr not in seen:
            seen.add(attr)
            attr = self._aliases[attr]
        if attr in self._locks:
            return LockId(self.owner, attr, self._locks[attr])
        if attr in seen or attr in self._aliases:
            return None
        return None

    def condition_attrs(self) -> set[str]:
        return set(self._aliases)


def _blocking_name(node: ast.Call, config: LintConfig) -> str | None:
    """The blocking-call name when ``node`` plausibly blocks the thread."""
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else ""
    )
    if name not in config.blocking_names:
        return None
    if name in {"join", "result"}:
        # str.join / dict-lookup .result lookalikes: only flag the
        # thread/future idioms — a blocky receiver name, or the bare
        # zero-argument wait-forever form.
        if not isinstance(func, ast.Attribute):
            return None
        receiver = func.value
        if isinstance(receiver, (ast.Constant, ast.JoinedStr)):
            return None
        chain = (dotted_name(receiver) or "").lower()
        if any(marker in chain for marker in _BLOCKY_RECEIVERS):
            return name
        if not node.args and not node.keywords:
            return name
        return None
    return name


def _resolve_callee(
    node: ast.Call, owner: str, config: LintConfig
) -> tuple[str, str] | None:
    """``(class, method)`` for calls the analysis follows."""
    func = node.func
    if isinstance(func, ast.Attribute):
        base = func.value
        if isinstance(base, ast.Name):
            if base.id == "self" and owner:
                return (owner, func.attr)
        elif (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
        ):
            bound = config.attr_bindings.get(base.attr)
            if bound is not None:
                return (bound, func.attr)
    elif isinstance(func, ast.Name):
        return ("", func.id)  # same-module function, matched below
    return None


def _analyze_method(info: MethodInfo, locks: _ClassLocks | None, config: LintConfig) -> None:
    condition_attrs = locks.condition_attrs() if locks else set()

    def resolve_lock(expr: ast.expr) -> LockId | None:
        if locks is None:
            return None
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            return locks.resolve(expr.attr)
        return None

    def visit(node: ast.AST, held: tuple[LockId, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return  # nested defs run on their own thread of control
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = held
            for item in node.items:
                lock = resolve_lock(item.context_expr)
                if lock is None:
                    visit(item.context_expr, inner)
                    continue
                info.acquisitions.append((inner, lock, item.context_expr))
                if lock not in inner:
                    inner = (*inner, lock)
            for stmt in node.body:
                visit(stmt, inner)
            return
        if isinstance(node, ast.Call):
            is_condition_wait = (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in {"wait", "wait_for", "notify", "notify_all"}
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr in condition_attrs
            )
            if not is_condition_wait:
                blocking = _blocking_name(node, config)
                if blocking is not None:
                    info.blocking.append((held, blocking, node))
                callee = _resolve_callee(node, info.owner, config)
                if callee is not None:
                    info.calls.append((held, callee, node))
        for child in ast.iter_child_nodes(node):
            visit(child, held)

    for stmt in info.node.body:
        visit(stmt, ())


@project_rule
def lock_rules(modules: list[ParsedModule], config: LintConfig) -> list[Finding]:
    scoped = [m for m in modules if config.in_lock_modules(m.module)]
    if not scoped:
        return []

    methods: dict[tuple[str, str], MethodInfo] = {}
    per_module_functions: dict[str, dict[str, MethodInfo]] = {}
    class_locks: dict[str, _ClassLocks] = {}

    for module in scoped:
        per_module_functions[module.module] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                locks = _ClassLocks(node.name, node)
                class_locks[node.name] = locks
                for child in node.body:
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        info = MethodInfo(module, node.name, child.name, child)
                        _analyze_method(info, locks, config)
                        methods[info.key] = info
        for child in module.tree.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = MethodInfo(module, "", child.name, child)
                _analyze_method(info, None, config)
                methods[info.key] = info
                per_module_functions[module.module][child.name] = info

    def resolve_key(
        caller: MethodInfo, callee: tuple[str, str]
    ) -> MethodInfo | None:
        owner, name = callee
        if owner:
            return methods.get((owner, name))
        return per_module_functions.get(caller.module.module, {}).get(name)

    # Fixpoint: which locks does each method acquire (transitively), and
    # does it block (transitively)?  Blocking carries a human-readable
    # trail for the finding message.
    acquires: dict[tuple[str, str], set[LockId]] = {
        key: {lock for _, lock, _ in info.acquisitions}
        for key, info in methods.items()
    }
    blocks: dict[tuple[str, str], str | None] = {}
    for key, info in methods.items():
        blocks[key] = info.blocking[0][1] if info.blocking else None

    changed = True
    while changed:
        changed = False
        for key, info in methods.items():
            for _, callee, _ in info.calls:
                target = resolve_key(info, callee)
                if target is None:
                    continue
                if not acquires[target.key] <= acquires[key]:
                    acquires[key] |= acquires[target.key]
                    changed = True
                if blocks[key] is None and blocks[target.key] is not None:
                    blocks[key] = f"{target.qualname} → {blocks[target.key]}"
                    changed = True

    findings: list[Finding] = []
    #: (from lock, to lock) → (module, location node, symbol)
    edges: dict[tuple[LockId, LockId], tuple[ParsedModule, ast.AST, str]] = {}

    def record_edge(
        held: tuple[LockId, ...],
        acquired: LockId,
        module: ParsedModule,
        node: ast.AST,
        symbol: str,
    ) -> None:
        for holder in held:
            if holder == acquired:
                if not acquired.reentrant:
                    findings.append(
                        module.finding(
                            "lock-order",
                            node,
                            f"{acquired.label()} is re-acquired while already "
                            "held and is not re-entrant — this self-deadlocks",
                            symbol=symbol,
                        )
                    )
                continue
            edges.setdefault((holder, acquired), (module, node, symbol))

    for info in methods.values():
        for held, lock, node in info.acquisitions:
            record_edge(held, lock, info.module, node, info.qualname)
        for held, callee, node in info.calls:
            if not held:
                continue
            target = resolve_key(info, callee)
            if target is None:
                continue
            for lock in acquires[target.key]:
                record_edge(held, lock, info.module, node, info.qualname)
            trail = blocks[target.key]
            if trail is not None:
                held_names = ", ".join(lock.label() for lock in held)
                findings.append(
                    info.module.finding(
                        "lock-blocking-call",
                        node,
                        f"call into {target.qualname} blocks ({trail}) while "
                        f"holding {held_names} — move the call outside the "
                        "critical section",
                        symbol=info.qualname,
                    )
                )
        for held, name, node in info.blocking:
            if not held:
                continue
            held_names = ", ".join(lock.label() for lock in held)
            findings.append(
                info.module.finding(
                    "lock-blocking-call",
                    node,
                    f"{name}() blocks while holding {held_names} — every "
                    "other thread touching that lock stalls behind this call",
                    symbol=info.qualname,
                )
            )

    reported_pairs: set[frozenset[LockId]] = set()
    for (a, b), (module, node, symbol) in edges.items():
        if (b, a) not in edges:
            continue
        pair = frozenset((a, b))
        if pair in reported_pairs:
            continue
        reported_pairs.add(pair)
        other_module, other_node, other_symbol = edges[(b, a)]
        for mod, loc, sym, first, second in (
            (module, node, symbol, a, b),
            (other_module, other_node, other_symbol, b, a),
        ):
            findings.append(
                mod.finding(
                    "lock-order",
                    loc,
                    f"lock-order inversion: {second.label()} acquired while "
                    f"holding {first.label()}, but the opposite order exists "
                    "elsewhere — pick one global order",
                    symbol=sym,
                )
            )
    return findings
