"""Zero-copy discipline on the wire path.

PR 8 made the server path memoryview-clean end to end; this rule keeps it
that way.  ``bytes(view)`` / ``view.tobytes()`` on anything that carries
wire data re-materialises a buffer the path promised not to copy; each
deliberate boundary (retention past frame-buffer reuse) carries an
allow-comment or a baseline entry saying why.

* ``zero-copy`` — a ``bytes()`` / ``.tobytes()`` copy of a view-carrying
  expression inside a wire-path module.
"""

from __future__ import annotations

import ast

from ..config import LintConfig
from ..engine import Finding, ParsedModule, module_rule
from ._shared import iter_functions, local_assignments


def _is_view_expr(
    node: ast.expr,
    view_names: frozenset[str],
    config: LintConfig,
    depth: int = 0,
) -> bool:
    """Whether an expression plausibly carries a memoryview of wire data."""
    if depth > 6:
        return False
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id == "memoryview":
            return True
        if isinstance(func, ast.Attribute) and func.attr == "cast":
            return _is_view_expr(func.value, view_names, config, depth + 1)
        return False
    if isinstance(node, ast.Subscript):
        return _is_view_expr(node.value, view_names, config, depth + 1)
    if isinstance(node, ast.Name):
        return node.id in view_names or node.id in config.wire_names
    if isinstance(node, ast.Attribute):
        return node.attr in config.wire_names
    return False


@module_rule
def zerocopy_rule(module: ParsedModule, config: LintConfig) -> list[Finding]:
    if not config.in_wire_path(module.module):
        return []
    findings: list[Finding] = []

    for qualname, func in iter_functions(module.tree):
        assigns = local_assignments(func)
        # Names assigned from memoryview(...) (or a slice/cast of one) are
        # views even when they are not called "payload".
        view_names: set[str] = set()
        changed = True
        while changed:
            changed = False
            for name, values in assigns.items():
                if name in view_names:
                    continue
                if any(
                    _is_view_expr(value, frozenset(view_names), config)
                    for value in values
                ):
                    view_names.add(name)
                    changed = True
        frozen_views = frozenset(view_names)
        # Parameters annotated as buffers count too.
        for arg in (*func.args.posonlyargs, *func.args.args, *func.args.kwonlyargs):
            annotation = ast.unparse(arg.annotation) if arg.annotation else ""
            if "memoryview" in annotation:
                frozen_views |= {arg.arg}

        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            target: ast.expr | None = None
            via = ""
            if (
                isinstance(node.func, ast.Name)
                and node.func.id == "bytes"
                and len(node.args) == 1
            ):
                target, via = node.args[0], "bytes()"
            elif isinstance(node.func, ast.Attribute) and node.func.attr == "tobytes":
                target, via = node.func.value, ".tobytes()"
            if target is None:
                continue
            # .tobytes() only exists on buffer objects (memoryview, ndarray)
            # — in a wire-path module it is always a materialisation worth a
            # look, whatever the receiver is called.
            if via == ".tobytes()" or _is_view_expr(target, frozen_views, config):
                findings.append(
                    module.finding(
                        "zero-copy",
                        node,
                        f"{via} re-materialises a wire view — hashlib/struct/"
                        "join all accept buffers directly; copy only at a "
                        "declared retention boundary (and say why)",
                        symbol=qualname,
                    )
                )
    return findings
