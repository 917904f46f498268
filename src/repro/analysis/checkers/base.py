"""Shared infrastructure for AST checkers.

Each checker is an :class:`ast.NodeVisitor` over one module with access to
a :class:`CheckContext` (path, source lines, pre-computed module facts).
Checkers only *collect* findings; suppression (``# repro: noqa[...]``)
and rule-level path exemptions are applied by the engine, so a checker
never needs to know about them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import ClassVar

from repro.analysis.findings import Finding

__all__ = [
    "DISPATCH_METHODS",
    "POOLISH",
    "CheckContext",
    "Checker",
    "dotted_name",
    "is_shm_create",
]

#: Pool methods that ship a callable to worker processes. Shared by the
#: per-file ``parallel-safety`` rule and the flow layer's worker roots.
DISPATCH_METHODS = frozenset(
    {"map", "map_salvage", "submit", "starmap", "apply_async", "imap", "imap_unordered"}
)
#: Receiver-name fragments that mark a pool-ish object.
POOLISH = ("pool", "executor")


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def is_shm_create(call: ast.Call) -> bool:
    """True for ``SharedMemory(..., create=True)``: a new segment, not an attach."""
    callee = dotted_name(call.func) or ""
    return callee.split(".")[-1] == "SharedMemory" and any(
        kw.arg == "create"
        and isinstance(kw.value, ast.Constant)
        and kw.value.value is True
        for kw in call.keywords
    )


@dataclass
class CheckContext:
    """One parsed module plus the facts several checkers need."""

    path: str
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    #: Names bound by module-level ``def`` statements (picklable targets).
    module_defs: set[str] = field(default_factory=set)
    #: Names bound by module-level imports (also resolvable by pickle).
    imported_names: set[str] = field(default_factory=set)

    @classmethod
    def build(cls, path: str, source: str, tree: ast.Module) -> "CheckContext":
        ctx = cls(path=path, source=source, tree=tree, lines=source.splitlines())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                ctx.module_defs.add(node.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    ctx.imported_names.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name != "*":
                        ctx.imported_names.add(alias.asname or alias.name)
        return ctx

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


class Checker(ast.NodeVisitor):
    """Base class: visit the module tree, accumulate findings."""

    #: Rule id this checker reports under; set by each subclass.
    rule_id: ClassVar[str]

    def __init__(self, ctx: CheckContext) -> None:
        self.ctx = ctx
        self.findings: list[Finding] = []

    def report(self, node: ast.AST, message: str, *, rule: str | None = None) -> None:
        lineno = getattr(node, "lineno", 1)
        self.findings.append(
            Finding(
                path=self.ctx.path,
                line=lineno,
                col=getattr(node, "col_offset", 0) + 1,
                rule=rule or self.rule_id,
                message=message,
                snippet=self.ctx.line_text(lineno),
            )
        )

    def run(self) -> list[Finding]:
        """Visit the whole module and return the collected findings."""
        self.visit(self.ctx.tree)
        return self.findings
