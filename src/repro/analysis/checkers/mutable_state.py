"""mutable-state: no mutable defaults; declared in-place contracts only.

Two sub-checks:

* **mutable default arguments** — flagged everywhere. A ``def f(x=[])``
  default is one object shared across calls: cross-call state that breaks
  the run-in-any-order property the parallel runner depends on.
* **undeclared parameter mutation in hot paths** — in ``repro/mapping/``
  and ``repro/ce/`` modules, a module-level function (or method) that
  assigns into a subscripted parameter (``buf[i] = ...``) mutates its
  caller's array. That is fine *as a contract* — a scratch-buffer helper
  whose caller hands it the array to fill — so the check skips
  functions that declare it: a docstring mentioning "in-place"/"in place",
  or the parameter being named ``out``/``*_out`` (numpy's ``out=``
  convention). Nested helper functions are exempt (their parameters are
  local implementation detail, not API surface).
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.base import Checker, CheckContext
from repro.analysis.rules import MUTABLE_STATE, path_matches

__all__ = ["MutableStateChecker"]

#: Modules whose hot-path functions get the parameter-mutation check.
HOT_PATH_GLOBS = ("repro/mapping/*", "repro/ce/*")

MUTABLE_CALLS = frozenset({"list", "dict", "set"})


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in MUTABLE_CALLS
    )


def _declares_inplace(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    doc = ast.get_docstring(fn) or ""
    lowered = doc.lower()
    return "in-place" in lowered or "in place" in lowered


def _param_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    args = fn.args
    names = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]}
    names.discard("self")
    names.discard("cls")
    return names


class MutableStateChecker(Checker):
    rule_id = MUTABLE_STATE

    def __init__(self, ctx: CheckContext) -> None:
        super().__init__(ctx)
        self._hot_path = path_matches(ctx.path, HOT_PATH_GLOBS)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node, nesting=0)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node, nesting=0)

    def _check_function(
        self, fn: ast.FunctionDef | ast.AsyncFunctionDef, nesting: int
    ) -> None:
        self._check_defaults(fn)
        if self._hot_path and nesting == 0 and not _declares_inplace(fn):
            self._check_param_mutation(fn)
        # Recurse manually so nested defs know their depth.
        for child in ast.walk(fn):
            if child is fn:
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_defaults(child)

    def _check_defaults(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        defaults = [*fn.args.defaults, *[d for d in fn.args.kw_defaults if d]]
        for default in defaults:
            if _is_mutable_default(default):
                self.report(
                    default,
                    f"mutable default argument in '{fn.name}'; one object is "
                    "shared across calls — default to None and build inside",
                )

    def _check_param_mutation(
        self, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        params = {
            p for p in _param_names(fn) if not (p == "out" or p.endswith("_out"))
        }
        if not params:
            return
        # Walk fn's body without descending into nested defs (exempt).
        stack: list[ast.AST] = list(ast.iter_child_nodes(fn))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack.extend(ast.iter_child_nodes(node))
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in params
                ):
                    self.report(
                        target,
                        f"'{fn.name}' writes into parameter "
                        f"'{target.value.id}' without declaring an in-place "
                        "contract; document it ('In-place: ...') or take an "
                        "out= parameter",
                    )
