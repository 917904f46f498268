"""run-discipline: result files in run-producing layers go through the run-store.

Applies only inside ``repro/experiments/``, ``repro/service/`` and
``benchmarks/`` — the layers whose output *is* the reproduction's
evidence. There, a bare ``json.dump``, a ``open(path, "w")``, or a
``Path.write_text`` is a result file with no manifest attached: no git
SHA, no env surface, no seeds, nothing a later cross-run comparison can
hold on to. Those layers must route persistent output through
:mod:`repro.runstore` (``RunStore``/``RunHandle``), where provenance is
written alongside the numbers.

Reading is fine; only write paths are flagged. Sites with a sanctioned
reason (e.g. a scratch file handed to an external tool) carry
``# repro: noqa[run-discipline]``.
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.base import Checker, CheckContext, dotted_name
from repro.analysis.rules import RUN_DISCIPLINE, path_matches

__all__ = ["RunDisciplineChecker"]

#: The layers where raw result-writing is banned. The service module is in
#: scope since PR 9: a gateway's responses, cache entries and counters are
#: run evidence too, and must land in the run store / the sanctioned
#: ``repro.runstore.cache`` tier rather than ad-hoc files.
SCOPED_GLOBS = ("repro/experiments/*", "repro/service/*", "benchmarks/*")

#: ``open`` mode strings that create or truncate a file for writing.
_WRITE_MODE_CHARS = frozenset("wax")


def _is_write_mode(mode: ast.expr | None) -> bool:
    if mode is None:
        return False
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(_WRITE_MODE_CHARS & set(mode.value))
    # A computed mode can't be proven read-only; stay quiet rather than
    # guess — the json.dump/write_text checks catch the common cases.
    return False


class RunDisciplineChecker(Checker):
    rule_id = RUN_DISCIPLINE

    def __init__(self, ctx: CheckContext) -> None:
        super().__init__(ctx)
        self._in_scope = path_matches(ctx.path, SCOPED_GLOBS)

    def visit_Call(self, node: ast.Call) -> None:
        if self._in_scope:
            self._check(node)
        self.generic_visit(node)

    def _check(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if dotted in {"json.dump", "json.dumps"}:
            self.report(
                node,
                f"{dotted}() in a run-producing layer writes results without a "
                "manifest; route output through repro.runstore "
                "(RunHandle.record_metrics)",
            )
            return
        if dotted == "open" or (dotted is not None and dotted.endswith(".open")):
            mode = None
            if len(node.args) >= 2:
                mode = node.args[1]
            for kw in node.keywords:
                if kw.arg == "mode":
                    mode = kw.value
            if _is_write_mode(mode):
                self.report(
                    node,
                    "open(..., 'w') in a run-producing layer writes a result "
                    "file with no provenance; use the run-store "
                    "(RunHandle.add_artifact)",
                )
            return
        if isinstance(node.func, ast.Attribute) and node.func.attr in {
            "write_text",
            "write_bytes",
        }:
            self.report(
                node,
                f".{node.func.attr}() in a run-producing layer writes a result "
                "file with no provenance; use the run-store "
                "(RunHandle.add_artifact)",
            )
