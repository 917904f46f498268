"""Linter engine: file discovery, checker dispatch, suppression.

The engine is deliberately boring: parse each file once, hand the tree to
every selected checker, then peel off findings that are (a) on a
``# repro: noqa[...]`` line or (b) in a rule's default path exemptions.
Everything downstream (CLI, tests, CI) works with the returned
:class:`LintResult`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence, Type

from repro.analysis.checkers.base import Checker, CheckContext
from repro.analysis.checkers.float_equality import FloatEqualityChecker
from repro.analysis.checkers.kernel_discipline import KernelDisciplineChecker
from repro.analysis.checkers.mutable_state import MutableStateChecker
from repro.analysis.checkers.parallel_safety import ParallelSafetyChecker
from repro.analysis.checkers.run_discipline import RunDisciplineChecker
from repro.analysis.checkers.seed_discipline import SeedDisciplineChecker
from repro.analysis.checkers.wallclock import WallclockChecker
from repro.analysis.findings import Finding
from repro.analysis.rules import PARSE_ERROR, RULES
from repro.analysis.suppressions import filter_suppressed, parse_suppressions

__all__ = [
    "ALL_CHECKERS",
    "LintResult",
    "lint_source",
    "lint_paths",
    "flow_paths",
    "iter_python_files",
]

ALL_CHECKERS: tuple[Type[Checker], ...] = (
    SeedDisciplineChecker,
    WallclockChecker,
    FloatEqualityChecker,
    ParallelSafetyChecker,
    MutableStateChecker,
    KernelDisciplineChecker,
    RunDisciplineChecker,
)

#: Directories never worth descending into.
_SKIP_DIRS = frozenset({".git", "__pycache__", ".venv", "build", "dist", ".eggs"})


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


def _select_checkers(select: Sequence[str] | None) -> tuple[Type[Checker], ...]:
    if select is None:
        return ALL_CHECKERS
    wanted = set(select)
    unknown = wanted - set(RULES)
    if unknown:
        raise ValueError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    return tuple(c for c in ALL_CHECKERS if c.rule_id in wanted)


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    select: Sequence[str] | None = None,
) -> tuple[list[Finding], int]:
    """Lint one module's source text.

    Returns ``(findings, n_suppressed)``; ``path`` is used for rule path
    exemptions, so pass something shaped like the real location (tests use
    e.g. ``"src/repro/foo.py"`` to exercise them).
    """
    norm = path.replace("\\", "/")
    try:
        tree = ast.parse(source, filename=norm)
    except SyntaxError as exc:
        finding = Finding(
            path=norm,
            line=exc.lineno or 1,
            col=(exc.offset or 0) + 1,
            rule=PARSE_ERROR,
            message=f"could not parse: {exc.msg}",
        )
        return [finding], 0
    ctx = CheckContext.build(norm, source, tree)
    raw: list[Finding] = []
    for checker_cls in _select_checkers(select):
        if RULES[checker_cls.rule_id].is_exempt(norm):
            continue
        raw.extend(checker_cls(ctx).run())
    kept = filter_suppressed(raw, parse_suppressions(source))
    return sorted(kept), len(raw) - len(kept)


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    seen: set[Path] = set()
    for path in paths:
        p = Path(path)
        if p.is_dir():
            for sub in sorted(p.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in sub.parts):
                    seen.add(sub)
        elif p.suffix == ".py":
            seen.add(p)
    return sorted(seen)


def _display_path(p: Path, root: Path | None) -> str:
    if root is not None:
        try:
            return p.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return p.as_posix()


def lint_paths(
    paths: Sequence[str | Path],
    *,
    select: Sequence[str] | None = None,
    root: str | Path | None = ".",
) -> LintResult:
    """Lint every ``.py`` file under ``paths``.

    ``root`` anchors the paths reported in findings (and matched against
    the rule exemptions); it defaults to the working directory
    at call time so reports are repo-relative regardless of how paths were
    spelled. Pass ``None`` to keep paths exactly as given.
    """
    result = LintResult()
    root_path = Path(root) if root is not None else None
    for file_path in iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        findings, suppressed = lint_source(
            source, _display_path(file_path, root_path), select=select
        )
        result.findings.extend(findings)
        result.suppressed += suppressed
        result.files_scanned += 1
    result.findings.sort()
    return result


def flow_paths(
    paths: Sequence[str | Path],
    *,
    select: Sequence[str] | None = None,
    root: str | Path | None = ".",
) -> LintResult:
    """Run the whole-program flow rules over every ``.py`` file under ``paths``.

    Same contract as :func:`lint_paths` — repo-relative display paths,
    ``# repro: noqa[...]`` suppression — but the
    analysis is interprocedural: findings may carry a call-chain
    :attr:`~repro.analysis.findings.Finding.trace`. ``select`` restricts
    to a subset of :data:`repro.analysis.rules.FLOW_RULE_IDS`.
    """
    from repro.analysis.flow.project import ProjectIndex
    from repro.analysis.flow.rules import run_flow_rules
    from repro.analysis.rules import FLOW_RULE_IDS

    if select is not None:
        unknown = set(select) - set(RULES)
        if unknown:
            raise ValueError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
        select = [r for r in select if r in FLOW_RULE_IDS]

    index = ProjectIndex.from_paths(paths, root=root)
    raw = run_flow_rules(index, select=select)

    suppressions = {
        mod.path: parse_suppressions(mod.source) for mod in index.modules.values()
    }
    kept: list[Finding] = []
    for finding in raw:
        line_rules = suppressions.get(finding.path, {}).get(finding.line)
        if line_rules is not None and (
            "*" in line_rules or finding.rule in line_rules
        ):
            continue
        kept.append(finding)

    return LintResult(
        findings=sorted(kept),
        files_scanned=len(index.modules),
        suppressed=len(raw) - len(kept),
    )
