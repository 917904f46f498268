"""``repro-lint`` — the determinism & parallel-safety linter CLI.

Usage::

    repro-lint                       # per-file rules over src/ and tests/
    repro-lint src/repro/ce          # lint a subtree
    repro-lint --flow src/repro      # whole-program flow analysis
    repro-lint --format json         # machine-readable findings
    repro-lint --format sarif        # GitHub code-scanning upload format
    repro-lint --select seed-discipline,wallclock
    repro-lint --list-rules          # what is enforced, and why

Exit codes: 0 clean (after noqa), 1 findings, 2 usage error.
``python -m repro.analysis`` is the same entry point.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.engine import LintResult, flow_paths, lint_paths
from repro.analysis.rules import RULE_IDS, RULES
from repro.utils.tables import format_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based determinism & parallel-safety linter for the MaTCH "
            "reproduction (see DESIGN.md 'Determinism contract')"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--flow",
        action="store_true",
        help=(
            "run the whole-program flow rules (rng-provenance, "
            "shm-lifecycle, budget-flow, worker-purity) instead of the "
            "per-file checkers"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("table", "json", "sarif"),
        default="table",
        help="report format (default: table)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="describe every rule and its default exemptions",
    )
    return parser


def _default_paths(flow: bool) -> list[str]:
    if flow and Path("src/repro").is_dir():
        return ["src/repro"]
    candidates = [p for p in ("src", "tests") if Path(p).is_dir()]
    return candidates or ["."]


def _render_rules() -> str:
    rows = [
        [
            rule_id,
            "flow" if RULES[rule_id].flow else "file",
            RULES[rule_id].summary,
            ", ".join(RULES[rule_id].exempt_globs) or "-",
        ]
        for rule_id in RULE_IDS
    ]
    return format_table(
        ["rule", "scope", "enforces", "exempt paths"], rows, title="repro-lint rules"
    )


def _render_table(result: LintResult) -> str:
    lines = []
    if result.findings:
        rows = []
        for f in result.findings:
            message = f.message
            if len(f.trace) > 1:
                message += " [via " + " -> ".join(f.trace) + "]"
            rows.append([f.location(), f.rule, message])
        lines.append(format_table(["location", "rule", "finding"], rows))
    summary = (
        f"repro-lint: {len(result.findings)} finding(s) in "
        f"{result.files_scanned} file(s)"
    )
    if result.suppressed:
        summary += f" ({result.suppressed} noqa-suppressed)"
    lines.append(summary)
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_render_rules())
        return 0

    select = None
    if args.select is not None:
        select = [r.strip() for r in args.select.split(",") if r.strip()]

    paths = args.paths or _default_paths(args.flow)
    runner = flow_paths if args.flow else lint_paths
    try:
        result = runner(paths, select=select)
    except ValueError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        payload = {
            "findings": [f.to_dict() for f in result.findings],
            "files_scanned": result.files_scanned,
            "suppressed": result.suppressed,
            "ok": result.ok,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "sarif":
        from repro.analysis.sarif import render_sarif

        print(render_sarif(result))
    else:
        print(_render_table(result))
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    raise SystemExit(main())
