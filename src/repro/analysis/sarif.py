"""SARIF 2.1.0 output for ``repro-lint`` findings.

SARIF (Static Analysis Results Interchange Format) is what GitHub code
scanning ingests to annotate pull requests inline. One run object, one
``tool.driver`` carrying the full rule catalog, one ``result`` per
finding. Interprocedural findings additionally emit a ``codeFlow`` whose
thread-flow locations spell out the call chain from the analysis root
(dispatch site or solver lifecycle method) to the violating line.

Only stable, widely supported SARIF features are emitted; the output
validates against the 2.1.0 schema (pinned by a subset schema in the
test suite).
"""

from __future__ import annotations

import json
from typing import Any

from repro.analysis.engine import LintResult
from repro.analysis.findings import Finding
from repro.analysis.rules import RULE_IDS, RULES

__all__ = ["to_sarif", "render_sarif"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"


def _rule_descriptor(rule_id: str) -> dict[str, Any]:
    rule = RULES[rule_id]
    return {
        "id": rule.id,
        "shortDescription": {"text": rule.summary},
        "fullDescription": {"text": rule.rationale},
        "defaultConfiguration": {"level": "error"},
        "properties": {
            "exemptGlobs": list(rule.exempt_globs),
            "flow": rule.flow,
        },
    }


def _location(finding: Finding) -> dict[str, Any]:
    return {
        "physicalLocation": {
            "artifactLocation": {"uri": finding.path},
            "region": {
                "startLine": finding.line,
                "startColumn": finding.col,
                **({"snippet": {"text": finding.snippet}} if finding.snippet else {}),
            },
        }
    }


def _code_flow(finding: Finding) -> dict[str, Any]:
    locations = [
        {
            "location": {
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": {"startLine": finding.line},
                },
                "message": {"text": qual},
            }
        }
        for qual in finding.trace
    ]
    return {"threadFlows": [{"locations": locations}]}


def _result(finding: Finding) -> dict[str, Any]:
    result: dict[str, Any] = {
        "ruleId": finding.rule,
        "level": "error",
        "message": {"text": finding.message},
        "locations": [_location(finding)],
    }
    if len(finding.trace) > 1:
        result["codeFlows"] = [_code_flow(finding)]
    return result


def to_sarif(result: LintResult, *, tool_version: str | None = None) -> dict[str, Any]:
    """Build the SARIF 2.1.0 log object for one lint run."""
    if tool_version is None:
        try:
            from repro import __version__ as tool_version  # type: ignore[no-redef]
        except ImportError:  # pragma: no cover - repro always importable here
            tool_version = "0"
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "version": str(tool_version),
                        "informationUri": (
                            "https://github.com/paper-repro/match#linting-the-"
                            "determinism-contract"
                        ),
                        "rules": [_rule_descriptor(r) for r in RULE_IDS],
                    }
                },
                "results": [_result(f) for f in result.findings],
                "properties": {
                    "filesScanned": result.files_scanned,
                    "suppressed": result.suppressed,
                },
            }
        ],
    }


def render_sarif(result: LintResult, *, tool_version: str | None = None) -> str:
    """JSON text of :func:`to_sarif` (stable key order)."""
    return json.dumps(
        to_sarif(result, tool_version=tool_version), indent=2, sort_keys=True
    )
