"""SARIF 2.1.0 output: structure, code flows, and schema validation.

The full SARIF schema is a network fetch away, so validation here uses a
bundled subset schema pinning exactly the shapes GitHub code scanning
requires of us: version literal, tool.driver with a rule catalog, results
with ruleId/message/locations, and codeFlows with threadFlow locations.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.engine import LintResult
from repro.analysis.findings import Finding
from repro.analysis.rules import RULE_IDS
from repro.analysis.sarif import SARIF_SCHEMA, SARIF_VERSION, render_sarif, to_sarif

#: Subset of the SARIF 2.1.0 schema (draft-07 dialect) — the properties
#: this tool emits, constrained as the real schema constrains them.
SARIF_SUBSET_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "version": {"const": "2.1.0"},
        "$schema": {"type": "string", "format": "uri"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "version": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                            "properties": {
                                                "id": {"type": "string"},
                                                "shortDescription": {
                                                    "type": "object",
                                                    "required": ["text"],
                                                },
                                            },
                                        },
                                    },
                                },
                            }
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["ruleId", "message", "locations"],
                            "properties": {
                                "ruleId": {"type": "string"},
                                "level": {
                                    "enum": ["none", "note", "warning", "error"]
                                },
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                },
                                "locations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "required": ["physicalLocation"],
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "required": ["artifactLocation"],
                                                "properties": {
                                                    "artifactLocation": {
                                                        "type": "object",
                                                        "required": ["uri"],
                                                    },
                                                    "region": {
                                                        "type": "object",
                                                        "properties": {
                                                            "startLine": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                            "startColumn": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                        },
                                                    },
                                                },
                                            }
                                        },
                                    },
                                },
                                "codeFlows": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "required": ["threadFlows"],
                                        "properties": {
                                            "threadFlows": {
                                                "type": "array",
                                                "items": {
                                                    "type": "object",
                                                    "required": ["locations"],
                                                },
                                            }
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


def sample_result() -> LintResult:
    return LintResult(
        findings=[
            Finding(
                path="src/repro/experiments/cells.py",
                line=7,
                col=5,
                rule="worker-purity",
                message="worker-reachable write to module global '_CACHE'",
                snippet="_CACHE[spec] = 1",
                trace=(
                    "repro.experiments.cells.run_cell",
                    "repro.experiments.cells._helper",
                ),
            ),
            Finding(
                path="src/repro/ce/opt.py",
                line=12,
                col=9,
                rule="budget-flow",
                message="cost-model probe not charge-covered",
                snippet="cost = self.model.evaluate(cand)",
            ),
        ],
        files_scanned=3,
        suppressed=1,
    )


class TestStructure:
    def test_version_and_schema_pinned(self):
        log = to_sarif(sample_result())
        assert log["version"] == SARIF_VERSION == "2.1.0"
        assert log["$schema"] == SARIF_SCHEMA

    def test_driver_carries_full_rule_catalog(self):
        log = to_sarif(sample_result())
        driver = log["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        assert [r["id"] for r in driver["rules"]] == list(RULE_IDS)

    def test_one_result_per_finding_with_location(self):
        log = to_sarif(sample_result())
        results = log["runs"][0]["results"]
        assert len(results) == 2
        first = results[0]
        assert first["ruleId"] == "worker-purity"
        loc = first["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "src/repro/experiments/cells.py"
        assert loc["region"]["startLine"] == 7
        assert loc["region"]["snippet"]["text"] == "_CACHE[spec] = 1"

    def test_trace_becomes_code_flow(self):
        log = to_sarif(sample_result())
        with_trace, without_trace = log["runs"][0]["results"]
        steps = with_trace["codeFlows"][0]["threadFlows"][0]["locations"]
        assert [s["location"]["message"]["text"] for s in steps] == [
            "repro.experiments.cells.run_cell",
            "repro.experiments.cells._helper",
        ]
        assert "codeFlows" not in without_trace

    def test_run_properties_carry_scan_counters(self):
        props = to_sarif(sample_result())["runs"][0]["properties"]
        assert props == {"filesScanned": 3, "suppressed": 1}

    def test_tool_version_defaults_to_package_version(self):
        import repro

        driver = to_sarif(sample_result())["runs"][0]["tool"]["driver"]
        assert driver["version"] == repro.__version__

    def test_render_round_trips_through_json(self):
        text = render_sarif(sample_result())
        assert json.loads(text) == to_sarif(sample_result())


class TestSchemaValidation:
    def test_validates_against_subset_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(to_sarif(sample_result()), SARIF_SUBSET_SCHEMA)

    def test_empty_run_validates_too(self):
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(to_sarif(LintResult()), SARIF_SUBSET_SCHEMA)
