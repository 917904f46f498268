"""The ``repro-lint`` command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.analysis.cli import main


@pytest.fixture()
def bad_tree(tmp_path, monkeypatch):
    """A tiny repo with one violation, as the CLI's working directory."""
    mod = tmp_path / "src" / "repro" / "mod.py"
    mod.parent.mkdir(parents=True)
    mod.write_text("import random\n", encoding="utf-8")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_ok.py").write_text("x = 1\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, bad_tree, capsys):
        assert main(["tests"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, bad_tree, capsys):
        assert main(["src"]) == 1
        out = capsys.readouterr().out
        assert "seed-discipline" in out
        assert "src/repro/mod.py:1" in out

    def test_default_paths_are_src_and_tests(self, bad_tree, capsys):
        assert main([]) == 1
        assert "2 file(s)" in capsys.readouterr().out

    def test_unknown_rule_is_usage_error(self, bad_tree, capsys):
        assert main(["--select", "bogus", "src"]) == 2
        assert "unknown rule" in capsys.readouterr().err


class TestOutputFormats:
    def test_json_format(self, bad_tree, capsys):
        assert main(["--format", "json", "src"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["files_scanned"] == 1
        [finding] = payload["findings"]
        assert finding["rule"] == "seed-discipline"
        assert finding["path"] == "src/repro/mod.py"

    def test_list_rules(self, bad_tree, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in (
            "seed-discipline",
            "wallclock",
            "float-equality",
            "parallel-safety",
            "mutable-state",
            "kernel-discipline",
            "rng-provenance",
            "shm-lifecycle",
            "budget-flow",
            "worker-purity",
        ):
            assert rule in out
        assert "flow" in out  # the scope column distinguishes the two layers

    def test_select_filters_rules(self, bad_tree, capsys):
        assert main(["--select", "wallclock", "src"]) == 0


@pytest.fixture()
def impure_worker_tree(tmp_path, monkeypatch):
    """A tiny repo whose only violation needs the flow layer to see."""
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    (pkg / "driver.py").write_text(
        "from repro.cells import run_cell\n"
        "from repro.utils.parallel import WorkerPool\n\n"
        "def run_all(specs):\n"
        "    with WorkerPool(2) as pool:\n"
        "        return pool.map(run_cell, specs)\n",
        encoding="utf-8",
    )
    (pkg / "cells.py").write_text(
        "_CACHE = {}\n\n"
        "def run_cell(spec):\n"
        "    _CACHE[spec] = 1\n"
        "    return spec\n",
        encoding="utf-8",
    )
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestFlowMode:
    def test_flow_findings_exit_one_with_trace_rendering(
        self, impure_worker_tree, capsys
    ):
        assert main(["--flow", "src"]) == 1
        out = capsys.readouterr().out
        assert "worker-purity" in out
        assert "src/repro/cells.py:4" in out

    def test_flow_default_path_is_src_repro(self, impure_worker_tree, capsys):
        assert main(["--flow"]) == 1
        assert "worker-purity" in capsys.readouterr().out

    def test_per_file_mode_misses_the_flow_violation(self, impure_worker_tree):
        assert main(["src"]) == 0

    def test_flow_sarif_output(self, impure_worker_tree, capsys):
        assert main(["--flow", "--format", "sarif", "src"]) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        [result] = log["runs"][0]["results"]
        assert result["ruleId"] == "worker-purity"

    def test_flow_select_nonflow_rule_runs_nothing(self, impure_worker_tree):
        assert main(["--flow", "--select", "seed-discipline", "src"]) == 0




def test_module_entry_point_matches_console_script():
    import repro.analysis.cli as cli_mod

    assert cli_mod.main is main
