"""CLI surface of the run-store: solve/resume recording and runs."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.runstore import RunStore


@pytest.fixture
def runs_dir(tmp_path, monkeypatch):
    root = tmp_path / "runs"
    monkeypatch.setenv("REPRO_RUNS_DIR", str(root))
    return root


def _solve(*extra):
    return main(["solve", "--size", "6", "--seed", "3", "--budget-evals", "800", *extra])


class TestSolveRecording:
    def test_solve_writes_a_complete_run(self, runs_dir, capsys):
        assert _solve() == 0
        store = RunStore(runs_dir)
        (run_id,) = store.list_runs()
        manifest = store.load_manifest(run_id)
        assert manifest["kind"] == "solve"
        assert manifest["status"] == "complete"
        assert manifest["config"]["size"] == 6
        assert manifest["rng"]["root_seed"] == 3
        assert manifest["solver"]["name"] == "match"
        assert len(manifest["problems"]["instance"]) == 64  # sha256 hex
        metrics = store.load_metrics(run_id)
        assert metrics["result"]["execution_time"] > 0
        assert metrics["result"]["n_evaluations"] > 0
        events = [e["event"] for e in store.read_events(run_id)]
        assert events[0] == "run-started"
        assert "search-started" in events and "search-stopped" in events
        assert events[-1] == "run-finalized"
        # assignment artifact parses and covers every task
        art = json.loads((runs_dir / run_id / "artifacts" / "assignment.json").read_text())
        assert len(art["assignment"]) == 6

    def test_explicit_run_id_is_honored(self, runs_dir, capsys):
        assert _solve("--run-id", "my-solve") == 0
        assert RunStore(runs_dir).list_runs() == ["my-solve"]

    def test_runs_dir_flag_overrides_env(self, runs_dir, tmp_path, capsys):
        other = tmp_path / "elsewhere"
        assert _solve("--runs-dir", str(other)) == 0
        assert not runs_dir.exists()
        assert len(RunStore(other).list_runs()) == 1


class TestRunsSubcommands:
    def test_list_and_show(self, runs_dir, capsys):
        assert _solve("--run-id", "a-run") == 0
        capsys.readouterr()
        assert main(["runs", "list"]) == 0
        assert "a-run" in capsys.readouterr().out
        assert main(["runs", "show", "a-run"]) == 0
        out = capsys.readouterr().out
        assert '"kind": "solve"' in out
        assert "search-stopped" in out

    def test_diff_isolates_kernel_backend(self, runs_dir, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert _solve("--run-id", "auto-run") == 0
        assert _solve("--run-id", "numpy-run", "--kernel", "numpy") == 0
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        capsys.readouterr()
        assert main(["runs", "diff", "auto-run", "numpy-run"]) == 0
        out = capsys.readouterr().out
        assert "env.REPRO_KERNEL" in out
        # Same seed/size/solver: nothing else may differ.
        assert "config" not in out and "rng" not in out and "problems" not in out

    def test_diff_identical_runs_is_empty(self, runs_dir, capsys):
        assert _solve("--run-id", "one") == 0
        assert _solve("--run-id", "two") == 0
        capsys.readouterr()
        assert main(["runs", "diff", "one", "two"]) == 0
        assert "identical" in capsys.readouterr().out

    def test_replay_verifies_and_reruns(self, runs_dir, capsys):
        assert _solve("--run-id", "original") == 0
        capsys.readouterr()
        assert main(["runs", "replay", "original", "--max-evals", "500"]) == 0
        out = capsys.readouterr().out
        assert "checksum verified" in out
        store = RunStore(runs_dir)
        replays = [r for r in store.list_runs() if r.startswith("replay-")]
        assert len(replays) == 1
        manifest = store.load_manifest(replays[0])
        assert manifest["replay_of"] == "original"
        assert manifest["status"] == "complete"
        assert manifest["problems"] == store.load_manifest("original")["problems"]

    def test_replay_rejects_non_solve_runs(self, runs_dir, capsys):
        RunStore(runs_dir).start_run("experiment-table1", run_id="not-a-solve")
        assert main(["runs", "replay", "not-a-solve"]) == 1
        assert "only solve runs" in capsys.readouterr().err

    def test_missing_run_errors_cleanly(self, runs_dir, capsys):
        assert main(["runs", "show", "ghost"]) == 1
        assert "no run" in capsys.readouterr().err
