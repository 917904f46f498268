"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command(self):
        args = build_parser().parse_args(["run", "table1", "--seed", "9"])
        assert args.command == "run"
        assert args.experiment == "table1" and args.seed == 9

    def test_experiment_sugar_commands(self):
        args = build_parser().parse_args(["table2", "--scale", "paper"])
        assert args.command == "table2" and args.scale == "paper"

    def test_solve_command(self):
        args = build_parser().parse_args(["solve", "--size", "8"])
        assert args.command == "solve" and args.size == 8

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig9" in out

    def test_unknown_experiment_errors(self, capsys):
        assert main(["run", "table42"]) == 1
        assert "unknown experiment" in capsys.readouterr().err

    def test_solve_small(self, capsys):
        assert main(["solve", "--size", "6", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "execution time (ET)" in out
        assert "assignment" in out

    def test_fig3_runs(self, capsys):
        # fig3 is profile-independent and fast at n=10
        assert main(["fig3", "--seed", "3"]) == 0
        assert "Figure 3 (measured)" in capsys.readouterr().out

    def test_solve_kernel_flag_pins_backend(self, capsys, monkeypatch):
        # --kernel exports REPRO_KERNEL (pool workers must inherit it) and
        # the run proceeds on the named backend, numbers unchanged.
        import os

        monkeypatch.setenv("REPRO_KERNEL", "auto")
        assert main(["solve", "--size", "6", "--seed", "3", "--kernel", "numpy"]) == 0
        assert os.environ["REPRO_KERNEL"] == "numpy"
        pinned = capsys.readouterr().out
        monkeypatch.setenv("REPRO_KERNEL", "auto")
        assert main(["solve", "--size", "6", "--seed", "3"]) == 0
        # ET, evaluations and the assignment are backend-invariant; only
        # the wall-clock MT line may differ between the two runs.
        def strip(text):
            return [ln for ln in text.splitlines() if "mapping time" not in ln]

        assert strip(capsys.readouterr().out) == strip(pinned)

    def test_solve_unavailable_kernel_errors(self, capsys, monkeypatch, tmp_path):
        from repro import kernels

        # A bogus compiler plus an empty cache directory: cext cannot load.
        monkeypatch.setenv("REPRO_CC", str(tmp_path / "no-such-cc"))
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "cache"))
        kernels.reset_kernel_state()
        try:
            assert main(["solve", "--size", "6", "--kernel", "cext"]) == 1
            assert "unavailable" in capsys.readouterr().err
        finally:
            kernels.reset_kernel_state()

    def test_solve_any_heuristic_with_budget(self, capsys):
        code = main(
            ["solve", "--size", "6", "--seed", "3",
             "--heuristic", "fastmap-ga", "--budget-evals", "500"]
        )
        assert code == 0
        assert "FastMap-GA" in capsys.readouterr().out

    def test_solve_checkpoint_then_resume(self, capsys, tmp_path):
        ckpt = str(tmp_path / "run.ckpt")
        assert main(
            ["solve", "--size", "6", "--seed", "3",
             "--heuristic", "fastmap-ga", "--budget-evals", "5000",
             "--checkpoint", ckpt]
        ) == 0
        first = capsys.readouterr().out
        # The finished run's checkpoint restores its exhausted state;
        # resuming reproduces the identical final result.
        assert main(["resume", ckpt]) == 0
        resumed = capsys.readouterr().out
        assert "resumed from" in resumed
        assert first.split("assignment")[1] == resumed.split("assignment")[1]

    def test_resume_missing_file_errors(self, capsys, tmp_path):
        assert main(["resume", str(tmp_path / "nope.ckpt")]) == 1
        assert "error:" in capsys.readouterr().err
