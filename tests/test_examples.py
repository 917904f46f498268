"""Smoke tests for the example scripts — the documented user journeys.

Each example is run as a real subprocess (fresh interpreter, no shared
state) with small arguments; the test asserts a zero exit code and the
presence of the example's headline output. ``reproduce_paper.py`` is
exercised indirectly (its code path is the registry, covered elsewhere)
because a full regeneration is too slow for the unit suite.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str, timeout: int = 240) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, f"{name} failed:\n{proc.stderr}"
    return proc.stdout


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py", "8", "3")
        assert "Mapping quality at n = 8" in out
        assert "reference Eq. (2) evaluation confirms the reported cost" in out

    def test_ce_convergence(self):
        out = run_example("ce_convergence.py", "8", "3")
        assert "MaTCH on n = 8" in out

    def test_overset_cfd_mapping(self):
        out = run_example("overset_cfd_mapping.py", "8", "3")
        assert "Overset system" in out
        assert "MaTCH placement" in out

    def test_heuristic_comparison(self):
        out = run_example("heuristic_comparison.py", "8", "1", "3")
        assert "All heuristics at n = 8" in out
        assert "MaTCH" in out
