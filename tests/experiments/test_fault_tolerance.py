"""Chaos tests: experiments must survive worker deaths and hangs.

Uses the deterministic ``REPRO_FAULTS`` harness to kill and hang workers
under real experiment dispatch and asserts the two tentpole guarantees:

* a salvaged run is **bit-identical** to a fault-free run — retried cells
  replay their own ``(spec, handle, seed)`` tuples, so no fault can move a
  reported number;
* a permanently failing cell costs *that cell*, recorded in the failure
  manifest with its experiment identity, never the sweep.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.ablations import sweep
from repro.experiments.runner import run_comparison
from repro.experiments.spec import ScaleProfile
from repro.core.config import MatchConfig
from repro.utils.faults import FAULTS_ENV

#: 1 size × 2 pairs × 2 heuristics × 2 runs = 8 comparison cells.
MINI_PROFILE = ScaleProfile(
    name="mini-chaos",
    sizes=(6,),
    n_pairs=2,
    runs_per_pair=2,
    ga_population=8,
    ga_generations=4,
    anova_runs=2,
    anova_ga_configs=((6, 4), (8, 3)),
    match_max_iterations=25,
)


def _comparable(data):
    """Records with the measured wall-clock zeroed (the one unpinned field)."""
    return [replace(r, mapping_time=0.0) for r in data.records]


class TestKillChaos:
    @pytest.fixture(scope="class")
    def baseline(self):
        """Fault-free serial reference run."""
        return run_comparison(MINI_PROFILE, seed=7, n_workers=1)

    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_two_worker_kills_are_bit_identical(
        self, baseline, n_workers, monkeypatch
    ):
        """Killing two workers mid-suite must not move a single number."""
        monkeypatch.setenv(FAULTS_ENV, "kill@1,5")
        salvaged = run_comparison(MINI_PROFILE, seed=7, n_workers=n_workers)
        assert salvaged.complete, salvaged.failures
        assert _comparable(salvaged) == _comparable(baseline)
        assert salvaged.et_series == baseline.et_series

    def test_raise_faults_are_bit_identical(self, baseline, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "raise@0*1; raise@6*2")
        salvaged = run_comparison(MINI_PROFILE, seed=7, n_workers=2)
        assert salvaged.complete, salvaged.failures
        assert _comparable(salvaged) == _comparable(baseline)


class TestHangChaos:
    def test_hung_cell_trips_deadline_not_the_sweep(self, monkeypatch):
        """A hang is bounded by cell_timeout; the rest of the suite lands."""
        monkeypatch.setenv(FAULTS_ENV, "hang@3*99")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "1")
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "2.0")
        with pytest.warns(RuntimeWarning, match="salvaged with 1 failed cell"):
            data = run_comparison(MINI_PROFILE, seed=7, n_workers=2)
        assert not data.complete
        (failure,) = data.failures
        assert failure.kind == "timeout"
        assert failure.attempts == 2
        # the manifest names the cell in experiment coordinates
        assert failure.heuristic in ("MaTCH", "FastMap-GA")
        assert failure.size == 6
        # every other cell completed and was aggregated
        assert len(data.records) == 7

    def test_hung_cell_recovers_when_retries_allow(self, monkeypatch):
        baseline = run_comparison(MINI_PROFILE, seed=7, n_workers=1)
        monkeypatch.setenv(FAULTS_ENV, "hang@2*1")
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "2.0")
        salvaged = run_comparison(MINI_PROFILE, seed=7, n_workers=2)
        assert salvaged.complete, salvaged.failures
        assert _comparable(salvaged) == _comparable(baseline)


class TestAblationSalvage:
    def test_ablation_reports_failures_and_nan_points(self, monkeypatch):
        """A knob value that loses every repetition reads as nan, not a crash."""
        # runs=2 → cells 0,1 belong to the first knob value
        monkeypatch.setenv(FAULTS_ENV, "raise@0*99; raise@1*99")
        with pytest.warns(RuntimeWarning, match="salvaged with 2 failed cell"):
            result = sweep(
                "rho",
                (0.05, 0.2),
                lambda v: MatchConfig(rho=v, max_iterations=15),
                size=6,
                runs=2,
                seed=11,
                n_workers=2,
            )
        assert len(result.failures) == 2
        assert all(f.kind == "exception" for f in result.failures)
        first, second = result.points
        assert first.mean_et != first.mean_et  # nan: both reps lost
        assert second.mean_et == second.mean_et  # intact knob value
