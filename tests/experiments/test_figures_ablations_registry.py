"""Tests for the figure harnesses, ablations and the experiment registry."""

from __future__ import annotations

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.ablations import rho_sweep, samples_sweep, sweep, zeta_sweep
from repro.experiments.figures import (
    compute_fig3,
    compute_fig7,
    compute_fig8,
    compute_fig9,
    render_fig3,
    render_series_chart,
)
from repro.experiments.registry import EXPERIMENTS, experiment_ids, run_experiment
from repro.experiments.spec import ScaleProfile
from repro.stats.comparison import SeriesBySize
from tests.experiments.conftest import BENCH_SCALE, BENCH_SEED

TINY = ScaleProfile(
    name="tiny-test-fig",
    sizes=(6,),
    n_pairs=1,
    runs_per_pair=1,
    ga_population=16,
    ga_generations=10,
    anova_runs=3,
    anova_ga_configs=((8, 10), (16, 5)),
    match_max_iterations=40,
)


class TestFig3:
    def test_frames_show_degeneration(self):
        for size, seed in ((8, 3), (10, BENCH_SEED)):
            result = compute_fig3(size=size, seed=seed, n_frames=4)
            assert result.size == size
            first, last = result.frames[0], result.frames[-1]
            # snapshots are taken post-update, so the first frame is already
            # a step away from uniform (1/n) but still far from degenerate
            assert 1 / size <= first["degeneracy"] < 0.6
            # the figure's claim: the matrix starts spread out and commits
            assert result.final_degeneracy > first["degeneracy"]
            assert last["entropy"] < first["entropy"]
            assert last["committed_rows"] >= first["committed_rows"]
            assert result.n_iterations >= 1
            assert result.best_cost > 0

    def test_render(self):
        out = render_fig3(compute_fig3(size=8, seed=3))
        assert "Figure 3 (measured)" in out
        assert "snapshot" in out
        assert "degeneracy" in out


class TestSeriesFigures:
    def test_fig7_equals_table1_data(self):
        et = compute_fig7(TINY, seed=5)
        from repro.experiments.table1 import compute_table1

        t1 = compute_table1(TINY, seed=5)
        assert et.values["MaTCH"] == t1.et_match
        assert et.values["FastMap-GA"] == t1.et_ga

    def test_fig8_is_mt(self):
        mt = compute_fig8(TINY, seed=5)
        assert mt.metric.startswith("MT")
        assert all(v > 0 for v in mt.values["MaTCH"])

    def test_fig7_et_grows_with_n(self, bench_comparison):
        et = compute_fig7(BENCH_SCALE, seed=BENCH_SEED)
        assert et == bench_comparison.et_series
        assert set(et.values) == {"MaTCH", "FastMap-GA"}
        for vals in et.values.values():
            assert vals[-1] > vals[0]

    def test_fig9_combines(self):
        et = compute_fig7(TINY, seed=5)
        mt = compute_fig8(TINY, seed=5)
        atn = compute_fig9(TINY, seed=5)
        expected = et.values["MaTCH"][0] + mt.values["MaTCH"][0]
        assert atn.values["MaTCH"][0] == pytest.approx(expected)

    def test_fig9_atn_claim(self, bench_comparison):
        atn = compute_fig9(BENCH_SCALE, seed=BENCH_SEED)
        match, ga = atn.values["MaTCH"], atn.values["FastMap-GA"]
        # Figure 9's claim: MaTCH's quality advantage outweighs its mapping
        # time at the top size, because ET dominates MT; ATN grows with n.
        assert match[-1] <= ga[-1] * 1.05
        assert match[-1] > match[0] and ga[-1] > ga[0]


class TestRenderSeriesChart:
    def test_bars_present(self):
        series = SeriesBySize(
            metric="ET",
            sizes=(10, 20),
            values={"A": (100.0, 1000.0), "B": (50.0, 200.0)},
        )
        out = render_series_chart(series, title="Demo")
        assert "Demo" in out
        assert out.count("n = ") == 2
        assert "#" in out

    def test_log_scaling_handles_wide_range(self):
        series = SeriesBySize(
            metric="x", sizes=(1,), values={"A": (1.0,), "B": (1e6,)}
        )
        out = render_series_chart(series, title="t", width=20)
        # the million-value bar is full width; the 1.0 bar is minimal
        lines = [line for line in out.splitlines() if "|" in line]
        assert lines[1].count("#") > lines[0].count("#")

    def test_all_zero_series(self):
        series = SeriesBySize(metric="x", sizes=(1,), values={"A": (0.0,)})
        out = render_series_chart(series, title="t")
        assert "no positive data" in out


class TestAblations:
    def test_rho_sweep_structure(self):
        result = rho_sweep(values=(0.05, 0.2), size=6, runs=1, seed=1)
        assert result.knob == "rho"
        assert len(result.points) == 2
        assert result.points[0].knob_value == 0.05
        assert all(p.mean_et > 0 and p.mean_mt > 0 for p in result.points)

    def test_zeta_sweep(self):
        result = zeta_sweep(values=(0.3, 1.0), size=6, runs=1, seed=1)
        assert [p.knob_value for p in result.points] == [0.3, 1.0]

    def test_samples_sweep_counts_evaluations(self):
        result = samples_sweep(multipliers=(0.5, 2.0), size=6, runs=1, seed=1)
        # larger sample rule -> more evaluations per run
        assert result.points[1].mean_evaluations > result.points[0].mean_evaluations

    def test_rho_paper_band_is_near_best(self):
        result = rho_sweep(
            values=(0.01, 0.02, 0.05, 0.1, 0.2, 0.3), size=15, runs=3, seed=BENCH_SEED
        )
        assert len(result.points) == 6
        # The paper's band 0.01 <= rho <= 0.1 is not far off the sweep's best.
        best = result.best_point().mean_et
        in_band = [p for p in result.points if 0.01 <= p.knob_value <= 0.1]
        assert min(p.mean_et for p in in_band) <= best * 1.1

    def test_zeta_trades_iterations_for_quality(self):
        result = zeta_sweep(
            values=(0.1, 0.2, 0.3, 0.5, 0.8, 1.0), size=15, runs=3, seed=BENCH_SEED
        )
        assert len(result.points) == 6
        by_zeta = {p.knob_value: p for p in result.points}
        # Heavier smoothing (smaller zeta) takes more iterations to commit...
        assert by_zeta[0.1].mean_iterations >= by_zeta[1.0].mean_iterations
        # ...and the paper's zeta = 0.3 is competitive with the best quality.
        assert by_zeta[0.3].mean_et <= result.best_point().mean_et * 1.15

    def test_samples_rule_m2_is_near_largest_budget(self):
        result = samples_sweep(
            multipliers=(0.5, 1.0, 2.0, 4.0), size=15, runs=3, seed=BENCH_SEED
        )
        assert len(result.points) == 4
        evals = [p.mean_evaluations for p in result.points]
        assert evals[-1] > evals[0]
        # The paper's N = 2n^2 is within 10% of the quality of N = 4n^2.
        by_m = {p.knob_value: p for p in result.points}
        assert by_m[2.0].mean_et <= by_m[4.0].mean_et * 1.10

    def test_best_point(self):
        result = rho_sweep(values=(0.05, 0.2), size=6, runs=1, seed=1)
        assert result.best_point().mean_et == min(p.mean_et for p in result.points)

    def test_render(self):
        out = rho_sweep(values=(0.05,), size=6, runs=1, seed=1).render()
        assert "Ablation: rho" in out

    def test_generic_sweep_custom_config(self):
        from repro.core import MatchConfig

        result = sweep(
            "gamma_window", (5, 20),
            lambda v: MatchConfig(gamma_window=int(v), n_samples=50),
            size=6, runs=1, seed=2,
        )
        assert len(result.points) == 2


class TestRegistry:
    def test_ids_cover_all_paper_artifacts(self):
        ids = experiment_ids()
        for required in ("table1", "table2", "table3", "fig3", "fig7", "fig8", "fig9"):
            assert required in ids
        assert any(i.startswith("ablation") for i in ids)

    def test_descriptions_present(self):
        for exp_id, (desc, fn) in EXPERIMENTS.items():
            assert desc and callable(fn)

    def test_unknown_id(self):
        with pytest.raises(ExperimentError, match="unknown experiment"):
            run_experiment("table99")

    def test_run_experiment_produces_text(self):
        out = run_experiment("table1", profile=TINY, seed=5)
        assert "Table 1 (measured)" in out

    def test_fig_experiment(self):
        out = run_experiment("fig7", profile=TINY, seed=5)
        assert "Figure 7" in out


class TestEliteModeSweep:
    def test_two_points(self):
        from repro.experiments.ablations import elite_mode_sweep

        result = elite_mode_sweep(size=6, runs=1, seed=2)
        assert [p.knob_value for p in result.points] == [0.0, 1.0]
        assert all(p.mean_et > 0 for p in result.points)

    def test_registered(self):
        assert "ablation-elite" in experiment_ids()
