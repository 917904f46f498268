"""Tests for the generic CE optimizer (Fig. 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ce.optimizer import CEConfig, CrossEntropyOptimizer
from repro.exceptions import ConfigurationError


def linear_objective(target: np.ndarray):
    """Counts mismatches against a target assignment (min = 0 at target)."""

    def fn(X: np.ndarray) -> np.ndarray:
        return (X != target[np.newaxis, :]).sum(axis=1).astype(float)

    return fn


class TestCEConfigValidation:
    def test_defaults_valid(self):
        CEConfig(n_samples=100)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_samples": 1},
            {"n_samples": 10, "rho": 0.0},
            {"n_samples": 10, "rho": 1.0},
            {"n_samples": 10, "zeta": 0.0},
            {"n_samples": 10, "zeta": 1.2},
            {"n_samples": 10, "stability_window": -1},
            {"n_samples": 10, "stability_tol": -1},
            {"n_samples": 10, "gamma_window": -1},
            {"n_samples": 10, "elite_mode": "weird"},
            {"n_samples": 10, "max_iterations": 0},
            {"n_samples": 10, "matrix_snapshot_every": 0},
        ],
    )
    def test_invalid_configs(self, kwargs):
        # range checks raise ValidationError, structural checks raise
        # ConfigurationError; both are ValueError subclasses by design.
        with pytest.raises(ValueError):
            CEConfig(**kwargs)


class TestOptimizerConstruction:
    def test_permutation_needs_square_or_wide(self):
        cfg = CEConfig(n_samples=10)
        with pytest.raises(ConfigurationError, match="n_rows <= n_cols"):
            CrossEntropyOptimizer(lambda X: np.zeros(len(X)), 5, 3, cfg)

    def test_unknown_sampler(self):
        cfg = CEConfig(n_samples=10)
        with pytest.raises(ConfigurationError, match="sampler"):
            CrossEntropyOptimizer(lambda X: np.zeros(len(X)), 3, 3, cfg, sampler="xxx")

    def test_custom_sampler_callable(self):
        cfg = CEConfig(n_samples=10, max_iterations=2, gamma_window=0,
                       stability_window=0)
        calls = []

        def sampler(P, n, rng):
            calls.append(n)
            return np.tile(np.arange(3), (n, 1))

        opt = CrossEntropyOptimizer(
            lambda X: np.zeros(len(X)), 3, 3, cfg, sampler=sampler
        )
        opt.run()
        assert calls and all(c == 10 for c in calls)

    def test_objective_shape_checked(self):
        cfg = CEConfig(n_samples=10, max_iterations=1)
        opt = CrossEntropyOptimizer(lambda X: np.zeros(X.shape[0] + 1), 3, 3, cfg)
        with pytest.raises(ConfigurationError, match="objective returned"):
            opt.run()


class TestOptimizerConvergence:
    def test_finds_planted_optimum_permutation_sampler(self):
        target = np.random.default_rng(3).permutation(8)
        cfg = CEConfig(n_samples=300, rho=0.05, zeta=0.5, max_iterations=150)
        opt = CrossEntropyOptimizer(linear_objective(target), 8, 8, cfg, rng=1)
        res = opt.run()
        assert res.best_cost == 0.0

    def test_beats_equal_budget_random_on_mapping(self, small_problem, small_model):
        cfg = CEConfig(n_samples=288, max_iterations=150)
        opt = CrossEntropyOptimizer(
            small_model.evaluate_batch, 12, 12, cfg, rng=5
        )
        res = opt.run()
        rng = np.random.default_rng(0)
        rand_best = min(
            small_model.evaluate(rng.permutation(12))
            for _ in range(min(res.n_evaluations, 20000))
        )
        assert res.best_cost <= rand_best

    def test_histories_recorded(self, small_model):
        cfg = CEConfig(n_samples=100, max_iterations=50)
        res = CrossEntropyOptimizer(
            small_model.evaluate_batch, 12, 12, cfg, rng=2
        ).run()
        n = res.n_iterations
        assert len(res.gamma_history) == n
        assert len(res.best_cost_history) == n
        assert len(res.degeneracy_history) == n
        assert len(res.entropy_history) == n
        # best-so-far is monotone non-increasing
        assert all(
            b <= a + 1e-12
            for a, b in zip(res.best_cost_history, res.best_cost_history[1:])
        )
        # degeneracy should have increased from uniform
        assert res.degeneracy_history[-1] > res.degeneracy_history[0]

    def test_matrix_tracking(self, small_model):
        cfg = CEConfig(
            n_samples=100, max_iterations=30, track_matrices=True,
            matrix_snapshot_every=5,
        )
        res = CrossEntropyOptimizer(
            small_model.evaluate_batch, 12, 12, cfg, rng=2
        ).run()
        assert res.matrix_history
        # last snapshot is the final matrix
        np.testing.assert_array_equal(res.matrix_history[-1], res.final_matrix)

    def test_stop_reason_budget(self, small_model):
        cfg = CEConfig(
            n_samples=50, max_iterations=2, gamma_window=0, stability_window=0
        )
        res = CrossEntropyOptimizer(
            small_model.evaluate_batch, 12, 12, cfg, rng=2
        ).run()
        assert res.n_iterations == 2
        assert "budget" in res.stop_reason
        assert not res.converged

    def test_deterministic_runs(self, small_model):
        cfg = CEConfig(n_samples=100, max_iterations=40)
        r1 = CrossEntropyOptimizer(small_model.evaluate_batch, 12, 12, cfg, rng=9).run()
        r2 = CrossEntropyOptimizer(small_model.evaluate_batch, 12, 12, cfg, rng=9).run()
        assert r1.best_cost == r2.best_cost
        np.testing.assert_array_equal(r1.best_assignment, r2.best_assignment)
        assert r1.gamma_history == r2.gamma_history

    def test_n_evaluations_accounting(self, small_model):
        cfg = CEConfig(n_samples=64, max_iterations=10, gamma_window=0,
                       stability_window=0)
        res = CrossEntropyOptimizer(
            small_model.evaluate_batch, 12, 12, cfg, rng=0
        ).run()
        assert res.n_evaluations == 64 * res.n_iterations

    def test_threshold_elite_mode_runs(self, small_model):
        cfg = CEConfig(n_samples=100, max_iterations=40, elite_mode="threshold")
        res = CrossEntropyOptimizer(
            small_model.evaluate_batch, 12, 12, cfg, rng=4
        ).run()
        assert res.best_cost > 0

    def test_permutation_sampler_outputs_remain_valid(self, small_problem, small_model):
        """Every assignment the optimizer returns is one-to-one."""
        cfg = CEConfig(n_samples=100, max_iterations=60)
        res = CrossEntropyOptimizer(
            small_model.evaluate_batch, 12, 12, cfg, rng=6
        ).run()
        assert small_problem.is_one_to_one(res.best_assignment)
