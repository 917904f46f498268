"""Tests for CE stopping criteria (Eq. (12), Fig. 2 step 4, budgets)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ce.stochastic_matrix import StochasticMatrix
from repro.ce.stopping import (
    AnyOf,
    DegenerateMatrix,
    GammaStagnation,
    IterationState,
    MaxIterations,
    RowMaximaStable,
    StopKind,
)
from repro.exceptions import ConfigurationError


def state(k: int, gamma: float, matrix: StochasticMatrix) -> IterationState:
    return IterationState(iteration=k, gamma=gamma, best_cost=gamma, matrix=matrix)


class TestRowMaximaStable:
    def test_fires_after_c_stable_iterations(self):
        crit = RowMaximaStable(c=3)
        m = StochasticMatrix.uniform(3, 3)
        results = [crit.update(state(k, 1.0, m)) for k in range(1, 6)]
        # first update has no history; stability counted from the second
        assert results == [False, False, False, True, True]

    def test_counter_resets_on_change(self):
        crit = RowMaximaStable(c=2)
        a = StochasticMatrix.uniform(2, 2)
        b = StochasticMatrix(np.array([[0.9, 0.1], [0.5, 0.5]]))
        assert not crit.update(state(1, 1.0, a))
        assert not crit.update(state(2, 1.0, a))
        assert not crit.update(state(3, 1.0, b))  # change resets
        assert not crit.update(state(4, 1.0, b))
        assert crit.update(state(5, 1.0, b))

    def test_tolerance(self):
        crit = RowMaximaStable(c=1, tol=1e-3)
        a = StochasticMatrix(np.array([[0.9, 0.1]]))
        b = StochasticMatrix(np.array([[0.9001, 0.0999]]))
        crit.update(state(1, 1.0, a))
        assert crit.update(state(2, 1.0, b))  # within tol

    def test_reset(self):
        crit = RowMaximaStable(c=1)
        m = StochasticMatrix.uniform(2, 2)
        crit.update(state(1, 1.0, m))
        crit.reset()
        assert not crit.update(state(2, 1.0, m))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RowMaximaStable(c=0)
        with pytest.raises(ConfigurationError):
            RowMaximaStable(c=1, tol=-1)

    def test_reason(self):
        assert "Eq. 12" in RowMaximaStable(c=5).reason


class TestGammaStagnation:
    def test_fires_on_constant_gamma(self):
        crit = GammaStagnation(k=3)
        m = StochasticMatrix.uniform(2, 2)
        results = [crit.update(state(i, 5.0, m)) for i in range(1, 6)]
        assert results == [False, False, False, True, True]

    def test_resets_on_progress(self):
        crit = GammaStagnation(k=2)
        m = StochasticMatrix.uniform(2, 2)
        crit.update(state(1, 5.0, m))
        crit.update(state(2, 5.0, m))
        assert not crit.update(state(3, 4.0, m))  # improvement resets
        crit.update(state(4, 4.0, m))
        assert crit.update(state(5, 4.0, m))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GammaStagnation(k=0)


class TestMaxIterations:
    def test_budget(self):
        crit = MaxIterations(3)
        m = StochasticMatrix.uniform(2, 2)
        assert not crit.update(state(2, 1.0, m))
        assert crit.update(state(3, 1.0, m))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MaxIterations(0)


class TestDegenerateMatrix:
    def test_fires_only_when_degenerate(self):
        crit = DegenerateMatrix()
        assert not crit.update(state(1, 1.0, StochasticMatrix.uniform(2, 2)))
        deg = StochasticMatrix.degenerate_from_assignment([0, 1], 2)
        assert crit.update(state(2, 1.0, deg))


class TestAnyOf:
    def test_reports_firing_member(self):
        crit = AnyOf((MaxIterations(2), GammaStagnation(k=50)))
        m = StochasticMatrix.uniform(2, 2)
        assert not crit.update(state(1, 1.0, m))
        assert crit.update(state(2, 1.0, m))
        assert "budget" in crit.reason

    def test_all_members_updated_each_round(self):
        gamma_crit = GammaStagnation(k=2)
        crit = AnyOf((MaxIterations(100), gamma_crit))
        m = StochasticMatrix.uniform(2, 2)
        for k in range(1, 4):
            crit.update(state(k, 7.0, m))
        assert gamma_crit._stable >= 2  # histories stayed warm

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            AnyOf(())

    def test_reset_propagates(self):
        inner = GammaStagnation(k=1)
        crit = AnyOf((inner,))
        m = StochasticMatrix.uniform(2, 2)
        crit.update(state(1, 1.0, m))
        crit.update(state(2, 1.0, m))
        crit.reset()
        assert inner._prev is None
        assert crit.reason == "not stopped"


class TestStopKind:
    def test_builtin_criteria_report_their_kind(self):
        assert MaxIterations(1).kind == StopKind.BUDGET
        assert RowMaximaStable(2).kind == StopKind.ROW_MAXIMA_STABLE
        assert GammaStagnation(2).kind == StopKind.GAMMA_STAGNATION
        assert DegenerateMatrix().kind == StopKind.DEGENERATE

    def test_anyof_kind_tracks_firing_member(self):
        crit = AnyOf((MaxIterations(2), GammaStagnation(k=50)))
        m = StochasticMatrix.uniform(2, 2)
        assert crit.kind == StopKind.NOT_RUN
        crit.update(state(1, 1.0, m))
        assert crit.kind == StopKind.NOT_RUN
        crit.update(state(2, 1.0, m))
        assert crit.kind == StopKind.BUDGET
        crit.reset()
        assert crit.kind == StopKind.NOT_RUN

    def test_optimizer_budget_stop_is_not_converged(self):
        from repro.ce.optimizer import CEConfig, CrossEntropyOptimizer

        result = CrossEntropyOptimizer(
            lambda X: X.sum(axis=1).astype(float),
            3,
            3,
            CEConfig(n_samples=20, max_iterations=2, stability_window=50),
            rng=0,
        ).run()
        assert result.stop_kind == StopKind.BUDGET
        assert not result.converged

    def test_optimizer_adaptive_stop_is_converged(self):
        from repro.ce.optimizer import CEConfig, CrossEntropyOptimizer

        result = CrossEntropyOptimizer(
            lambda X: X.sum(axis=1).astype(float),
            3,
            3,
            CEConfig(n_samples=60, max_iterations=200),
            rng=0,
        ).run()
        assert result.stop_kind in (
            StopKind.ROW_MAXIMA_STABLE,
            StopKind.GAMMA_STAGNATION,
            StopKind.DEGENERATE,
        )
        assert result.converged
