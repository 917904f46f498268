"""Tests for elite selection (quantile) and smoothing.

Eq. (13) smoothing is tested here through ``stacked_elite_update``, the
multi-chain engine's update; the single-matrix
``StochasticMatrix.update_from_elites`` is covered in
``test_stochastic_matrix.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ce.quantile import elite_mask, elite_threshold, select_elites, select_top_k
from repro.ce.stochastic_matrix import elite_counts_update, stacked_elite_update
from repro.exceptions import ValidationError


class TestEliteThreshold:
    def test_basic_quantile(self):
        costs = np.array([10.0, 1.0, 5.0, 3.0, 8.0])
        # rho=0.4 of 5 -> k=2 -> 2nd smallest = 3
        assert elite_threshold(costs, 0.4) == 3.0

    def test_at_least_one_kept(self):
        costs = np.array([4.0, 2.0, 9.0])
        assert elite_threshold(costs, 0.0001) == 2.0

    def test_rho_one_keeps_all(self):
        costs = np.array([4.0, 2.0, 9.0])
        assert elite_threshold(costs, 1.0) == 9.0

    def test_invalid_rho(self):
        with pytest.raises(ValidationError):
            elite_threshold(np.array([1.0]), 0.0)
        with pytest.raises(ValidationError):
            elite_threshold(np.array([1.0]), 1.5)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            elite_threshold(np.array([]), 0.5)

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            elite_threshold(np.array([1.0, np.nan]), 0.5)


class TestSelectElites:
    def test_indices_below_threshold(self):
        costs = np.array([10.0, 1.0, 5.0, 3.0, 8.0])
        gamma, idx = select_elites(costs, 0.4)
        assert gamma == 3.0
        np.testing.assert_array_equal(np.sort(idx), [1, 3])

    def test_ties_included(self):
        costs = np.array([2.0, 2.0, 2.0, 9.0])
        gamma, idx = select_elites(costs, 0.25)
        assert gamma == 2.0
        assert idx.size == 3  # all ties kept

    def test_mask_consistency(self):
        costs = np.random.default_rng(0).uniform(0, 10, 50)
        gamma, idx = select_elites(costs, 0.1)
        np.testing.assert_array_equal(np.flatnonzero(elite_mask(costs, gamma)), idx)


class TestSelectTopK:
    def test_exact_count(self):
        costs = np.array([2.0, 2.0, 2.0, 9.0])
        gamma, idx = select_top_k(costs, 0.25)
        assert idx.size == 1  # exactly ceil(0.25*4)
        assert costs[idx[0]] == 2.0

    def test_selects_the_best(self):
        rng = np.random.default_rng(1)
        costs = rng.uniform(0, 100, 40)
        gamma, idx = select_top_k(costs, 0.1)
        k = 4
        assert idx.size == k
        assert set(costs[idx]) == set(np.sort(costs)[:k])
        assert gamma == np.sort(costs)[k - 1]

    def test_validation(self):
        with pytest.raises(ValidationError):
            select_top_k(np.array([]), 0.5)
        with pytest.raises(ValidationError):
            select_top_k(np.array([np.nan]), 0.5)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=200),
        rho=st.floats(min_value=0.001, max_value=1.0),
        seed=st.integers(0, 10**6),
    )
    def test_property_size_and_optimality(self, n, rho, seed):
        costs = np.random.default_rng(seed).uniform(0, 1, n)
        gamma, idx = select_top_k(costs, rho)
        k = max(1, int(np.ceil(rho * n)))
        assert idx.size == k
        assert costs[idx].max() == gamma
        # No non-elite is strictly better than the worst elite.
        non_elite = np.setdiff1d(np.arange(n), idx)
        if non_elite.size:
            assert costs[non_elite].min() >= gamma - 1e-12


class TestSmoothing:
    def test_convex_combination(self):
        P = np.array([[[0.5, 0.5]]])
        out = stacked_elite_update(P, np.array([[0]]), np.array([1]), zeta=0.3)
        # 0.3 * [1, 0] + 0.7 * [0.5, 0.5]
        np.testing.assert_allclose(out, [[[0.65, 0.35]]])

    def test_zeta_one_returns_update(self):
        P = np.array([[[0.5, 0.5]]])
        elites = np.array([[0], [0], [1], [0]])
        out = stacked_elite_update(P, elites, np.array([4]), zeta=1.0)
        np.testing.assert_allclose(out[0], elite_counts_update(elites, 1, 2))

    def test_shape_mismatch(self):
        P = np.ones((1, 2, 2)) / 2
        with pytest.raises(ValidationError):
            stacked_elite_update(P, np.zeros((1, 3), dtype=np.int64), np.array([1]), zeta=0.5)

    def test_invalid_zeta(self):
        P = np.array([[[1.0]]])
        with pytest.raises(ValidationError):
            stacked_elite_update(P, np.array([[0]]), np.array([1]), zeta=0.0)

    def test_stochasticity_preserved(self):
        rng = np.random.default_rng(0)
        P = rng.dirichlet(np.ones(5), size=(3, 4))
        sizes = np.array([2, 3, 1])
        elites = rng.integers(0, 5, size=(int(sizes.sum()), 4))
        out = stacked_elite_update(P, elites, sizes, zeta=0.4)
        np.testing.assert_allclose(out.sum(axis=2), 1.0)
