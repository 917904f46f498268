"""Tests for repro.ce.stochastic_matrix (Eq. (11)/(13) machinery)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ce.stochastic_matrix import StochasticMatrix, elite_counts_update
from repro.exceptions import ValidationError


class TestEliteCountsUpdate:
    def test_single_elite_degenerate(self):
        Q = elite_counts_update(np.array([[0, 2, 1]]), 3, 3)
        expected = np.zeros((3, 3))
        expected[0, 0] = expected[1, 2] = expected[2, 1] = 1.0
        np.testing.assert_array_equal(Q, expected)

    def test_fractions(self):
        elites = np.array([[0, 1], [0, 0], [1, 1], [0, 1]])
        Q = elite_counts_update(elites, 2, 2)
        np.testing.assert_allclose(Q[0], [0.75, 0.25])
        np.testing.assert_allclose(Q[1], [0.25, 0.75])

    def test_rows_stochastic(self):
        rng = np.random.default_rng(0)
        elites = rng.integers(0, 7, size=(40, 5))
        Q = elite_counts_update(elites, 5, 7)
        np.testing.assert_allclose(Q.sum(axis=1), 1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            elite_counts_update(np.empty((0, 3), dtype=np.int64), 3, 3)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            elite_counts_update(np.zeros((2, 4), dtype=np.int64), 3, 3)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            elite_counts_update(np.array([[0, 5, 1]]), 3, 3)


class TestStochasticMatrix:
    def test_uniform_init(self):
        m = StochasticMatrix.uniform(4, 5)
        np.testing.assert_allclose(m.values, 0.2)
        assert m.shape == (4, 5)

    def test_uniform_invalid_dims(self):
        with pytest.raises(ValidationError):
            StochasticMatrix.uniform(0, 5)

    def test_validation_on_construction(self):
        with pytest.raises(ValidationError):
            StochasticMatrix(np.full((2, 2), 0.4))

    def test_degenerate_from_assignment(self):
        m = StochasticMatrix.degenerate_from_assignment([2, 0, 1], 3)
        assert m.is_degenerate()
        np.testing.assert_array_equal(m.values.argmax(axis=1), [2, 0, 1])

    def test_values_is_copy(self):
        m = StochasticMatrix.uniform(2, 2)
        v = m.values
        v[0, 0] = 99
        assert m.values[0, 0] == 0.5

    def test_row_maxima_uniform(self):
        m = StochasticMatrix.uniform(3, 4)
        np.testing.assert_allclose(m.row_maxima(), 0.25)

    def test_entropy_uniform_is_log_n(self):
        m = StochasticMatrix.uniform(3, 8)
        assert m.entropy() == pytest.approx(np.log(8))

    def test_entropy_degenerate_zero(self):
        m = StochasticMatrix.degenerate_from_assignment([0, 1], 2)
        assert m.entropy() == 0.0

    def test_degeneracy_bounds(self):
        uni = StochasticMatrix.uniform(4, 4)
        deg = StochasticMatrix.degenerate_from_assignment([0, 1, 2, 3], 4)
        assert uni.degeneracy() == pytest.approx(0.25)
        assert deg.degeneracy() == 1.0

    def test_copy_independent(self):
        m = StochasticMatrix.uniform(2, 2)
        c = m.copy()
        c.update_from_elites(np.array([[0, 1]]), zeta=1.0)
        assert not np.array_equal(m.values, c.values)

    def test_repr(self):
        assert "degeneracy" in repr(StochasticMatrix.uniform(2, 2))


class TestUpdateFromElites:
    def test_coarse_update_equals_counts(self):
        m = StochasticMatrix.uniform(2, 2)
        elites = np.array([[0, 1], [0, 1], [1, 0], [0, 1]])
        m.update_from_elites(elites, zeta=1.0)
        np.testing.assert_allclose(m.values[0], [0.75, 0.25])

    def test_smoothed_update_is_convex_blend(self):
        m = StochasticMatrix.uniform(2, 2)
        elites = np.array([[0, 1]])
        m.update_from_elites(elites, zeta=0.3)
        # 0.3 * [1,0] + 0.7 * [0.5,0.5] = [0.65, 0.35]
        np.testing.assert_allclose(m.values[0], [0.65, 0.35])

    def test_rows_remain_stochastic_after_many_updates(self):
        rng = np.random.default_rng(1)
        m = StochasticMatrix.uniform(6, 6)
        for _ in range(200):
            elites = rng.integers(0, 6, size=(8, 6))
            m.update_from_elites(elites, zeta=0.3)
            np.testing.assert_allclose(m.values.sum(axis=1), 1.0, rtol=1e-12)

    def test_invalid_zeta(self):
        m = StochasticMatrix.uniform(2, 2)
        with pytest.raises(ValidationError):
            m.update_from_elites(np.array([[0, 1]]), zeta=0.0)
        with pytest.raises(ValidationError):
            m.update_from_elites(np.array([[0, 1]]), zeta=1.5)

    def test_repeated_identical_elites_converge_to_degenerate(self):
        """The Fig. 3 limit: constant elites drive P to the 0/1 matrix."""
        m = StochasticMatrix.uniform(3, 3)
        elite = np.array([[2, 0, 1]])
        for _ in range(200):
            m.update_from_elites(elite, zeta=0.3)
        assert m.is_degenerate(tol=1e-9)
        np.testing.assert_array_equal(m.values.argmax(axis=1), [2, 0, 1])


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    n_elites=st.integers(min_value=1, max_value=20),
    zeta=st.floats(min_value=0.01, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_property_update_preserves_stochasticity(n, n_elites, zeta, seed):
    """Any elite batch and any ζ keep the matrix row-stochastic with
    entries in [0, 1]."""
    rng = np.random.default_rng(seed)
    m = StochasticMatrix.uniform(n, n)
    elites = rng.integers(0, n, size=(n_elites, n))
    m.update_from_elites(elites, zeta=zeta)
    v = m.values
    assert np.all(v >= 0) and np.all(v <= 1 + 1e-12)
    np.testing.assert_allclose(v.sum(axis=1), 1.0, rtol=1e-12)
