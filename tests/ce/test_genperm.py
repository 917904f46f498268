"""Tests for the GenPerm sampler (Fig. 4) — validity and distribution."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ce.genperm import sample_permutations, sample_permutations_stacked
from repro.ce.stochastic_matrix import StochasticMatrix
from repro.exceptions import ValidationError
from repro.utils.validation import is_permutation


class TestSamplePermutationsValidity:
    def test_always_permutations(self):
        P = StochasticMatrix.uniform(8, 8).values
        X = sample_permutations(P, 200, 0)
        assert X.shape == (200, 8)
        assert all(is_permutation(row, 8) for row in X)

    def test_deterministic_given_seed(self):
        P = StochasticMatrix.uniform(6, 6).values
        np.testing.assert_array_equal(
            sample_permutations(P, 50, 42), sample_permutations(P, 50, 42)
        )

    def test_rectangular_one_to_one(self):
        P = np.full((3, 6), 1.0 / 6)
        X = sample_permutations(P, 100, 1)
        assert X.shape == (100, 3)
        for row in X:
            assert len(set(row.tolist())) == 3
            assert row.min() >= 0 and row.max() < 6

    def test_too_many_tasks_rejected(self):
        P = np.full((5, 3), 1.0 / 3)
        with pytest.raises(ValidationError, match="n_tasks <= n_resources"):
            sample_permutations(P, 10, 0)

    def test_negative_entries_rejected(self):
        P = np.array([[1.1, -0.1], [0.5, 0.5]])
        with pytest.raises(ValidationError, match="negative"):
            sample_permutations(P, 5, 0)

    def test_invalid_n_samples(self):
        P = StochasticMatrix.uniform(3, 3).values
        with pytest.raises(ValidationError):
            sample_permutations(P, 0, 0)

    def test_single_task(self):
        X = sample_permutations(np.array([[1.0]]), 10, 0)
        np.testing.assert_array_equal(X, np.zeros((10, 1), dtype=np.int64))


class TestSamplePermutationsDistribution:
    def test_degenerate_matrix_reproduces_assignment(self):
        """A fully degenerate P must always emit its encoded permutation."""
        perm = np.array([3, 0, 2, 1])
        P = StochasticMatrix.degenerate_from_assignment(perm, 4).values
        X = sample_permutations(P, 100, 7)
        assert np.all(X == perm)

    def test_biased_row_prefers_its_resource(self):
        """When only task 0 carries mass on resource 0, it always gets it."""
        n = 5
        P = np.zeros((n, n))
        P[0, 0] = 1.0  # task 0 insists on resource 0
        P[1:, 1:] = 1.0 / (n - 1)  # others never ask for resource 0
        X = sample_permutations(P, 400, 3)
        assert np.all(X[:, 0] == 0)

    def test_soft_bias_raises_frequency(self):
        """A soft bias towards one resource raises its selection frequency
        above the uniform 1/n rate even under contention."""
        n = 5
        P = np.full((n, n), 1.0 / n)
        P[0] = 0.04
        P[0, 0] = 1.0 - 0.04 * (n - 1)  # 84% preference
        X = sample_permutations(P, 2000, 3)
        freq = (X[:, 0] == 0).mean()
        assert freq > 0.5  # far above the 0.2 uniform rate

    def test_conflicting_degenerate_rows_still_valid(self):
        """Two tasks both insisting on resource 0: GenPerm must fall back
        and still emit valid one-to-one mappings."""
        P = np.zeros((3, 3))
        P[:, 0] = 1.0
        X = sample_permutations(P, 100, 5)
        assert all(is_permutation(row, 3) for row in X)
        # resource 0 is always taken by someone
        assert np.all((X == 0).sum(axis=1) == 1)

    def test_uniform_matrix_uniform_marginals(self):
        """Under uniform P, each (task, resource) cell should appear with
        frequency ~ 1/n."""
        n = 6
        P = StochasticMatrix.uniform(n, n).values
        X = sample_permutations(P, 6000, 11)
        counts = np.zeros((n, n))
        for j in range(n):
            counts[j] = np.bincount(X[:, j], minlength=n)
        freq = counts / 6000
        assert np.abs(freq - 1.0 / n).max() < 0.035

    def test_explicit_task_orders_respected(self):
        """With a fixed visit order and a deterministic matrix, the first
        visited task gets its preferred resource."""
        P = np.array(
            [
                [0.5, 0.5, 0.0],
                [1.0, 0.0, 0.0],  # task 1 wants resource 0
                [1.0 / 3, 1.0 / 3, 1.0 / 3],
            ]
        )
        # Order uniforms whose argsort is the visit order [1, 0, 2].
        rand_orders = np.tile([0.5, 0.1, 0.9], (1, 50, 1))
        rand_pos = np.random.default_rng(9).random((1, 3, 50))
        X = sample_permutations_stacked(P[np.newaxis], rand_orders, rand_pos)[0]
        assert np.all(X[:, 1] == 0)  # task 1 visited first, always gets r0

    def test_bad_task_orders_shape(self):
        P = StochasticMatrix.uniform(3, 3).values[np.newaxis]
        with pytest.raises(ValidationError, match="rand_orders"):
            sample_permutations_stacked(P, np.zeros((1, 4)), np.zeros((1, 3, 4)))
        with pytest.raises(ValidationError, match="rand_pos"):
            sample_permutations_stacked(P, np.zeros((1, 4, 3)), np.zeros((1, 4, 3)))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    n_samples=st.integers(min_value=1, max_value=50),
    seed=st.integers(min_value=0, max_value=10**6),
    concentration=st.floats(min_value=0.1, max_value=10.0),
)
def test_property_genperm_always_one_to_one(n, n_samples, seed, concentration):
    """For any Dirichlet-random stochastic matrix, every GenPerm sample is a
    valid permutation."""
    rng = np.random.default_rng(seed)
    P = rng.dirichlet(np.full(n, concentration), size=n)
    X = sample_permutations(P, n_samples, rng)
    for row in X:
        assert is_permutation(row, n)


class TestExactDistribution:
    """Validate the sampler against the exact Fig. 4 semantics."""

    def test_hand_computed_two_by_two(self):
        from repro.ce.genperm import genperm_exact_probabilities

        P = np.array([[0.8, 0.2], [0.5, 0.5]])
        exact = genperm_exact_probabilities(P)
        # order (0,1): task 0 picks r0 w.p. 0.8; order (1,0): task 1 picks
        # r1 w.p. 0.5 leaving r0 for task 0. P([0,1]) = .5*.8 + .5*.5.
        assert exact[(0, 1)] == pytest.approx(0.65)
        assert exact[(1, 0)] == pytest.approx(0.35)

    def test_distribution_sums_to_one(self):
        from repro.ce.genperm import genperm_exact_probabilities

        rng = np.random.default_rng(4)
        P = rng.dirichlet(np.ones(4), size=4)
        exact = genperm_exact_probabilities(P)
        assert sum(exact.values()) == pytest.approx(1.0)
        assert len(exact) <= 24

    def test_sampler_matches_exact_distribution(self):
        """Empirical GenPerm frequencies match the enumeration oracle on a
        random 3x3 matrix (tolerance ~4 sigma of the multinomial)."""
        from repro.ce.genperm import genperm_exact_probabilities

        rng = np.random.default_rng(9)
        P = rng.dirichlet(np.ones(3) * 2, size=3)
        exact = genperm_exact_probabilities(P)
        N = 60_000
        X = sample_permutations(P, N, 11)
        counts: dict[tuple[int, ...], int] = {}
        for row in X:
            key = tuple(int(v) for v in row)
            counts[key] = counts.get(key, 0) + 1
        for perm, p in exact.items():
            emp = counts.get(perm, 0) / N
            sigma = np.sqrt(p * (1 - p) / N)
            assert abs(emp - p) < max(4 * sigma, 1e-3), (perm, p, emp)

    def test_degenerate_matrix_exact(self):
        from repro.ce.genperm import genperm_exact_probabilities
        from repro.ce.stochastic_matrix import StochasticMatrix

        P = StochasticMatrix.degenerate_from_assignment([2, 0, 1], 3).values
        exact = genperm_exact_probabilities(P)
        assert exact[(2, 0, 1)] == pytest.approx(1.0)

    def test_size_guard(self):
        from repro.ce.genperm import genperm_exact_probabilities
        from repro.exceptions import ValidationError

        P = np.full((9, 9), 1.0 / 9)
        with pytest.raises(ValidationError, match="n <= 8"):
            genperm_exact_probabilities(P)

    def test_rectangular_rejected(self):
        from repro.ce.genperm import genperm_exact_probabilities
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError, match="square"):
            genperm_exact_probabilities(np.full((2, 3), 1.0 / 3))
