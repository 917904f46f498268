"""Tests for the FastMap-GA operators (§5.1, Fig. 6) — permutation safety."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.ga_operators import (
    fitness,
    roulette_select,
    single_point_crossover,
    swap_mutation,
)
from repro.exceptions import ValidationError
from repro.utils.validation import is_permutation


def random_population(m: int, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack([rng.permutation(n) for _ in range(m)]).astype(np.int64)


class TestFitness:
    def test_reciprocal_ordering(self):
        f = fitness(np.array([10.0, 5.0, 20.0]))
        assert f[1] > f[0] > f[2]

    def test_constant_k_scales_only(self):
        costs = np.array([2.0, 4.0])
        a = fitness(costs, k_const=1.0)
        b = fitness(costs, k_const=7.0)
        np.testing.assert_allclose(b / a, 7.0)

    def test_nonpositive_cost_rejected(self):
        with pytest.raises(ValidationError):
            fitness(np.array([1.0, 0.0]))

    def test_bad_k(self):
        with pytest.raises(ValidationError):
            fitness(np.array([1.0]), k_const=-1.0)

    def test_costs_near_float64_limit_keep_roulette_finite(self):
        # 16 costs of ~1e307 overflow the mean's sum; the fallback keeps
        # every fitness in (0, 1] and the selection probabilities intact.
        costs = np.array([1e307, 2e307, 4e307, 8e307] * 4)
        with np.errstate(all="raise"):
            f = fitness(costs)
            roulette_select(f, 8, 0)
        assert np.all((f > 0) & (f <= 1.0))
        plain = fitness(costs / 1e300)
        np.testing.assert_allclose(f / f.sum(), plain / plain.sum(), rtol=1e-12)


class TestRoulette:
    def test_shapes(self):
        i1, i2 = roulette_select(np.ones(10), 25, 0)
        assert i1.shape == (25,) and i2.shape == (25,)
        assert i1.max() < 10 and i1.min() >= 0

    def test_fitness_proportional(self):
        f = np.array([1.0, 0.0, 9.0])
        i1, _ = roulette_select(f, 5000, 1)
        counts = np.bincount(i1, minlength=3) / 5000
        assert counts[1] == 0.0
        assert abs(counts[2] - 0.9) < 0.03

    def test_validation(self):
        with pytest.raises(ValidationError):
            roulette_select(np.array([]), 5, 0)
        with pytest.raises(ValidationError):
            roulette_select(np.array([-1.0, 2.0]), 5, 0)
        with pytest.raises(ValidationError):
            roulette_select(np.zeros(3), 5, 0)


class TestCrossover:
    def test_children_are_permutations(self):
        pop = random_population(60, 11, 0)
        rng = np.random.default_rng(1)
        p1 = pop[rng.integers(0, 60, 60)]
        p2 = pop[rng.integers(0, 60, 60)]
        children = single_point_crossover(p1, p2, 2, p_crossover=1.0)
        assert all(is_permutation(c, 11) for c in children)

    def test_first_half_from_parent1(self):
        p1 = np.array([[0, 1, 2, 3, 4, 5]])
        p2 = np.array([[5, 4, 3, 2, 1, 0]])
        child = single_point_crossover(p1, p2, 0, p_crossover=1.0)[0]
        np.testing.assert_array_equal(child[:3], [0, 1, 2])
        assert is_permutation(child, 6)

    def test_non_duplicating_second_half_kept(self):
        p1 = np.array([[0, 1, 2, 3]])
        p2 = np.array([[1, 0, 3, 2]])
        # p1 first half {0,1}; p2 second half (3,2) has no duplicates -> kept
        child = single_point_crossover(p1, p2, 0, p_crossover=1.0)[0]
        np.testing.assert_array_equal(child, [0, 1, 3, 2])

    def test_duplicate_repaired_in_order(self):
        p1 = np.array([[0, 1, 2, 3]])
        p2 = np.array([[2, 3, 0, 1]])
        # p2 second half (0, 1) both duplicate {0,1}; pool from p2 first
        # half in order: 2 is used? child first half = [0,1]; pool = [2,3]
        # (both unused). Positions 2,3 get 2,3.
        child = single_point_crossover(p1, p2, 0, p_crossover=1.0)[0]
        np.testing.assert_array_equal(child, [0, 1, 2, 3])

    def test_p_zero_copies_parent1(self):
        p1 = random_population(10, 8, 3)
        p2 = random_population(10, 8, 4)
        children = single_point_crossover(p1, p2, 5, p_crossover=0.0)
        np.testing.assert_array_equal(children, p1)

    def test_single_gene_noop(self):
        p = np.zeros((4, 1), dtype=np.int64)
        np.testing.assert_array_equal(
            single_point_crossover(p, p, 0, p_crossover=1.0), p
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            single_point_crossover(np.zeros((2, 3)), np.zeros((3, 3)), 0)

    def test_invalid_probability(self):
        p = random_population(2, 4, 0)
        with pytest.raises(ValidationError):
            single_point_crossover(p, p, 0, p_crossover=1.5)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=20),
        m=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_property_crossover_closed_over_permutations(self, n, m, seed):
        """The repair rule always restores a permutation (the counting
        argument in the operator docstring)."""
        rng = np.random.default_rng(seed)
        p1 = np.stack([rng.permutation(n) for _ in range(m)])
        p2 = np.stack([rng.permutation(n) for _ in range(m)])
        children = single_point_crossover(p1, p2, rng, p_crossover=1.0)
        for c in children:
            assert is_permutation(c, n)


class TestMutation:
    def test_preserves_permutations(self):
        pop = random_population(50, 12, 5)
        out = swap_mutation(pop, 1, p_mutation=0.3)
        assert all(is_permutation(c, 12) for c in out)

    def test_p_zero_identity(self):
        pop = random_population(10, 6, 2)
        np.testing.assert_array_equal(swap_mutation(pop, 0, p_mutation=0.0), pop)

    def test_p_one_changes_most_rows(self):
        pop = random_population(30, 10, 3)
        out = swap_mutation(pop, 4, p_mutation=1.0)
        changed = (out != pop).any(axis=1).mean()
        assert changed > 0.8

    def test_input_not_mutated(self):
        pop = random_population(5, 8, 1)
        backup = pop.copy()
        swap_mutation(pop, 0, p_mutation=1.0)
        np.testing.assert_array_equal(pop, backup)

    def test_single_gene_rows_unchanged(self):
        pop = np.zeros((3, 1), dtype=np.int64)
        np.testing.assert_array_equal(swap_mutation(pop, 0, p_mutation=1.0), pop)

    def test_invalid_probability(self):
        with pytest.raises(ValidationError):
            swap_mutation(random_population(2, 4, 0), 0, p_mutation=-0.1)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=15),
        pm=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_property_mutation_closed_over_permutations(self, n, pm, seed):
        rng = np.random.default_rng(seed)
        pop = np.stack([rng.permutation(n) for _ in range(10)])
        out = swap_mutation(pop, rng, p_mutation=pm)
        for c in out:
            assert is_permutation(c, n)
