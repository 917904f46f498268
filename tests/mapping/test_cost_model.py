"""Tests for the Eq. (1)/(2) cost model: hand-checked values, reference vs
vectorized agreement, batch semantics."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ce.genperm import sample_permutations
from repro.graphs import generate_paper_pair, generate_resource_graph, generate_tig
from repro.mapping import (
    CostModel,
    MappingProblem,
    evaluate_reference,
    per_resource_times_reference,
)


class TestHandChecked:
    """Values worked out by hand for the 3×3 ``known_problem`` fixture."""

    def test_identity_mapping(self, known_problem):
        # Exec_0 = 2*1 + 10*5 = 52
        # Exec_1 = 3*2 + 10*5 + 20*3 = 116
        # Exec_2 = 1*4 + 20*3 = 64
        times = per_resource_times_reference(known_problem, np.array([0, 1, 2]))
        np.testing.assert_allclose(times, [52.0, 116.0, 64.0])
        assert evaluate_reference(known_problem, np.array([0, 1, 2])) == 116.0

    def test_rotated_mapping(self, known_problem):
        # x = [2, 0, 1]: Exec_2 = 18, Exec_0 = 113, Exec_1 = 102
        times = per_resource_times_reference(known_problem, np.array([2, 0, 1]))
        np.testing.assert_allclose(np.sort(times), [18.0, 102.0, 113.0])
        assert evaluate_reference(known_problem, np.array([2, 0, 1])) == 113.0

    def test_vectorized_matches_hand_values(self, known_problem):
        model = CostModel(known_problem)
        np.testing.assert_allclose(
            model.per_resource_times(np.array([0, 1, 2])), [52.0, 116.0, 64.0]
        )
        assert model.evaluate(np.array([2, 0, 1])) == 113.0

    def test_exhaustive_optimum(self, known_problem):
        """Enumerate all 6 permutations; optimizers may never beat this."""
        model = CostModel(known_problem)
        costs = {
            perm: model.evaluate(np.array(perm))
            for perm in itertools.permutations(range(3))
        }
        best = min(costs.values())
        assert best <= 116.0
        # the batch evaluator agrees on the full enumeration
        batch = np.array(list(costs.keys()))
        np.testing.assert_allclose(
            CostModel(known_problem).evaluate_batch(batch), list(costs.values())
        )


class TestCoLocation:
    def test_same_resource_no_comm(self):
        """Tasks sharing a resource exchange data for free (Eq. (1))."""
        tig = generate_tig(4, 0)
        res = generate_resource_graph(4, 0)
        problem = MappingProblem(tig, res)
        model = CostModel(problem)
        all_on_zero = np.zeros(4, dtype=np.int64)
        times = model.per_resource_times(all_on_zero)
        expected = tig.computation_weights.sum() * res.processing_weights[0]
        assert times[0] == pytest.approx(expected)
        np.testing.assert_allclose(times[1:], 0.0)

    def test_comm_charged_to_both_sides(self, known_problem):
        """Each remote edge appears in both endpoint resources' times."""
        times = per_resource_times_reference(known_problem, np.array([0, 1, 2]))
        # edge (0,1): 50 in Exec_0 and 50 in Exec_1 (symmetric link cost)
        assert times[0] - 2.0 == 50.0  # comm part of r0
        assert times[1] - 6.0 == 110.0  # comm part of r1 = 50 + 60


class TestReferenceVsVectorized:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_permutations_agree(self, small_problem, small_model, seed):
        rng = np.random.default_rng(seed)
        for _ in range(10):
            x = rng.permutation(12)
            assert small_model.evaluate(x) == pytest.approx(
                evaluate_reference(small_problem, x), rel=1e-12
            )

    def test_non_bijective_agree(self, small_problem, small_model):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.integers(0, 12, size=12)
            np.testing.assert_allclose(
                small_model.per_resource_times(x),
                per_resource_times_reference(small_problem, x),
            )

    def test_rectangular_problem(self):
        tig = generate_tig(5, 1)
        res = generate_resource_graph(8, 1)
        problem = MappingProblem(tig, res)
        model = CostModel(problem)
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.choice(8, size=5, replace=False)
            assert model.evaluate(x) == pytest.approx(
                evaluate_reference(problem, x)
            )


class TestBatch:
    def test_batch_matches_single(self, small_model):
        rng = np.random.default_rng(7)
        X = np.stack([rng.permutation(12) for _ in range(64)])
        batch = small_model.evaluate_batch(X)
        singles = np.array([small_model.evaluate(x) for x in X])
        np.testing.assert_allclose(batch, singles)

    def test_single_row_batch(self, small_model):
        x = np.arange(12)
        assert small_model.evaluate_batch(x)[0] == small_model.evaluate(x)

    def test_per_resource_batch_shape(self, small_model):
        X = np.stack([np.arange(12)] * 5)
        out = small_model.per_resource_times_batch(X)
        assert out.shape == (5, 12)
        assert np.allclose(out, out[0])  # identical rows

    def test_wrong_columns_rejected(self, small_model):
        with pytest.raises(ValueError, match="columns"):
            small_model.evaluate_batch(np.zeros((3, 5), dtype=np.int64))

    def test_out_of_range_rejected(self, small_model):
        X = np.full((2, 12), 99, dtype=np.int64)
        with pytest.raises(ValueError, match="out-of-range"):
            small_model.evaluate_batch(X)

    def test_large_batch(self, small_model):
        rng = np.random.default_rng(11)
        X = rng.integers(0, 12, size=(2000, 12))
        costs = small_model.evaluate_batch(X)
        assert costs.shape == (2000,)
        assert np.all(costs > 0)


class TestBreakdown:
    def test_components_sum(self, small_model):
        x = np.random.default_rng(0).permutation(12)
        b = small_model.breakdown(x)
        assert b["execution_time"] == pytest.approx(small_model.evaluate(x))
        assert b["busiest_compute"] + b["busiest_comm"] == pytest.approx(
            b["execution_time"]
        )
        assert b["imbalance"] >= 1.0

    def test_total_compute_invariant_across_permutations(self):
        """With homogeneous resources total compute is mapping-invariant."""
        tig = generate_tig(8, 3)
        res = generate_resource_graph(8, 3, node_weight_range=(2, 2))
        model = CostModel(MappingProblem(tig, res))
        rng = np.random.default_rng(1)
        totals = {
            model.breakdown(rng.permutation(8))["total_compute"] for _ in range(5)
        }
        assert len(totals) == 1


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=15),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_property_reference_equals_vectorized(n, seed):
    """For random instances and random assignments, the two implementations
    of Eq. (1) agree exactly."""
    pair = generate_paper_pair(n, seed)
    problem = MappingProblem(pair.tig, pair.resources)
    model = CostModel(problem)
    rng = np.random.default_rng(seed + 1)
    x = rng.integers(0, n, size=n)
    np.testing.assert_allclose(
        model.per_resource_times(x),
        per_resource_times_reference(problem, x),
        rtol=1e-12,
    )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_property_cost_positive_and_max(seed):
    """Eq. (2) is the max of Eq. (1); always positive for non-trivial TIGs."""
    pair = generate_paper_pair(8, seed)
    problem = MappingProblem(pair.tig, pair.resources)
    model = CostModel(problem)
    x = np.random.default_rng(seed).permutation(8)
    times = model.per_resource_times(x)
    assert model.evaluate(x) == times.max()
    assert model.evaluate(x) > 0


def degenerate_batch(problem, n_rows: int, seed: int) -> np.ndarray:
    """A batch with heavy duplication, like late CE iterations produce."""
    distinct = sample_permutations(
        np.full((problem.n_tasks, problem.n_resources), 1.0 / problem.n_resources),
        max(1, n_rows // 6),
        rng=seed,
    )
    reps = -(-n_rows // distinct.shape[0])
    batch = np.tile(distinct, (reps, 1))[:n_rows]
    np.random.default_rng(seed + 1).shuffle(batch)
    return batch


class TestChunkedBatchScoring:
    def test_matches_per_row_reference(self, small_problem):
        model = CostModel(small_problem)
        batch = degenerate_batch(small_problem, 40, seed=6)
        times = model.per_resource_times_batch(batch)
        for row, expected in zip(batch, times):
            assert np.array_equal(model.per_resource_times(row), expected)

    def test_block_boundaries_change_nothing(self, small_problem):
        # A batch larger than the internal block size must score exactly
        # as a single unchunked pass (blocking is a pure layout decision).
        model = CostModel(small_problem)
        widest = max(small_problem.edges.shape[0], small_problem.n_tasks, 1)
        block = max(512, 262_144 // widest)
        n_rows = block + 37
        batch = degenerate_batch(small_problem, n_rows, seed=7)
        chunked = model.per_resource_times_batch(batch)
        assert np.array_equal(chunked, model._times_block(batch))

    def test_batch_shape_validation(self, small_problem):
        model = CostModel(small_problem)
        with pytest.raises(ValueError):
            model.per_resource_times_batch(
                np.zeros((4, small_problem.n_tasks + 1), dtype=np.int64)
            )
        with pytest.raises(ValueError):
            bad = np.zeros((4, small_problem.n_tasks), dtype=np.int64)
            bad[0, 0] = small_problem.n_resources
            model.per_resource_times_batch(bad)
