"""Tests for repro.mapping.problem (MappingProblem)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import MappingError, ValidationError
from repro.graphs import (
    ResourceGraph,
    TaskInteractionGraph,
    generate_resource_graph,
    generate_tig,
)
from repro.mapping import MappingProblem


class TestConstruction:
    def test_basic(self, small_problem):
        assert small_problem.n_tasks == 12
        assert small_problem.n_resources == 12
        assert small_problem.is_square

    def test_type_checks(self):
        tig = generate_tig(5, 0)
        res = generate_resource_graph(5, 0)
        with pytest.raises(ValidationError):
            MappingProblem(res, res)  # type: ignore[arg-type]
        with pytest.raises(ValidationError):
            MappingProblem(tig, tig)  # type: ignore[arg-type]

    def test_require_square(self):
        tig = generate_tig(4, 0)
        res = generate_resource_graph(6, 0)
        with pytest.raises(ValidationError, match="require_square"):
            MappingProblem(tig, res, require_square=True)
        # rectangular allowed without the flag
        p = MappingProblem(tig, res)
        assert not p.is_square

    def test_disconnected_platform_rejected(self):
        tig = generate_tig(4, 0)
        res = ResourceGraph([1, 1, 1, 1], [(0, 1), (2, 3)], [5, 5])
        with pytest.raises(Exception, match="disconnected"):
            MappingProblem(tig, res)

    @pytest.mark.parametrize(
        "task_w, tig_w, proc_w, res_w, names",
        [
            ([1e308, 1e308], [1.0], [1.0, 1.0], [1.0], "task_weights, proc_weights"),
            ([2.0, 2.0], [1.0], [1e308, 1.0], [1.0], "task_weights, proc_weights"),
            ([1.0, 1.0], [2.0], [1.0, 1.0], [1e308], "tig_edge_weights, res_edge_weights"),
            ([0.5, 0.5], [1.0], [1e308, 1.0], [1e308],
             "task_weights, proc_weights, tig_edge_weights, res_edge_weights"),
        ],
        ids=["task-sum", "compute-product", "traffic", "sum-of-terms"],
    )
    def test_non_finite_time_bound_rejected(self, task_w, tig_w, proc_w, res_w, names):
        # Each weight is finite, but some mapping's Eq. (1) time can overflow.
        tig = TaskInteractionGraph(task_w, [(0, 1)], tig_w)
        res = ResourceGraph(proc_w, [(0, 1)], res_w)
        with pytest.raises(ValidationError, match=rf"^{names}\b.* Eq\. \(1\) time finite"):
            MappingProblem(tig, res)

    def test_largest_finite_time_bound_accepted(self):
        tig = TaskInteractionGraph([1.0, 1.0], [(0, 1)], [1.0])
        res = ResourceGraph([1e307, 1.0], [(0, 1)], [1e307])
        assert MappingProblem(tig, res).n_tasks == 2

    def test_comm_costs_closed_and_readonly(self):
        tig = generate_tig(3, 0)
        res = ResourceGraph([1, 1, 1], [(0, 1), (1, 2)], [10, 5])
        p = MappingProblem(tig, res)
        assert p.comm_costs[0, 2] == 15  # closure applied
        with pytest.raises(ValueError):
            p.comm_costs[0, 0] = 1


class TestCheckAssignment:
    def test_valid(self, small_problem):
        x = np.arange(12)
        out = small_problem.check_assignment(x)
        assert out.dtype == np.int64

    def test_wrong_length(self, small_problem):
        with pytest.raises(MappingError, match="shape"):
            small_problem.check_assignment(np.arange(5))

    def test_wrong_dtype(self, small_problem):
        with pytest.raises(MappingError, match="integer"):
            small_problem.check_assignment(np.zeros(12))

    def test_out_of_range(self, small_problem):
        x = np.arange(12)
        x[0] = 12
        with pytest.raises(MappingError, match="values"):
            small_problem.check_assignment(x)
        x[0] = -1
        with pytest.raises(MappingError):
            small_problem.check_assignment(x)

    def test_2d_rejected(self, small_problem):
        with pytest.raises(MappingError):
            small_problem.check_assignment(np.zeros((2, 12), dtype=np.int64))


class TestOneToOne:
    def test_permutation_is_one_to_one(self, small_problem):
        assert small_problem.is_one_to_one(np.random.default_rng(0).permutation(12))

    def test_collision_detected(self, small_problem):
        x = np.arange(12)
        x[1] = 0
        assert not small_problem.is_one_to_one(x)


class TestSearchSpace:
    def test_square_factorial(self, small_problem):
        assert small_problem.search_space_size() == pytest.approx(
            math.factorial(12), rel=1e-9
        )

    def test_rectangular(self):
        tig = generate_tig(3, 0)
        res = generate_resource_graph(5, 0)
        p = MappingProblem(tig, res)
        assert p.search_space_size() == pytest.approx(5 * 4 * 3, rel=1e-9)

    def test_overfull_zero(self):
        tig = generate_tig(6, 0)
        res = generate_resource_graph(4, 0)
        p = MappingProblem(tig, res)
        assert p.search_space_size() == 0.0

    def test_repr(self, small_problem):
        assert "n_tasks=12" in repr(small_problem)
