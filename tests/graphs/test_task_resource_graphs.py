"""Tests for TaskInteractionGraph and ResourceGraph semantics."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graphs import (
    ResourceGraph,
    TaskInteractionGraph,
    shortest_path_closure,
)


class TestTaskInteractionGraph:
    def make(self) -> TaskInteractionGraph:
        return TaskInteractionGraph([2, 4, 6], [(0, 1), (1, 2)], [10, 30])

    def test_aliases(self):
        tig = self.make()
        assert tig.n_tasks == 3
        np.testing.assert_array_equal(tig.computation_weights, [2, 4, 6])
        np.testing.assert_array_equal(tig.communication_weights, [10, 30])

    def test_totals(self):
        tig = self.make()
        assert tig.total_computation() == 12
        assert tig.total_communication() == 40

    def test_ccr(self):
        assert self.make().computation_to_communication_ratio() == pytest.approx(0.3)

    def test_ccr_edgeless_is_inf(self):
        tig = TaskInteractionGraph([1, 2])
        assert tig.computation_to_communication_ratio() == float("inf")

    def test_interaction_volume(self):
        tig = self.make()
        assert tig.interaction_volume(1) == 40
        assert tig.interaction_volume(0) == 10


class TestShortestPathClosure:
    def test_direct_paths_kept(self):
        cost = np.array([[0.0, 5.0], [5.0, 0.0]])
        np.testing.assert_array_equal(shortest_path_closure(cost), cost)

    def test_two_hop_cheaper(self):
        cost = np.array(
            [[0.0, 1.0, 10.0], [1.0, 0.0, 1.0], [10.0, 1.0, 0.0]]
        )
        closed = shortest_path_closure(cost)
        assert closed[0, 2] == 2.0  # via node 1

    def test_missing_link_filled(self):
        inf = np.inf
        cost = np.array([[0.0, 2.0, inf], [2.0, 0.0, 3.0], [inf, 3.0, 0.0]])
        closed = shortest_path_closure(cost)
        assert closed[0, 2] == 5.0

    def test_disconnected_stays_inf(self):
        inf = np.inf
        cost = np.array([[0.0, inf], [inf, 0.0]])
        assert shortest_path_closure(cost)[0, 1] == inf

    def test_non_square_rejected(self):
        with pytest.raises(GraphError):
            shortest_path_closure(np.zeros((2, 3)))

    def test_triangle_inequality_holds(self):
        rng = np.random.default_rng(3)
        n = 8
        cost = rng.uniform(1, 20, size=(n, n))
        cost = (cost + cost.T) / 2
        np.fill_diagonal(cost, 0.0)
        closed = shortest_path_closure(cost)
        for k in range(n):
            assert np.all(closed <= closed[:, [k]] + closed[[k], :] + 1e-9)


class TestResourceGraph:
    def make_complete(self) -> ResourceGraph:
        return ResourceGraph(
            [1, 2, 3], [(0, 1), (0, 2), (1, 2)], [10, 20, 15]
        )

    def test_aliases(self):
        rg = self.make_complete()
        assert rg.n_resources == 3
        np.testing.assert_array_equal(rg.processing_weights, [1, 2, 3])

    def test_is_complete(self):
        assert self.make_complete().is_complete()
        assert not ResourceGraph([1, 1, 1], [(0, 1)], [5]).is_complete()

    def test_direct_cost_matrix(self):
        m = self.make_complete().direct_cost_matrix()
        assert m[0, 1] == 10 and m[1, 0] == 10
        assert np.all(np.diag(m) == 0)

    def test_comm_cost_matrix_complete_is_direct(self):
        rg = self.make_complete()
        np.testing.assert_array_equal(rg.comm_cost_matrix(), rg.direct_cost_matrix())

    def test_comm_cost_matrix_sparse_closure(self):
        # path 0-1-2: pair (0,2) costed via two hops
        rg = ResourceGraph([1, 1, 1], [(0, 1), (1, 2)], [10, 5])
        ccm = rg.comm_cost_matrix()
        assert ccm[0, 2] == 15

    def test_no_closure_keeps_inf(self):
        rg = ResourceGraph([1, 1, 1], [(0, 1), (1, 2)], [10, 5])
        direct = rg.comm_cost_matrix(closure=False)
        assert direct[0, 2] == np.inf

    def test_disconnected_raises(self):
        rg = ResourceGraph([1, 1, 1, 1], [(0, 1), (2, 3)], [1, 1])
        with pytest.raises(GraphError, match="disconnected"):
            rg.comm_cost_matrix()

    def test_overflowing_route_is_not_called_disconnected(self):
        # Connected, but the two-hop route 0-1-2 sums past float64's range.
        rg = ResourceGraph([1.0, 1.0, 1.0], [[0, 1], [1, 2]], [1e308, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GraphError, match="overflows float64") as info:
                rg.comm_cost_matrix()
        assert info.value.field == "edge_weights"

    def test_heterogeneity_zero_for_uniform(self):
        rg = ResourceGraph([2, 2, 2], [(0, 1), (0, 2), (1, 2)], [1, 1, 1])
        assert rg.heterogeneity() == 0.0

    def test_heterogeneity_positive_for_mixed(self):
        assert self.make_complete().heterogeneity() > 0
