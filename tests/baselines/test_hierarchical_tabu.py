"""Tests for hierarchical FastMap."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    GAConfig,
    HierarchicalFastMap,
    HierarchicalFastMapConfig,
)
from repro.exceptions import ConfigurationError
from repro.graphs import generate_resource_graph, generate_tig
from repro.mapping import CostModel, MappingProblem


def small_ga() -> GAConfig:
    return GAConfig(population_size=30, generations=25)


class TestHierarchicalFastMap:
    def test_square_instance_one_to_one(self, small_problem):
        cfg = HierarchicalFastMapConfig(ga=small_ga())
        result = HierarchicalFastMap(cfg).map(small_problem, 0)
        assert small_problem.is_one_to_one(result.assignment)
        assert result.extras["n_clusters"] == 12
        assert result.extras["cluster_coverage"] == pytest.approx(0.0)

    def test_many_to_one_instance(self):
        """The hierarchical scheme's home turf: more tasks than resources."""
        tig = generate_tig(20, 3)
        res = generate_resource_graph(6, 3)
        problem = MappingProblem(tig, res)
        cfg = HierarchicalFastMapConfig(ga=small_ga())
        result = HierarchicalFastMap(cfg).map(problem, 1)
        problem.check_assignment(result.assignment)
        assert result.extras["n_clusters"] == 6
        # clustering kept some communication internal
        assert result.extras["cluster_coverage"] > 0.0

    def test_beats_mean_random_many_to_one(self):
        tig = generate_tig(18, 4)
        res = generate_resource_graph(5, 4)
        problem = MappingProblem(tig, res)
        model = CostModel(problem)
        result = HierarchicalFastMap(
            HierarchicalFastMapConfig(ga=small_ga())
        ).map(problem, 2)
        rng = np.random.default_rng(0)
        mean_random = np.mean(
            [model.evaluate(rng.integers(0, 5, size=18)) for _ in range(100)]
        )
        assert result.execution_time < mean_random

    def test_refinement_helps_or_ties(self, small_problem):
        no_refine = HierarchicalFastMap(
            HierarchicalFastMapConfig(ga=small_ga(), refine_sweeps=0)
        ).map(small_problem, 5)
        refined = HierarchicalFastMap(
            HierarchicalFastMapConfig(ga=small_ga(), refine_sweeps=3)
        ).map(small_problem, 5)
        assert refined.execution_time <= no_refine.execution_time + 1e-9
        assert refined.extras["refine_probes"] > 0

    def test_refinement_preserves_one_to_one_on_square(self, small_problem):
        result = HierarchicalFastMap(
            HierarchicalFastMapConfig(ga=small_ga(), refine_sweeps=3)
        ).map(small_problem, 7)
        assert small_problem.is_one_to_one(result.assignment)

    def test_wide_platform_padding(self):
        """Fewer tasks than resources: dummy-cluster padding path."""
        tig = generate_tig(5, 1)
        res = generate_resource_graph(9, 1)
        problem = MappingProblem(tig, res)
        result = HierarchicalFastMap(
            HierarchicalFastMapConfig(ga=small_ga())
        ).map(problem, 3)
        assert problem.is_one_to_one(result.assignment)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HierarchicalFastMapConfig(refine_sweeps=-1)

    def test_deterministic(self, small_problem):
        cfg = HierarchicalFastMapConfig(ga=small_ga())
        a = HierarchicalFastMap(cfg).map(small_problem, 11)
        b = HierarchicalFastMap(cfg).map(small_problem, 11)
        np.testing.assert_array_equal(a.assignment, b.assignment)

