"""Tests for the FastMap-GA heuristic (§5.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import FastMapGA, GAConfig
from repro.exceptions import ConfigurationError
from repro.graphs import (
    ResourceGraph,
    generate_paper_pair,
    generate_resource_graph,
    generate_tig,
)
from repro.mapping import MappingProblem


def fast_cfg(**kwargs) -> GAConfig:
    defaults = dict(population_size=40, generations=30)
    defaults.update(kwargs)
    return GAConfig(**defaults)


class TestGAConfig:
    def test_paper_defaults(self):
        cfg = GAConfig()
        assert cfg.population_size == 500
        assert cfg.generations == 1000
        assert cfg.p_crossover == 0.85
        assert cfg.p_mutation == 0.07
        assert cfg.elitism

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 1},
            {"generations": 0},
            {"p_crossover": 1.5},
            {"p_mutation": -0.1},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            GAConfig(**{**dict(population_size=10, generations=5), **kwargs})


class TestFastMapGA:
    def test_valid_permutation_output(self, small_problem):
        result = FastMapGA(fast_cfg()).map(small_problem, 0)
        assert small_problem.is_one_to_one(result.assignment)
        assert result.mapper_name == "FastMap-GA"

    def test_requires_square(self):
        tig = generate_tig(4, 0)
        res = generate_resource_graph(6, 0)
        with pytest.raises(ConfigurationError, match="permutation encoding"):
            FastMapGA(fast_cfg()).map(MappingProblem(tig, res), 0)

    def test_improves_over_generations(self, small_problem):
        cfg = fast_cfg(generations=60, track_history=True)
        result = FastMapGA(cfg).map(small_problem, 1)
        history = result.extras["best_cost_history"]
        assert len(history) == 61  # initial + per generation
        assert history[-1] <= history[0]
        # monotone non-increasing best-so-far
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_elitism_never_worse_than_initial_best(self, small_problem, small_model):
        """The key lower bound: an elitist GA's output is at least as good
        as the best of its initial random population."""
        cfg = fast_cfg(generations=40)
        result = FastMapGA(cfg).map(small_problem, 3)
        # reconstruct the initial population's best (same seed path)
        rng = np.random.default_rng(3)
        init = np.stack([rng.permutation(12) for _ in range(40)])
        init_best = small_model.evaluate_batch(init).min()
        assert result.execution_time <= init_best + 1e-9

    def test_evaluation_accounting(self, small_problem):
        cfg = fast_cfg(population_size=30, generations=10)
        result = FastMapGA(cfg).map(small_problem, 2)
        assert result.n_evaluations == 30 * 11  # initial + 10 generations

    def test_deterministic(self, small_problem):
        a = FastMapGA(fast_cfg()).map(small_problem, 9)
        b = FastMapGA(fast_cfg()).map(small_problem, 9)
        np.testing.assert_array_equal(a.assignment, b.assignment)

    def test_beats_single_random(self, small_problem, small_model):
        result = FastMapGA(fast_cfg(generations=50)).map(small_problem, 4)
        single = small_model.evaluate(np.random.default_rng(0).permutation(12))
        assert result.execution_time <= single

    def test_no_elitism_still_valid(self, small_problem):
        cfg = fast_cfg(elitism=False)
        result = FastMapGA(cfg).map(small_problem, 5)
        assert small_problem.is_one_to_one(result.assignment)

    def test_final_population_report_mode(self, small_problem):
        cfg = fast_cfg(elitism=False, report_final_population=True)
        result = FastMapGA(cfg).map(small_problem, 6)
        assert small_problem.is_one_to_one(result.assignment)
        assert result.extras["final_population_cost"] == result.execution_time
        # the drifting final population is no better than the best seen
        assert result.execution_time >= result.extras["best_seen_cost"] - 1e-9

    def test_reported_cost_matches_assignment(self, small_problem, small_model):
        result = FastMapGA(fast_cfg()).map(small_problem, 7)
        assert result.execution_time == pytest.approx(
            small_model.evaluate(result.assignment)
        )

    def test_eq1_bound_near_float64_limit(self):
        # The n = 4 paper pair with its links scaled so the Eq. (1) bound
        # nears float64's limit: MappingProblem accepts it, and the
        # population's mean cost overflows.
        pair = generate_paper_pair(4, 3)
        res = pair.resources
        huge = ResourceGraph(res.node_weights, res.edges, np.asarray(res.edge_weights) * 1e304)
        problem = MappingProblem(pair.tig, huge, require_square=True)
        with np.errstate(all="raise"):
            result = FastMapGA(fast_cfg(population_size=16, generations=3)).map(problem, 0)
        assert problem.is_one_to_one(result.assignment)
        assert 1e307 < result.execution_time < np.inf
