"""Tests for the MaTCH heuristic (Fig. 5) and its result objects."""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.core import MatchConfig, MatchMapper, match_map, paper_sample_size
from repro.exceptions import ConfigurationError
from repro.graphs import generate_resource_graph, generate_tig
from repro.mapping import MappingProblem


class TestMatchConfig:
    def test_paper_sample_size_rule(self):
        assert paper_sample_size(10) == 200
        assert paper_sample_size(50) == 5000

    def test_paper_sample_size_invalid(self):
        with pytest.raises(ConfigurationError):
            paper_sample_size(0)

    def test_defaults_match_paper(self):
        cfg = MatchConfig()
        assert cfg.rho == 0.05  # inside the paper's [0.01, 0.1]
        assert cfg.zeta == 0.3  # §5.2
        assert cfg.stability_window == 5  # Eq. (12) c
        assert cfg.n_samples is None  # -> 2 n^2

    def test_ce_config_materialization(self):
        ce = MatchConfig().ce_config(10)
        assert ce.n_samples == 200
        assert ce.rho == 0.05 and ce.zeta == 0.3

    def test_explicit_n_samples_wins(self):
        ce = MatchConfig(n_samples=64).ce_config(10)
        assert ce.n_samples == 64

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            MatchConfig(rho=0.0)
        with pytest.raises(ValueError):
            MatchConfig(zeta=1.5)
        with pytest.raises(ConfigurationError):
            MatchConfig(n_samples=1)


class TestMatchMapper:
    def test_produces_valid_one_to_one(self, small_problem):
        result = MatchMapper(MatchConfig(n_samples=100, max_iterations=60)).map(
            small_problem, 1
        )
        assert small_problem.is_one_to_one(result.assignment)
        assert result.mapper_name == "MaTCH"
        assert result.mapping_time > 0
        assert result.execution_time > 0

    def test_beats_mean_random(self, small_problem, small_model):
        result = MatchMapper(MatchConfig(n_samples=200, max_iterations=100)).map(
            small_problem, 3
        )
        rng = np.random.default_rng(0)
        random_mean = np.mean(
            [small_model.evaluate(rng.permutation(12)) for _ in range(200)]
        )
        assert result.execution_time < random_mean

    def test_deterministic(self, small_problem):
        a = MatchMapper(MatchConfig(n_samples=100, max_iterations=40)).map(
            small_problem, 7
        )
        b = MatchMapper(MatchConfig(n_samples=100, max_iterations=40)).map(
            small_problem, 7
        )
        assert a.execution_time == b.execution_time
        np.testing.assert_array_equal(a.assignment, b.assignment)

    def test_extras_populated(self, small_problem):
        result = MatchMapper(MatchConfig(n_samples=100, max_iterations=40)).map(
            small_problem, 2
        )
        assert result.extras["iterations"] >= 1
        assert result.extras["n_samples_per_iteration"] == 100
        assert "stop_reason" in result.extras
        assert 0 < result.extras["final_degeneracy"] <= 1.0

    def test_rectangular_wide_platform(self):
        """More resources than tasks: still valid one-to-one."""
        tig = generate_tig(5, 0)
        res = generate_resource_graph(9, 0)
        problem = MappingProblem(tig, res)
        result = MatchMapper(MatchConfig(n_samples=80, max_iterations=40)).map(
            problem, 4
        )
        assert problem.is_one_to_one(result.assignment)

    def test_narrow_platform_rejected(self):
        tig = generate_tig(6, 0)
        res = generate_resource_graph(4, 0)
        problem = MappingProblem(tig, res)
        with pytest.raises(ConfigurationError, match="n_resources >= n_tasks"):
            MatchMapper().map(problem, 0)

    def test_reported_cost_matches_assignment(self, small_problem, small_model):
        result = MatchMapper(MatchConfig(n_samples=100, max_iterations=40)).map(
            small_problem, 9
        )
        assert result.execution_time == pytest.approx(
            small_model.evaluate(result.assignment)
        )


class TestMatchResult:
    def test_last_result_diagnostics(self, small_problem):
        mapper = MatchMapper(MatchConfig(n_samples=100, max_iterations=50))
        mapped = mapper.map(small_problem, 5)
        mr = mapper.last_result
        assert mr is not None
        assert mr.best_cost == mapped.execution_time
        assert mr.n_iterations == mapped.extras["iterations"]
        assert mr.best_mapping.is_one_to_one()

    def test_match_map_convenience(self, small_problem):
        mapped, diag = match_map(
            small_problem, MatchConfig(n_samples=100, max_iterations=40), 3
        )
        assert mapped.execution_time == diag.best_cost
        summary = diag.summary()
        assert summary["rho"] == 0.05
        assert summary["n_evaluations"] == mapped.n_evaluations

    def test_decoded_mapping_close_to_best_at_convergence(self, small_problem):
        mapper = MatchMapper(
            MatchConfig(n_samples=200, max_iterations=200, gamma_window=30)
        )
        mapper.map(small_problem, 8)
        mr = mapper.last_result
        assert mr is not None
        decoded = mr.decoded_mapping()
        # With a near-degenerate matrix the decode is close in cost.
        from repro.mapping import CostModel

        model = CostModel(small_problem)
        assert decoded.cost(model) <= mr.best_cost * 1.5


_BACKENDS = [name for name, ok in kernels.available_backends().items() if ok]


class TestMapManyParity:
    """``map_many`` is one fused multi-chain run whose chain ``r`` equals
    ``map(problem, seeds[r])``, at n = 24 and for a single seed."""

    config = MatchConfig(n_samples=60, max_iterations=25)

    @pytest.mark.parametrize("backend", _BACKENDS)
    @pytest.mark.parametrize("n, seeds", [(24, [1, 2]), (10, [3])], ids=["n24", "one-seed"])
    def test_equals_per_seed_map(self, backend, n, seeds):
        from repro.graphs import generate_paper_pair

        pair = generate_paper_pair(n, 5)
        problem = MappingProblem(pair.tig, pair.resources, require_square=True)
        mapper = MatchMapper(self.config)
        with kernels.use_backend(backend):
            fused = mapper.map_many(problem, seeds)
            single = [mapper.map(problem, seed) for seed in seeds]
        assert len(fused) == len(seeds)
        for f, s in zip(fused, single):
            assert list(f.assignment) == list(s.assignment)
            assert f.execution_time == s.execution_time
            assert f.n_evaluations == s.n_evaluations
            assert f.extras.pop("joint_chains") == len(seeds)
            assert f.extras == s.extras


class TestBudgetEdge:
    """Evaluation caps on MaTCH: one ledger, and no mapping it never scored.

    The golden ``n = 10`` instance with ``N = 200`` samples per iteration.
    A run or chain left without a single scored row would return the
    all-zeros placeholder (not one-to-one, with an ET no real mapping
    reaches), so MaTCH raises instead.
    """

    config = MatchConfig(max_iterations=80)
    seeds = [0, 1, 2]

    @pytest.fixture(scope="class")
    def golden(self) -> MappingProblem:
        from repro.experiments.suite import build_suite

        return build_suite((10,), 1, seed=2005)[10][0].problem

    def test_exhausted_budget_raises(self, golden):
        from repro.exceptions import MappingError
        from repro.runtime import EvaluationBudget

        budget = EvaluationBudget(max_evaluations=5)
        budget.charge(5)
        with pytest.raises(MappingError, match="scored no mapping"):
            MatchMapper(self.config).map(golden, 0, budget=budget)

    def test_fused_chain_allotted_no_rows_raises(self, golden):
        from repro.exceptions import MappingError
        from repro.runtime import EvaluationBudget

        budget = EvaluationBudget(max_evaluations=300)
        with pytest.raises(MappingError, match="chain 2 scored no mapping"):
            MatchMapper(self.config).map_many(golden, self.seeds, budget=budget)
        assert budget.used == 300

    @pytest.mark.parametrize("cap", [401, 599, 600, 1500, None])
    def test_fused_evaluations_sum_to_budget_used(self, golden, cap):
        from repro.runtime import EvaluationBudget

        budget = EvaluationBudget(max_evaluations=cap)
        results = MatchMapper(self.config).map_many(golden, self.seeds, budget=budget)
        assert sum(r.n_evaluations for r in results) == budget.used
        if cap is not None:
            assert budget.used == cap
        for r in results:
            assert r.n_evaluations > 0
            assert golden.is_one_to_one(r.assignment)

    def test_capped_single_run_is_one_to_one(self, golden):
        from repro.runtime import EvaluationBudget

        for cap in (1, 199, 200, 500):
            budget = EvaluationBudget(max_evaluations=cap)
            result = MatchMapper(self.config).map(golden, 0, budget=budget)
            assert result.n_evaluations == budget.used == cap
            assert golden.is_one_to_one(result.assignment)
