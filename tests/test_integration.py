"""Cross-module integration tests: the paper's claims at test scale.

These tie the whole stack together — generators → problem → heuristics →
statistics — and assert the *shape* properties the reproduction targets
(DESIGN.md §5): MaTCH produces better mappings than equal-budget random
search, its mapping time grows faster with n than the GA's, and the public
API round-trips through serialization.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CostModel,
    FastMapGA,
    GAConfig,
    MappingProblem,
    MatchConfig,
    MatchMapper,
    evaluate_reference,
    generate_paper_pair,
)


def random_search_cost(problem, n_samples, seed):
    """Equal-budget comparator: the best of ``n_samples`` uniform one-to-one mappings."""
    rng = np.random.default_rng(seed)
    X = np.stack([rng.permutation(problem.n_tasks) for _ in range(n_samples)])
    return float(CostModel(problem).evaluate_batch(X).min())


@pytest.fixture(scope="module")
def problem():
    pair = generate_paper_pair(14, 2024)
    return MappingProblem(pair.tig, pair.resources, require_square=True)


class TestQualityOrdering:
    def test_match_beats_equal_budget_random(self, problem):
        match = MatchMapper(MatchConfig(n_samples=200, max_iterations=120)).map(
            problem, 5
        )
        random = random_search_cost(problem, match.n_evaluations, 5)
        assert match.execution_time <= random

    def test_match_at_least_ties_ga_at_equal_budget(self, problem):
        match = MatchMapper(MatchConfig(n_samples=200, max_iterations=120)).map(
            problem, 6
        )
        budget = match.n_evaluations
        pop = 50
        ga = FastMapGA(
            GAConfig(population_size=pop, generations=max(1, budget // pop - 1))
        ).map(problem, 6)
        # Shape claim at small n: MaTCH is at least competitive.
        assert match.execution_time <= ga.execution_time * 1.1


class TestMappingTimeShape:
    def test_match_mt_grows_faster_than_ga(self):
        """Table 2's shape: MT_MaTCH/MT_GA increases with n (the CE sample
        size is 2n² while the GA population is fixed)."""
        ratios = []
        for n in (8, 16):
            pair = generate_paper_pair(n, 7)
            problem = MappingProblem(pair.tig, pair.resources)
            match = MatchMapper(MatchConfig(max_iterations=60)).map(problem, 1)
            ga = FastMapGA(GAConfig(population_size=60, generations=40)).map(
                problem, 1
            )
            ratios.append(match.mapping_time / ga.mapping_time)
        assert ratios[1] > ratios[0]


class TestStatisticalPipeline:
    def test_anova_distinguishes_weak_from_strong(self, problem):
        """The Table 3 pipeline end-to-end: a deliberately weak heuristic
        (single random mapping) differs significantly from MaTCH."""
        from repro.stats import one_way_anova

        match_costs, rand_costs = [], []
        for rep in range(5):
            match_costs.append(
                MatchMapper(MatchConfig(n_samples=150, max_iterations=60))
                .map(problem, 100 + rep)
                .execution_time
            )
            rand_costs.append(random_search_cost(problem, 1, 200 + rep))
        result = one_way_anova([match_costs, rand_costs])
        assert result.f_value > 10
        assert result.significant(0.01)


class TestSerializationRoundTrip:
    def test_problem_graphs_round_trip(self, problem, tmp_path):
        from repro.graphs import load_graph, save_graph

        tig2 = load_graph(save_graph(problem.tig, tmp_path / "tig.json"))
        res2 = load_graph(save_graph(problem.resources, tmp_path / "res.json"))
        problem2 = MappingProblem(tig2, res2, require_square=True)
        x = np.random.default_rng(0).permutation(14)
        assert CostModel(problem).evaluate(x) == CostModel(problem2).evaluate(x)

    def test_result_summary_serializable(self, problem, tmp_path):
        from repro.core import match_map
        from repro.utils.serialization import dump_json, load_json

        _, diag = match_map(problem, MatchConfig(n_samples=100, max_iterations=40), 3)
        path = dump_json(diag.summary(), tmp_path / "summary.json")
        loaded = load_json(path)
        assert loaded["best_cost"] == diag.best_cost


class TestOversetPipeline:
    def test_full_cfd_story(self):
        """Fig. 1 end-to-end: overset scenario → TIG → heterogeneous
        platform → MaTCH mapping, whose reported cost is the reference
        Eq. (2) evaluation."""
        from repro import build_tig, generate_overset_scenario, generate_resource_graph

        scenario = generate_overset_scenario(10, 31)
        tig = build_tig(scenario, weight_scale=1000.0)
        resources = generate_resource_graph(10, 31)
        problem = MappingProblem(tig, resources, require_square=True)
        result = MatchMapper(MatchConfig(n_samples=150, max_iterations=60)).map(
            problem, 31
        )
        assert result.execution_time == pytest.approx(
            evaluate_reference(problem, result.assignment), rel=1e-12
        )
