"""Tests for the distributed MaTCH variant (an extension)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DistributedMatchConfig, DistributedMatchMapper
from repro.exceptions import ConfigurationError, MappingError
from repro.graphs import generate_resource_graph, generate_tig
from repro.mapping import MappingProblem
from repro.runtime import EvaluationBudget, SearchHooks


class TestDistributedConfig:
    def test_defaults_valid(self):
        DistributedMatchConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_agents": 0},
            {"sync_every": 0},
            {"gossip_weight": 1.5},
            {"max_rounds": 0},
            {"gamma_window": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            DistributedMatchConfig(**kwargs)


class TestDistributedMapper:
    def test_valid_output(self, small_problem):
        cfg = DistributedMatchConfig(
            n_agents=3, total_samples=120, max_rounds=60
        )
        result = DistributedMatchMapper(cfg).map(small_problem, 1)
        assert small_problem.is_one_to_one(result.assignment)
        assert result.extras["n_agents"] == 3
        assert result.extras["samples_per_agent"] == 40

    def test_single_agent_degenerates_to_plain_ce(self, small_problem):
        cfg = DistributedMatchConfig(n_agents=1, total_samples=100, max_rounds=60)
        result = DistributedMatchMapper(cfg).map(small_problem, 2)
        assert result.extras["n_syncs"] == 0
        assert small_problem.is_one_to_one(result.assignment)

    def test_gossip_happens(self, small_problem):
        cfg = DistributedMatchConfig(
            n_agents=4, sync_every=2, total_samples=160, max_rounds=40,
            gamma_window=40,
        )
        result = DistributedMatchMapper(cfg).map(small_problem, 3)
        assert result.extras["n_syncs"] >= 1

    def test_quality_reasonable(self, small_problem, small_model):
        """The distributed variant stays within a modest factor of the
        monolithic optimizer at equal budget."""
        from repro.core import MatchConfig, MatchMapper

        mono = MatchMapper(MatchConfig(n_samples=160, max_iterations=60)).map(
            small_problem, 4
        )
        dist = DistributedMatchMapper(
            DistributedMatchConfig(n_agents=4, total_samples=160, max_rounds=60)
        ).map(small_problem, 4)
        assert dist.execution_time <= mono.execution_time * 1.25

    def test_deterministic(self, small_problem):
        cfg = DistributedMatchConfig(n_agents=2, total_samples=80, max_rounds=30)
        a = DistributedMatchMapper(cfg).map(small_problem, 7)
        b = DistributedMatchMapper(cfg).map(small_problem, 7)
        np.testing.assert_array_equal(a.assignment, b.assignment)

    def test_narrow_platform_rejected(self):
        tig = generate_tig(5, 0)
        res = generate_resource_graph(3, 0)
        with pytest.raises(ConfigurationError):
            DistributedMatchMapper().map(MappingProblem(tig, res), 0)


class _RoundLog(SearchHooks):
    def __init__(self):
        self.iterations = []
        self.stop = None

    def on_iteration(self, solver, report):
        self.iterations.append(report.iteration)

    def on_stop(self, solver, kind, reason):
        self.stop = kind


class TestDistributedUnderTheLoop:
    """Distributed MaTCH steps through the search loop one round at a time."""

    CONFIG = DistributedMatchConfig(n_agents=4, total_samples=128, max_rounds=30)

    def test_hooks_fire_once_per_round(self, small_problem):
        log = _RoundLog()
        budget = EvaluationBudget()
        result = DistributedMatchMapper(self.CONFIG).map(
            small_problem, 3, budget=budget, hooks=log
        )
        rounds = result.extras["rounds"]
        assert rounds > 1
        assert log.iterations == list(range(rounds))
        assert log.stop == "converged"
        assert budget.used == result.n_evaluations == rounds * 128

    def test_capped_run_stays_within_its_cap(self, small_problem):
        uncapped = DistributedMatchMapper(self.CONFIG).map(small_problem, 3)
        assert uncapped.n_evaluations > 300
        log = _RoundLog()
        budget = EvaluationBudget(max_evaluations=300)
        result = DistributedMatchMapper(self.CONFIG).map(
            small_problem, 3, budget=budget, hooks=log
        )
        # Two 128-sample rounds fit; the third is not drawn.
        assert budget.used == result.n_evaluations == 256
        assert result.extras["rounds"] == 2
        assert log.stop == "budget-evaluations"

    def test_cap_below_one_round_scores_nothing(self, small_problem):
        budget = EvaluationBudget(max_evaluations=100)
        with pytest.raises(MappingError, match="scored no mapping"):
            DistributedMatchMapper(self.CONFIG).map(small_problem, 3, budget=budget)
        assert budget.used == 0
