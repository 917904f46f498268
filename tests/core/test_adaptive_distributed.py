"""Tests for the distributed MaTCH variant (an extension)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DistributedMatchConfig, DistributedMatchMapper
from repro.exceptions import ConfigurationError
from repro.graphs import generate_resource_graph, generate_tig
from repro.mapping import MappingProblem


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
