"""MICRO — head-to-head heuristic timing at one fixed size.

Times one complete run of every mapper in the library on the same n = 15
instance. Not a paper artifact; a practical guide to what each heuristic
costs and returns (the quality assertions keep the bench honest).
"""

from __future__ import annotations

import pytest

from conftest import run_once

from repro.baselines import FastMapGA, GAConfig
from repro.core import DistributedMatchMapper, MatchConfig, MatchMapper
from repro.graphs import generate_paper_pair
from repro.mapping import CostModel, MappingProblem

SIZE = 15


@pytest.fixture(scope="module")
def problem():
    pair = generate_paper_pair(SIZE, 123)
    return MappingProblem(pair.tig, pair.resources, require_square=True)


@pytest.fixture(scope="module")
def random_floor(problem):
    """Mean cost of a random mapping — every heuristic must beat this."""
    import numpy as np

    model = CostModel(problem)
    rng = np.random.default_rng(0)
    return float(
        np.mean([model.evaluate(rng.permutation(SIZE)) for _ in range(300)])
    )


MAPPERS = {
    "match": lambda: MatchMapper(MatchConfig()),
    "match_distributed": lambda: DistributedMatchMapper(),
    "fastmap_ga": lambda: FastMapGA(GAConfig(population_size=150, generations=200)),
}


@pytest.mark.parametrize("name", sorted(MAPPERS))
def test_heuristic_run(benchmark, problem, random_floor, name):
    result = run_once(benchmark, MAPPERS[name]().map, problem, 42)
    assert problem.is_one_to_one(result.assignment)
    assert result.execution_time < random_floor
    benchmark.extra_info["execution_time"] = result.execution_time
    benchmark.extra_info["n_evaluations"] = result.n_evaluations
