"""Golden-fixture equivalence: the runtime refactor changed no number.

``tests/fixtures/golden_solvers.json`` was recorded on the pre-runtime
tree (private per-heuristic loops); every mapper here is rebuilt from the
registry using the ``(solver, params)`` identity stored in the fixture and
must reproduce assignment, ET and ``n_evaluations`` bit-for-bit — the
multi-chain fused path included. This is the enforcement teeth behind the
"seed-for-seed identical" claim in DESIGN.md §8.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import kernels
from repro.runtime import EvaluationBudget, create_mapper

FIXTURE = Path(__file__).parent.parent / "fixtures" / "golden_solvers.json"

#: The fixtures were recorded on the pure-numpy tree; every kernel
#: backend available here must reproduce them bit-for-bit, so the whole
#: module is parametrized over the backends (numpy always; cext when
#: this environment can compile it).
_BACKENDS = [name for name, ok in kernels.available_backends().items() if ok]


@pytest.fixture(autouse=True, params=_BACKENDS)
def kernel_backend(request):
    with kernels.use_backend(request.param):
        yield request.param


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def problem(golden):
    from repro.experiments.suite import build_suite

    size = golden["size"]
    return build_suite((size,), 1, seed=golden["suite_seed"])[size][0].problem


def _heuristics(exclude=()):
    names = json.loads(FIXTURE.read_text())["mappers"].keys()
    return [n for n in names if n not in exclude]


@pytest.mark.parametrize("heuristic", _heuristics(exclude=("MaTCH-multichain",)))
def test_sequential_runs_reproduce_golden(golden, problem, heuristic):
    entry = golden["mappers"][heuristic]
    for run in entry["runs"]:
        mapper = create_mapper(entry["solver"], entry["params"])
        budget = EvaluationBudget()
        result = mapper.map(problem, run["seed"], budget=budget)
        assert result.execution_time == run["execution_time"], heuristic
        assert np.array_equal(result.assignment, np.asarray(run["assignment"]))
        assert result.n_evaluations == run["n_evaluations"]
        # Every heuristic populates n_evaluations, and the shared budget
        # saw the charged work. CE scores and charges every sampled row,
        # so for MaTCH the two counts agree exactly; other solvers may
        # differ.
        assert result.n_evaluations > 0
        assert budget.used > 0
        if entry["solver"] == "match":
            assert budget.used == result.n_evaluations
            assert problem.is_one_to_one(result.assignment)


def test_multichain_fused_path_reproduces_golden(golden, problem):
    entry = golden["mappers"]["MaTCH-multichain"]
    mapper = create_mapper(entry["solver"], entry["params"])
    seeds = [run["seed"] for run in entry["runs"]]
    budget = EvaluationBudget()
    results = mapper.map_many(problem, seeds, budget=budget)
    for run, result in zip(entry["runs"], results):
        assert result.execution_time == run["execution_time"]
        assert np.array_equal(result.assignment, np.asarray(run["assignment"]))
        assert result.n_evaluations == run["n_evaluations"]
        assert problem.is_one_to_one(result.assignment)
    # The joint run charges every sampled row of every chain.
    assert budget.used == sum(r["n_evaluations"] for r in entry["runs"])


def test_fixture_covers_all_registry_solvers(golden):
    from repro.runtime import solver_names

    covered = {entry["solver"] for entry in golden["mappers"].values()}
    assert covered == set(solver_names())
