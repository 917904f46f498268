"""The CE engine reproduces its frozen fixture bit for bit.

``tests/fixtures/golden_ce_engine.json`` was recorded while the repository
still had a separate single-chain loop and one class per stop rule
(``tests/fixtures/record_golden_ce_engine.py``). It pins:

* a :class:`CrossEntropyOptimizer` run per stop kind, every
  :class:`CEResult` field included (histories, snapshots, final matrix);
* capped :meth:`MatchMapper.map` runs at caps 1, N−1, N and 2.5·N.

So the stop rules and the budget edge of the one engine are checked
against numbers the engine did not produce itself.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import kernels
from repro.ce.optimizer import CEConfig, CrossEntropyOptimizer
from repro.ce.stopping import StopKind
from repro.core.config import MatchConfig
from repro.core.match import MatchMapper
from repro.experiments.suite import build_suite
from repro.graphs import generate_paper_pair
from repro.mapping import CostModel, MappingProblem
from repro.runtime.budget import EvaluationBudget

FIXTURE = Path(__file__).parent.parent / "fixtures" / "golden_ce_engine.json"
GOLDEN = json.loads(FIXTURE.read_text())

_BACKENDS = [name for name, ok in kernels.available_backends().items() if ok]


@pytest.fixture(autouse=True, params=_BACKENDS)
def kernel_backend(request):
    with kernels.use_backend(request.param):
        yield request.param


@pytest.fixture(scope="module")
def ce_model():
    spec = GOLDEN["ce"]
    pair = generate_paper_pair(spec["size"], spec["pair_seed"])
    problem = MappingProblem(pair.tig, pair.resources, require_square=True)
    return problem, CostModel(problem)


@pytest.fixture(scope="module")
def map_problem():
    spec = GOLDEN["capped_map"]
    return build_suite((spec["size"],), 1, seed=spec["suite_seed"])[spec["size"]][0].problem


@pytest.mark.parametrize("name", sorted(GOLDEN["ce"]["runs"]))
def test_optimizer_runs_match_fixture(ce_model, name):
    problem, model = ce_model
    spec = GOLDEN["ce"]
    cfg = CEConfig(**{**spec["base"], **spec["configs"][name]})
    for run in spec["runs"][name]:
        res = CrossEntropyOptimizer(
            model.evaluate_batch, problem.n_tasks, problem.n_resources, cfg, rng=run["seed"]
        ).run()
        want = run["result"]
        assert [int(x) for x in res.best_assignment] == want["best_assignment"]
        assert res.best_cost == want["best_cost"]
        assert res.n_iterations == want["n_iterations"]
        assert res.n_evaluations == want["n_evaluations"]
        assert res.stop_reason == want["stop_reason"]
        assert res.stop_kind == StopKind(want["stop_kind"])
        assert res.gamma_history == want["gamma_history"]
        assert res.best_cost_history == want["best_cost_history"]
        assert res.degeneracy_history == want["degeneracy_history"]
        assert res.entropy_history == want["entropy_history"]
        assert [m.tolist() for m in res.matrix_history] == want["matrix_history"]
        assert res.final_matrix is not None
        assert res.final_matrix.tolist() == want["final_matrix"]
        assert problem.is_one_to_one(res.best_assignment)


def test_fixture_covers_every_stop_kind():
    kinds = {
        run["result"]["stop_kind"] for runs in GOLDEN["ce"]["runs"].values() for run in runs
    }
    assert kinds == {
        StopKind.BUDGET.value,
        StopKind.ROW_MAXIMA_STABLE.value,
        StopKind.GAMMA_STAGNATION.value,
        StopKind.DEGENERATE.value,
    }


def test_capped_map_runs_match_fixture(map_problem):
    spec = GOLDEN["capped_map"]
    for run in spec["runs"]:
        budget = EvaluationBudget(max_evaluations=run["cap"])
        result = MatchMapper(MatchConfig(**spec["params"])).map(
            map_problem, run["seed"], budget=budget
        )
        assert [int(x) for x in result.assignment] == run["assignment"], run["cap"]
        assert result.execution_time == run["execution_time"]
        assert result.n_evaluations == run["n_evaluations"]
        assert result.extras["iterations"] == run["iterations"]
        assert result.extras["stop_reason"] == run["stop_reason"]
        assert budget.used == run["budget_used"] == result.n_evaluations
        assert map_problem.is_one_to_one(np.asarray(result.assignment))
