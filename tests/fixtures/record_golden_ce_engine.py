"""Record the CE-engine golden fixture (`golden_ce_engine.json`).

Freezes two kinds of runs, field for field:

* one :class:`~repro.ce.optimizer.CrossEntropyOptimizer` run per stop
  kind (the four ``STOP_CONFIGS`` of ``tests/ce/test_multichain.py``, at
  each of its three seeds) plus one run that tracks matrix snapshots:
  every :class:`~repro.ce.optimizer.CEResult` field, the four histories
  and the final matrix included;
* capped :meth:`MatchMapper.map` runs on the canonical ``n = 10`` suite
  instance at evaluation caps 1, N−1, N and 2.5·N (``N = 2·n²`` samples
  per iteration): assignment, ET, evaluations, iterations, stop reason
  and the budget's ``used`` count.

The checked-in file was recorded on the tree that still had a separate
single-chain CE loop and stop-criterion classes. The equivalence test
(``tests/ce/test_golden_ce_engine.py``) pins the one remaining engine to
these bytes, so the stop rules and the budget edge keep an oracle that
does not come from the engine itself. Re-run only when an *intentional*
behaviour change invalidates the numbers, and say so in the commit.

Usage::

    PYTHONPATH=src python tests/fixtures/record_golden_ce_engine.py
"""

from __future__ import annotations

from pathlib import Path

from repro.ce.optimizer import CEConfig, CEResult, CrossEntropyOptimizer
from repro.core.config import MatchConfig
from repro.core.match import MatchMapper
from repro.experiments.suite import build_suite
from repro.graphs import generate_paper_pair
from repro.mapping import CostModel, MappingProblem
from repro.runtime.budget import EvaluationBudget
from repro.utils.serialization import dump_json

OUT = Path(__file__).parent / "golden_ce_engine.json"

#: The stop-kind runs: the multichain parity tests' instance and seeds.
CE_SIZE = 8
CE_PAIR_SEED = 777
CE_SEEDS = (101, 202, 303)
CE_BASE = {"n_samples": 128, "max_iterations": 60}
#: One config per stop kind; each fires its kind on at least one seed.
CE_CONFIGS = {
    "budget": {"max_iterations": 5},
    "rowmax": {"gamma_window": 0, "stability_window": 3, "stability_tol": 0.05},
    "gamma": {},
    "degen": {"stability_window": 0, "gamma_window": 0, "zeta": 1.0},
    "tracked": {"track_matrices": True, "matrix_snapshot_every": 4},
}

#: The capped MaTCH runs: the golden-solvers instance and config.
MAP_SUITE_SEED = 2005
MAP_SIZE = 10
MAP_PARAMS = {"max_iterations": 80}
MAP_SEEDS = (0, 1)


def ce_problem() -> MappingProblem:
    pair = generate_paper_pair(CE_SIZE, CE_PAIR_SEED)
    return MappingProblem(pair.tig, pair.resources, require_square=True)


def map_problem() -> MappingProblem:
    return build_suite((MAP_SIZE,), 1, seed=MAP_SUITE_SEED)[MAP_SIZE][0].problem


def map_caps(n_samples: int) -> list[int]:
    """Caps below, at and above one iteration's batch."""
    return [1, n_samples - 1, n_samples, (5 * n_samples) // 2]


def ce_result_payload(res: CEResult) -> dict:
    assert res.final_matrix is not None
    return {
        "best_assignment": [int(x) for x in res.best_assignment],
        "best_cost": float(res.best_cost),
        "n_iterations": int(res.n_iterations),
        "n_evaluations": int(res.n_evaluations),
        "stop_reason": res.stop_reason,
        "stop_kind": res.stop_kind.value,
        "gamma_history": list(res.gamma_history),
        "best_cost_history": list(res.best_cost_history),
        "degeneracy_history": list(res.degeneracy_history),
        "entropy_history": list(res.entropy_history),
        "matrix_history": [m.tolist() for m in res.matrix_history],
        "final_matrix": res.final_matrix.tolist(),
    }


def record() -> dict:
    problem = ce_problem()
    model = CostModel(problem)
    ce_runs = {}
    for name, overrides in CE_CONFIGS.items():
        cfg = CEConfig(**{**CE_BASE, **overrides})
        ce_runs[name] = [
            {
                "seed": seed,
                "result": ce_result_payload(
                    CrossEntropyOptimizer(
                        model.evaluate_batch,
                        problem.n_tasks,
                        problem.n_resources,
                        cfg,
                        rng=seed,
                    ).run()
                ),
            }
            for seed in CE_SEEDS
        ]

    mproblem = map_problem()
    config = MatchConfig(**MAP_PARAMS)
    n_samples = config.ce_config(mproblem.n_resources).n_samples
    capped = []
    for cap in map_caps(n_samples):
        for seed in MAP_SEEDS:
            budget = EvaluationBudget(max_evaluations=cap)
            result = MatchMapper(config).map(mproblem, seed, budget=budget)
            capped.append(
                {
                    "cap": cap,
                    "seed": seed,
                    "assignment": [int(x) for x in result.assignment],
                    "execution_time": float(result.execution_time),
                    "n_evaluations": int(result.n_evaluations),
                    "iterations": int(result.extras["iterations"]),
                    "stop_reason": result.extras["stop_reason"],
                    "budget_used": int(budget.used),
                }
            )
    return {
        "ce": {
            "size": CE_SIZE,
            "pair_seed": CE_PAIR_SEED,
            "base": CE_BASE,
            "configs": CE_CONFIGS,
            "runs": ce_runs,
        },
        "capped_map": {
            "suite_seed": MAP_SUITE_SEED,
            "size": MAP_SIZE,
            "params": MAP_PARAMS,
            "n_samples": n_samples,
            "runs": capped,
        },
    }


def main() -> None:
    dump_json(record(), OUT)
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
