"""Record the golden solver fixtures (`golden_solvers.json`).

Runs every heuristic on the canonical ``n = 10`` suite instance at seeds
0..4 and freezes ``(assignment, execution_time, n_evaluations)`` per run.
The equivalence test (``tests/runtime/test_golden_fixtures.py``) rebuilds
each mapper from the solver registry using the ``(solver, params)`` pair
recorded here and asserts the refactored runtime reproduces every number
bit-for-bit.

The fixture file checked into the repository was produced by this script
on the PRE-refactor tree (private per-heuristic run loops), which is what
makes the equivalence test meaningful. Re-running the script regenerates
the same file from the current tree — do that only when an *intentional*
behaviour change invalidates the fixtures, and say so in the commit.

Usage::

    PYTHONPATH=src python tests/fixtures/record_golden_solvers.py
"""

from __future__ import annotations

from pathlib import Path

from repro.baselines.ga import FastMapGA, GAConfig
from repro.core.config import MatchConfig
from repro.core.match import MatchMapper
from repro.experiments.suite import build_suite
from repro.utils.serialization import dump_json

#: The instance every fixture run maps: first n=10 pair of the 2005 suite.
SUITE_SEED = 2005
SIZE = 10
SEEDS = (0, 1, 2, 3, 4)

#: name -> (registry solver name, params dict, direct constructor).
#: Small-but-structured configs: fast enough for CI, deep enough that every
#: code path really runs.
GOLDEN_MAPPERS = {
    "MaTCH": (
        "match",
        {"max_iterations": 80},
        lambda: MatchMapper(MatchConfig(max_iterations=80)),
    ),
    "FastMap-GA": (
        "fastmap-ga",
        {"population_size": 40, "generations": 60},
        lambda: FastMapGA(GAConfig(population_size=40, generations=60)),
    ),
}


def golden_problem():
    """The fixture instance (deterministic from the suite seed)."""
    return build_suite((SIZE,), 1, seed=SUITE_SEED)[SIZE][0].problem


def record() -> dict:
    """Run every golden mapper at every seed; return the fixture payload."""
    problem = golden_problem()
    runs = {}
    for name, (solver, params, make) in GOLDEN_MAPPERS.items():
        per_seed = []
        for seed in SEEDS:
            result = make().map(problem, seed)
            per_seed.append(
                {
                    "seed": seed,
                    "assignment": result.assignment.tolist(),
                    "execution_time": result.execution_time,
                    "n_evaluations": result.n_evaluations,
                }
            )
        runs[name] = {"solver": solver, "params": params, "runs": per_seed}

    # The fused multi-chain path (MatchMapper.map_many) is pinned too: it
    # must stay seed-for-seed identical to the sequential runs above.
    _, match_params, make_match = GOLDEN_MAPPERS["MaTCH"]
    joint = make_match().map_many(problem, list(SEEDS))
    runs["MaTCH-multichain"] = {
        "solver": "match",
        "params": match_params,
        "runs": [
            {
                "seed": seed,
                "assignment": r.assignment.tolist(),
                "execution_time": r.execution_time,
                "n_evaluations": r.n_evaluations,
            }
            for seed, r in zip(SEEDS, joint)
        ],
    }
    return {
        "suite_seed": SUITE_SEED,
        "size": SIZE,
        "seeds": list(SEEDS),
        "mappers": runs,
    }


def main() -> None:
    out = Path(__file__).parent / "golden_solvers.json"
    dump_json(record(), out)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
