"""The one solve cell (``repro.runtime.cell``).

The runner, Table 3, the ablation sweeps and the service gateway all
dispatch :func:`solve_cell`, so its contract is pinned once here: a live
cell run in this process (a 1-worker pool) and the same cell published by
pickle to a worker of a 2-worker pool return the same bits as a direct
``spec.build().map``, and a capped cell never spends more evaluations than
its cap.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime.budget import EvaluationBudget
from repro.runtime.cell import SolveCell, solve_cell
from repro.runtime.registry import SolverSpec
from repro.utils.parallel import WorkerPool

from tests.runtime.conftest import SMALL_PARAMS

SEEDS = (3, 11)
CAP = 50


@pytest.mark.parametrize("name", ["match", "fastmap-ga"])
def test_live_and_published_cells_agree(golden_problem, name):
    spec = SolverSpec.of(name, SMALL_PARAMS[name])
    cells = [SolveCell(golden_problem, spec, seed) for seed in SEEDS] + [
        SolveCell(golden_problem, spec, SEEDS[0], max_evaluations=CAP)
    ]
    direct = [spec.build().map(golden_problem, seed) for seed in SEEDS] + [
        spec.build().map(
            golden_problem, SEEDS[0], budget=EvaluationBudget(max_evaluations=CAP)
        )
    ]

    for n_workers in (1, 2):
        with WorkerPool(n_workers) as pool:
            report = pool.map_salvage(solve_cell, cells)
        assert not report.failures, (n_workers, report.failures)
        for result, expected in zip(report.results, direct):
            assert np.array_equal(result.assignment, expected.assignment)
            assert result.execution_time == expected.execution_time
            assert result.n_evaluations == expected.n_evaluations

    assert direct[-1].n_evaluations <= CAP < direct[0].n_evaluations
