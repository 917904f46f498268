"""The one solve cell (``repro.runtime.cell``).

The runner, Table 3, the ablation sweeps and the service gateway all
dispatch :func:`solve_cell`, so its contract is pinned once here: a cell on
a live problem in this process and the same cell on a shared-plane handle
in a worker pool return the same bits as a direct ``spec.build().map``,
and a capped cell never spends more evaluations than its cap.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime.cell import SolveCell, solve_cell
from repro.runtime.registry import SolverSpec
from repro.utils.parallel import WorkerPool
from repro.utils.shared_plane import SharedProblemHandle

from tests.runtime.conftest import SMALL_PARAMS

SEEDS = (3, 11)
CAP = 50


@pytest.mark.parametrize("name", ["match", "fastmap-ga"])
def test_live_and_published_cells_agree(golden_problem, name):
    spec = SolverSpec.of(name, SMALL_PARAMS[name])

    def cells(problem_ref):
        return [SolveCell(problem_ref, spec, seed) for seed in SEEDS] + [
            SolveCell(problem_ref, spec, SEEDS[0], max_evaluations=CAP)
        ]

    with WorkerPool(1) as serial:
        live_ref = serial.publish_problem(golden_problem)
        assert live_ref is golden_problem
        live = serial.map_salvage(solve_cell, cells(live_ref))
    with WorkerPool(2) as pool:
        handle = pool.publish_problem(golden_problem)
        assert isinstance(handle, SharedProblemHandle)
        shared = pool.map_salvage(solve_cell, cells(handle))

    assert not live.failures and not shared.failures
    direct = [spec.build().map(golden_problem, seed) for seed in SEEDS]
    for a, b, d in zip(live.results, shared.results, direct):
        for result in (a, b):
            assert np.array_equal(result.assignment, d.assignment)
            assert result.execution_time == d.execution_time
            assert result.n_evaluations == d.n_evaluations

    capped_live, capped_shared = live.results[-1], shared.results[-1]
    assert np.array_equal(capped_live.assignment, capped_shared.assignment)
    assert capped_live.execution_time == capped_shared.execution_time
    assert capped_live.n_evaluations == capped_shared.n_evaluations
    assert capped_live.n_evaluations <= CAP < direct[0].n_evaluations
