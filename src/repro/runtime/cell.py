"""The one unit of fabric work: solve one problem with one solver spec.

The comparison runner, Table 3's GA groups, the ablation sweeps and the
service gateway all dispatch a :class:`SolveCell` to :func:`solve_cell`.
A cell carries its :class:`~repro.mapping.problem.MappingProblem` by
value, so it is a pure function of its fields: a retry, another worker
count or another kernel backend replays it bit for bit. Each caller keeps
the identity of its cells and turns the returned result into its own
record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.mapping.problem import MappingProblem
from repro.runtime.budget import EvaluationBudget
from repro.runtime.registry import SolverSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.baselines.base import MapperResult

__all__ = ["SolveCell", "solve_cell"]


@dataclass(frozen=True)
class SolveCell:
    """One ``(problem, solver, seed, cap)`` solve, ready to cross the pipe."""

    problem: MappingProblem
    solver: SolverSpec
    seed: int
    #: Evaluation cap for this solve (None = the solver's own stop rules).
    max_evaluations: int | None = None


def solve_cell(cell: SolveCell) -> "MapperResult":
    """Top-level (picklable, pure) worker: run one cell's solve.

    The mapper is rebuilt from its spec; a budget exists only when the
    cell sets a cap.
    """
    budget = (
        EvaluationBudget(max_evaluations=cell.max_evaluations)
        if cell.max_evaluations is not None
        else None
    )
    return cell.solver.build().map(cell.problem, cell.seed, budget=budget)
