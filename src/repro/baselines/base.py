"""Common interface for every mapping heuristic in the library.

The experiment harness (Tables 1-3, Figures 7-9) treats heuristics
uniformly: give a :class:`~repro.mapping.problem.MappingProblem` and a
seed, get back a :class:`MapperResult` with the produced mapping, its
execution time (ET, Eq. (2)) and the wall-clock mapping time (MT). MaTCH
and FastMap-GA implement :class:`Mapper`. A mapper
runs one seed per :meth:`Mapper.map` call; repetitions fan out as
experiment cells through :meth:`repro.utils.parallel.WorkerPool.map_salvage`
(MaTCH alone adds a fused :meth:`~repro.core.match.MatchMapper.map_many`).

Every ``map`` call runs inside the unified
:class:`~repro.runtime.loop.SearchLoop`: the heuristic is a
:class:`~repro.runtime.solver.SearchSolver` (built by
:meth:`Mapper._make_solver`), driven step by step under a shared
:class:`~repro.runtime.budget.EvaluationBudget`, observable through
:class:`~repro.runtime.hooks.SearchHooks`, and — for solvers that export
live state — resumable from a ``repro-checkpoint/1`` file. The loop owns
the MT stopwatch, so cost-model construction, hook execution and
checkpoint writes are uniformly excluded from the measured mapping time.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from repro.mapping.cost_model import CostModel
from repro.mapping.mapping import Mapping
from repro.mapping.problem import MappingProblem
from repro.mapping.turnaround import TurnaroundRecord
from repro.runtime.budget import EvaluationBudget
from repro.runtime.checkpoint import CheckpointWriter
from repro.runtime.hooks import SearchHooks
from repro.runtime.loop import LoopOutcome, SearchLoop
from repro.runtime.solver import SearchSolver
from repro.types import SeedLike

__all__ = ["MapperResult", "Mapper", "MapperSolver"]


@dataclass
class MapperResult:
    """Outcome of one heuristic run on one problem instance."""

    mapper_name: str
    assignment: np.ndarray
    execution_time: float  # ET: Eq. (2) cost of the produced mapping
    mapping_time: float  # MT: wall-clock seconds the heuristic ran
    n_evaluations: int = 0
    extras: dict[str, Any] = field(default_factory=dict)

    def mapping(self, problem: MappingProblem) -> Mapping:
        """The result as a validated :class:`Mapping` object."""
        return Mapping(problem, self.assignment)

    def turnaround(self, *, seconds_per_unit: float = 1.0) -> TurnaroundRecord:
        """ATN record (Fig. 9) for this run."""
        return TurnaroundRecord(
            heuristic=self.mapper_name,
            execution_time=self.execution_time,
            mapping_time=self.mapping_time,
            seconds_per_unit=seconds_per_unit,
        )


class MapperSolver(SearchSolver):
    """Base class for baseline solvers: a :class:`SearchSolver` plus the model.

    The :meth:`Mapper.map` shell pre-builds the :class:`CostModel` and
    attaches it as :attr:`model` *before* the loop starts its stopwatch, so
    model construction is never charged to MT for any heuristic.
    """

    def __init__(self) -> None:
        super().__init__()
        self.model: CostModel | None = None


class Mapper:
    """Abstract mapping heuristic.

    Subclasses provide a :class:`~repro.runtime.solver.SearchSolver` via
    :meth:`_make_solver` (budget-governed, hook-observable, and
    checkpointable where the solver exports its state). The public
    :meth:`map` adds uniform timing, validation and cost computation so
    MT/ET are measured identically for every heuristic — a prerequisite
    for fair Table 2 comparisons.
    """

    #: Short name used in tables ("MaTCH", "FastMap-GA", ...).
    name: str = "mapper"
    #: The heuristic's parameters, a dataclass.
    config: Any

    def checkpoint_params(self) -> dict[str, Any]:
        """Config params that rebuild this mapper via the solver table."""
        return asdict(self.config)

    def _make_solver(self) -> MapperSolver:
        """Build a fresh solver instance for one run."""
        raise NotImplementedError

    def map(
        self,
        problem: MappingProblem,
        rng: SeedLike = None,
        *,
        budget: EvaluationBudget | None = None,
        hooks: SearchHooks | None = None,
        checkpointer: CheckpointWriter | None = None,
        resume_state: dict[str, Any] | None = None,
        initial_elapsed: float = 0.0,
    ) -> MapperResult:
        """Run the heuristic; returns a timed, validated result.

        ``budget`` caps the run (evaluations / seconds / target cost);
        ``hooks`` observe it; ``checkpointer`` persists it periodically;
        ``resume_state`` + ``initial_elapsed`` (normally supplied by
        :func:`repro.runtime.resume.resume_run`) continue an interrupted
        run from its checkpoint instead of starting fresh.
        """
        model = CostModel(problem)
        solver = self._make_solver()
        solver.model = model
        loop = SearchLoop(solver, budget=budget, hooks=hooks, checkpointer=checkpointer)
        outcome = loop.run(
            problem, rng, resume_state=resume_state, initial_elapsed=initial_elapsed
        )
        return self._result_from_outcome(problem, model, outcome)

    def _result_from_outcome(
        self, problem: MappingProblem, model: CostModel, outcome: LoopOutcome
    ) -> MapperResult:
        """Validate + cost the loop's output exactly as every mapper must."""
        out = outcome.output
        assignment = problem.check_assignment(
            np.asarray(out.assignment, dtype=np.int64)
        )
        cost = model.evaluate(assignment)
        return MapperResult(
            mapper_name=self.name,
            assignment=assignment,
            execution_time=cost,
            mapping_time=outcome.elapsed,
            n_evaluations=out.n_evaluations,
            extras=out.extras,
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
