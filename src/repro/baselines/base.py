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
Heuristics that only implement the legacy :meth:`Mapper._solve` hook run
as a single opaque step through :class:`_LegacySolveAdapter` with
identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar

import numpy as np

from repro.mapping.cost_model import CostModel
from repro.mapping.mapping import Mapping
from repro.mapping.problem import MappingProblem
from repro.mapping.turnaround import TurnaroundRecord
from repro.runtime.budget import EvaluationBudget
from repro.runtime.checkpoint import CheckpointWriter
from repro.runtime.hooks import SearchHooks
from repro.runtime.loop import LoopOutcome, SearchLoop
from repro.runtime.solver import SearchSolver, SolveOutput, StepReport
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


class _LegacySolveAdapter(MapperSolver):
    """Run a mapper's monolithic ``_solve`` as one opaque loop step.

    Mappers that predate the solver protocol (or whose search has no
    meaningful step granularity) keep working unchanged: the whole
    ``_solve`` body executes inside a single ``step()``, so MT covers
    exactly what the pre-runtime ``Stopwatch`` wrapped and the returned
    ``(assignment, n_evaluations, extras)`` triple is passed through
    untouched. No mid-run checkpointing is possible at this granularity —
    ``export_state`` keeps the loud :class:`CheckpointError` default.
    """

    def __init__(self, mapper: "Mapper") -> None:
        super().__init__()
        self.mapper = mapper
        self._problem: MappingProblem | None = None
        self._seed: SeedLike = None
        self._output: SolveOutput | None = None
        self._done = False

    def start(self, problem: MappingProblem, seed: SeedLike) -> None:
        self._problem = problem
        self._seed = seed
        self._output = None
        self._done = False

    @property
    def finished(self) -> bool:
        return self._done

    def step(self) -> StepReport:
        assert self._problem is not None
        assignment, n_evals, extras = self.mapper._solve(
            self._problem, self.model, self._seed
        )
        if n_evals:  # a legacy mapper may legitimately report zero evaluations
            self.budget.charge(n_evals)
        self._output = SolveOutput(
            assignment=np.asarray(assignment, dtype=np.int64),
            n_evaluations=n_evals,
            extras=extras,
        )
        self._done = True
        it = self._iteration
        self._iteration += 1
        return StepReport(iteration=it)

    def finalize(self) -> SolveOutput:
        assert self._output is not None
        return self._output


class Mapper:
    """Abstract mapping heuristic.

    Subclasses either provide a :class:`~repro.runtime.solver.SearchSolver`
    via :meth:`_make_solver` (step-resolved heuristics: budget-governed,
    hook-observable, checkpointable) or just implement the legacy
    :meth:`_solve` hook (run as one opaque step). Either way the public
    :meth:`map` adds uniform timing, validation and cost computation so
    MT/ET are measured identically for every heuristic — a prerequisite
    for fair Table 2 comparisons.
    """

    #: Short name used in tables ("MaTCH", "FastMap-GA", ...).
    name: str = "mapper"
    #: Solver-registry identity (see :mod:`repro.runtime.registry`) used in
    #: checkpoints so ``repro resume`` can rebuild the mapper; ``None``
    #: marks heuristics that are not registry-resumable.
    registry_name: ClassVar[str | None] = None

    def checkpoint_params(self) -> dict[str, Any]:
        """Constructor params that rebuild this mapper via the registry."""
        return {}

    def _make_solver(self) -> MapperSolver:
        """Build a fresh solver instance; default wraps legacy ``_solve``."""
        return _LegacySolveAdapter(self)

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

    # -- subclass hook ---------------------------------------------------------
    def _solve(
        self, problem: MappingProblem, model: CostModel, rng: SeedLike
    ) -> tuple[np.ndarray, int, dict[str, Any]]:
        """Produce ``(assignment, n_evaluations, extras)`` for ``problem``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
