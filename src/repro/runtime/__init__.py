"""Unified solver runtime: budget, loop, hooks, checkpoints, solver table.

Every heuristic in the library — CE, multi-chain CE, FastMap-GA and
distributed MaTCH — runs inside the same
:class:`~repro.runtime.loop.SearchLoop`, governed by one
:class:`~repro.runtime.budget.EvaluationBudget` and observable through
:class:`~repro.runtime.hooks.SearchHooks`; MaTCH and FastMap-GA are also
resumable through the ``repro-checkpoint/1`` format. The refactor is behavior-preserving:
golden fixtures (``tests/fixtures/golden_solvers.json``) pin every
heuristic's results seed-for-seed against the pre-runtime code.

See DESIGN.md §8 for budget semantics, hook ordering guarantees and the
checkpoint format.
"""

from repro.runtime.budget import EvaluationBudget
from repro.runtime.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointWriter,
    load_checkpoint,
)
from repro.runtime.hooks import BestCostRecorder, HookList, SearchHooks
from repro.runtime.loop import STOP_CONVERGED, STOP_INTERRUPTED, LoopOutcome, SearchLoop
from repro.runtime.registry import (
    SolverSpec,
    create_mapper,
    solver_names,
)
from repro.runtime.resume import resume_run
from repro.runtime.solver import SearchSolver, SolveOutput, StepReport

__all__ = [
    "EvaluationBudget",
    "SearchLoop",
    "LoopOutcome",
    "STOP_CONVERGED",
    "STOP_INTERRUPTED",
    "SearchSolver",
    "SolveOutput",
    "StepReport",
    "SearchHooks",
    "HookList",
    "BestCostRecorder",
    "CheckpointWriter",
    "CHECKPOINT_FORMAT",
    "load_checkpoint",
    "SolverSpec",
    "create_mapper",
    "solver_names",
    "resume_run",
]
