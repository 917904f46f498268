"""The one search loop every heuristic runs in.

:class:`SearchLoop` drives a :class:`~repro.runtime.solver.SearchSolver`
to completion under an :class:`~repro.runtime.budget.EvaluationBudget`,
firing lifecycle hooks and (optionally) writing periodic checkpoints. It
owns the MT stopwatch and enforces the measurement discipline the paper's
Fig. 8/9 require: the stopwatch runs **only** while solver code runs —
it is paused around every hook call and every checkpoint write, so
observation and durability never contaminate mapping time.

Stop kinds reported to ``on_stop`` (and in :class:`LoopOutcome`):

* ``"converged"`` — the solver's own stopping rule tripped (a solver may
  report another kind through :attr:`SearchSolver.stop`);
* ``"budget-evaluations"`` / ``"budget-seconds"`` / ``"budget-target"`` —
  an :class:`EvaluationBudget` limit tripped (checked between steps, in
  that priority order — see ``EvaluationBudget.exhausted``);
* ``"interrupted"`` — ``KeyboardInterrupt``; the loop writes an emergency
  checkpoint (when a checkpointer is attached and the interrupt arrived
  between steps, e.g. from a hook), fires ``on_stop``, and re-raises so
  the process still dies with SIGINT semantics. An interrupt landing
  *inside* ``solver.step()`` leaves state mid-mutation — exporting it
  would clobber the last consistent boundary checkpoint with one that
  resumes to a *different* trajectory, so the loop deliberately keeps
  the previous on-disk checkpoint instead. ``repro resume`` picks up
  from whichever consistent checkpoint survives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.runtime.budget import EvaluationBudget
from repro.runtime.hooks import SearchHooks
from repro.runtime.solver import STOP_CONVERGED, SearchSolver, SolveOutput
from repro.utils.timing import Stopwatch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.checkpoint import CheckpointWriter

__all__ = ["SearchLoop", "LoopOutcome", "STOP_CONVERGED", "STOP_INTERRUPTED"]

STOP_INTERRUPTED = "interrupted"


@dataclass(frozen=True)
class LoopOutcome:
    """Everything the mapper shell needs from one completed loop run."""

    output: SolveOutput
    #: Structured stop kind (see module docstring).
    stop_kind: str
    #: Human-readable stop explanation.
    stop_reason: str
    #: Completed solver steps (across resume segments).
    iterations: int
    #: Heuristic-only wall-clock seconds — hooks and checkpoints excluded.
    #: On a resumed run this includes the seconds of prior segments.
    elapsed: float
    budget: EvaluationBudget
    extras: dict[str, Any] = field(default_factory=dict)


class SearchLoop:
    """Drive a solver to completion under a budget, with hooks and checkpoints."""

    def __init__(
        self,
        solver: SearchSolver,
        budget: EvaluationBudget | None = None,
        hooks: SearchHooks | None = None,
        checkpointer: "CheckpointWriter | None" = None,
    ) -> None:
        self.solver = solver
        self.budget = budget if budget is not None else EvaluationBudget()
        self.hooks = hooks if hooks is not None else SearchHooks()
        self.checkpointer = checkpointer

    def run(
        self,
        problem: Any,
        seed: Any,
        *,
        resume_state: dict[str, Any] | None = None,
        initial_elapsed: float = 0.0,
    ) -> LoopOutcome:
        """Run the solver on ``problem``; return the :class:`LoopOutcome`.

        ``resume_state`` (a solver ``export_state`` payload, normally read
        from a checkpoint) skips ``start`` and restores the solver mid-run;
        ``initial_elapsed`` carries the prior segments' heuristic seconds so
        the reported MT spans the whole logical run.
        """
        solver = self.solver
        solver.bind(self.budget)
        sw = Stopwatch()

        sw.start()
        if resume_state is not None:
            solver.restore_state(problem, resume_state)
        else:
            solver.start(problem, seed)
        sw.stop()

        self.hooks.on_start(solver, problem)

        best_cost = math.inf
        in_step = False
        try:
            while True:
                elapsed = initial_elapsed + sw.elapsed
                tripped = self.budget.exhausted(elapsed=elapsed, best_cost=best_cost)
                if tripped is not None:
                    stop_kind, stop_reason = tripped
                    solver.note_external_stop(stop_kind, stop_reason)
                    break
                if solver.finished:
                    stop_kind, stop_reason = solver.stop
                    break
                sw.start()
                in_step = True
                report = solver.step()
                in_step = False
                sw.stop()
                best_cost = report.best_cost
                if report.improved:
                    self.hooks.on_improvement(solver, report)
                self.hooks.on_iteration(solver, report)
                if self.checkpointer is not None:
                    self.checkpointer.maybe_save(
                        solver, self.budget, initial_elapsed + sw.elapsed
                    )
        except KeyboardInterrupt:
            sw.stop()
            if self.checkpointer is not None and not in_step:
                # Best-effort boundary save: the solver may not checkpoint at
                # all, and the process must still die with SIGINT semantics,
                # so save failures are swallowed. A mid-step interrupt is
                # skipped entirely — the solver's state is mid-mutation and
                # exporting it would overwrite the last consistent
                # checkpoint with one that resumes differently.
                try:
                    self.checkpointer.save_now(
                        solver, self.budget, initial_elapsed + sw.elapsed
                    )
                except Exception:
                    pass
            self.hooks.on_stop(
                solver, STOP_INTERRUPTED, "KeyboardInterrupt during search step"
            )
            raise

        sw.start()
        output = solver.finalize()
        sw.stop()

        self.hooks.on_stop(solver, stop_kind, stop_reason)
        return LoopOutcome(
            output=output,
            stop_kind=stop_kind,
            stop_reason=stop_reason,
            iterations=solver.iteration,
            elapsed=initial_elapsed + sw.elapsed,
            budget=self.budget,
        )
