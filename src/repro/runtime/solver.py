"""The solver protocol every heuristic implements to run under the loop.

A :class:`SearchSolver` is an *inverted* run loop: instead of owning a
private ``while`` loop, the solver exposes ``start`` / ``step`` /
``finished`` / ``finalize`` and the :class:`~repro.runtime.loop.SearchLoop`
drives it. The inversion is what buys the shared machinery — one budget,
one stopwatch discipline, one hook pipeline, one checkpoint format — for
all heuristics at once.

Granularity is the solver's choice (one CE iteration, one GA
generation); the only contract is that RNG
consumption inside ``start``/``step``/``finalize`` is **exactly** the
consumption of the pre-refactor loop body, so golden fixtures stay
bit-for-bit. Checkpointable solvers additionally implement
:meth:`SearchSolver.export_state` / :meth:`SearchSolver.restore_state`
returning a JSON-able payload that includes the RNG stream position (via
:func:`repro.utils.rng.generator_state`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.exceptions import CheckpointError
from repro.runtime.budget import EvaluationBudget

__all__ = ["StepReport", "SolveOutput", "SearchSolver", "STOP_CONVERGED"]

STOP_CONVERGED = "converged"


@dataclass(frozen=True)
class StepReport:
    """What one solver step tells the loop (and through it, the hooks)."""

    #: 0-based index of the completed step.
    iteration: int
    #: Best (lowest) cost seen so far, ``inf`` until the first evaluation.
    best_cost: float = math.inf
    #: True when this step improved the incumbent (fires ``on_improvement``).
    improved: bool = False
    #: Free-form per-step diagnostics passed to ``on_iteration`` hooks.
    info: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SolveOutput:
    """What :meth:`SearchSolver.finalize` hands back to the mapper shell."""

    #: Best task->resource assignment found.
    assignment: np.ndarray
    #: Cost evaluations the run scored (``MapperResult.n_evaluations``;
    #: golden fixtures pin these numbers). Every solver charges the budget
    #: for exactly these, so the budget's ``used`` equals it on a fresh run.
    n_evaluations: int = 0
    #: Heuristic-specific extras merged into ``MapperResult.extras``.
    extras: dict[str, Any] = field(default_factory=dict)


class SearchSolver:
    """Base class for loop-driven heuristics.

    Lifecycle (enforced by the loop, in this order):

    1. ``bind(budget)`` — attach the shared :class:`EvaluationBudget`;
    2. ``start(problem, seed)`` — allocate state, consume any setup RNG;
    3. repeated ``step()`` while ``not finished`` and the budget allows;
    4. ``finalize()`` — produce the :class:`SolveOutput`.

    ``export_state()`` may be called between steps (never mid-step) and
    after ``note_external_stop()``; the default raises
    :class:`~repro.exceptions.CheckpointError` so non-checkpointable
    solvers degrade loudly rather than silently resuming wrong.
    """

    #: ``(kind, reason)`` the loop reports when ``finished`` ends the run. A
    #: solver whose budget cannot pay its next (indivisible) step sets a
    #: budget stop kind here instead.
    stop: tuple[str, str] = (STOP_CONVERGED, "solver stopping rule satisfied")

    def __init__(self) -> None:
        self.budget: EvaluationBudget = EvaluationBudget()
        self._iteration = 0

    # -- wiring ------------------------------------------------------------
    def bind(self, budget: EvaluationBudget) -> None:
        """Attach the budget all cost-model calls must be charged against."""
        self.budget = budget

    @property
    def iteration(self) -> int:
        """Number of completed steps."""
        return self._iteration

    # -- lifecycle (subclass responsibility) --------------------------------
    def start(self, problem: Any, seed: Any) -> None:
        """Allocate live state for a fresh run. RNG setup draws happen here."""
        raise NotImplementedError

    def step(self) -> StepReport:
        """Advance one unit of search and report progress."""
        raise NotImplementedError

    @property
    def finished(self) -> bool:
        """True once the solver's own stopping rule has tripped."""
        raise NotImplementedError

    def finalize(self) -> SolveOutput:
        """Produce the final output from live state (may consume RNG)."""
        raise NotImplementedError

    # -- loop callbacks ------------------------------------------------------
    def note_external_stop(self, kind: str, reason: str) -> None:
        """The loop stopped the run (budget/interrupt) before ``finished``.

        Solvers may record the fact in their extras; the default ignores it.
        """

    # -- checkpointing -------------------------------------------------------
    def export_state(self) -> dict[str, Any]:
        """JSON-able live state (incl. RNG position) for a mid-run checkpoint."""
        raise CheckpointError(
            f"{type(self).__name__} does not support checkpointing"
        )

    def restore_state(self, problem: Any, state: dict[str, Any]) -> None:
        """Rebuild live state for ``problem`` from :meth:`export_state` output.

        Called *instead of* :meth:`start` when resuming: it must leave the
        solver mid-run exactly where the checkpoint was taken (same RNG
        position, same incumbent, same iteration counter).
        """
        raise CheckpointError(
            f"{type(self).__name__} does not support checkpointing"
        )
