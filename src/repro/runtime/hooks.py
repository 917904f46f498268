"""Lifecycle hooks: observation without contaminating the measurement.

Per-step observation — run-store events, best-cost recording — is a
:class:`SearchHooks` subclass attached to the
:class:`~repro.runtime.loop.SearchLoop`. (Fig. 3 trace snapshots and the
convergence figures read the CE diagnostics in
:attr:`~repro.core.match.MatchMapper.last_result` after the run instead.)
The loop *pauses its stopwatch* around every hook call, so arbitrarily
expensive observation (plotting, disk writes) never pollutes the MT
column.

Ordering guarantees (DESIGN.md §8):

* ``on_start`` fires once, before the first ``step()``;
* ``on_iteration`` fires after **every** completed step, in step order;
* ``on_improvement`` fires *before* that step's ``on_iteration`` whenever
  the step lowered the incumbent best cost;
* ``on_stop`` fires exactly once, last, with the structured stop kind —
  including on budget exhaustion and on ``KeyboardInterrupt`` (after the
  emergency checkpoint is written).

Multiple hooks compose with :class:`HookList`; they fire in attachment
order and must not mutate the solver.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.runtime.solver import StepReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.solver import SearchSolver

__all__ = [
    "SearchHooks",
    "HookList",
    "BestCostRecorder",
]

class SearchHooks:
    """No-op base class; override any subset of the four lifecycle events."""

    def on_start(self, solver: "SearchSolver", problem: Any) -> None:
        """Called once before the first step."""

    def on_iteration(self, solver: "SearchSolver", report: StepReport) -> None:
        """Called after every completed step."""

    def on_improvement(self, solver: "SearchSolver", report: StepReport) -> None:
        """Called when a step improved the incumbent (before its on_iteration)."""

    def on_stop(self, solver: "SearchSolver", kind: str, reason: str) -> None:
        """Called once when the loop ends (converged, budget, or interrupt)."""


class HookList(SearchHooks):
    """Fan a lifecycle event out to several hooks in attachment order."""

    def __init__(self, hooks: list[SearchHooks] | None = None) -> None:
        self.hooks: list[SearchHooks] = list(hooks or [])

    def append(self, hook: SearchHooks) -> None:
        self.hooks.append(hook)

    def on_start(self, solver: "SearchSolver", problem: Any) -> None:
        for hook in self.hooks:
            hook.on_start(solver, problem)

    def on_iteration(self, solver: "SearchSolver", report: StepReport) -> None:
        for hook in self.hooks:
            hook.on_iteration(solver, report)

    def on_improvement(self, solver: "SearchSolver", report: StepReport) -> None:
        for hook in self.hooks:
            hook.on_improvement(solver, report)

    def on_stop(self, solver: "SearchSolver", kind: str, reason: str) -> None:
        for hook in self.hooks:
            hook.on_stop(solver, kind, reason)


class BestCostRecorder(SearchHooks):
    """Record the incumbent best cost after every step (convergence curves)."""

    def __init__(self) -> None:
        self.history: list[float] = []
        self.improvements: list[tuple[int, float]] = []
        self.stop_kind: str | None = None
        self.stop_reason: str | None = None

    def on_iteration(self, solver: "SearchSolver", report: StepReport) -> None:
        self.history.append(report.best_cost)

    def on_improvement(self, solver: "SearchSolver", report: StepReport) -> None:
        self.improvements.append((report.iteration, report.best_cost))

    def on_stop(self, solver: "SearchSolver", kind: str, reason: str) -> None:
        self.stop_kind = kind
        self.stop_reason = reason
