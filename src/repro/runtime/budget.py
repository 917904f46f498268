"""The evaluation budget: one source of truth for search effort.

The paper's head-to-head claims (Tables 1-3) only hold under *matched
effort*, and the natural common currency across heuristics is the number
of Eq. (2) cost evaluations: a CE batch of ``N`` candidates, ``M`` GA
fitness calls and ``M`` SA neighbor probes all cost the platform the same
work per row. :class:`EvaluationBudget` counts exactly that — every solver
calls :meth:`EvaluationBudget.charge` at each cost-model call site (the
``budget-flow`` analysis proves every solver-reachable probe is
charge-covered on its path) — and composes three limits that the
:class:`~repro.runtime.loop.SearchLoop` checks between solver steps:

* ``max_evaluations`` — cap on charged cost evaluations;
* ``max_seconds`` — cap on *heuristic* wall-clock (hook and checkpoint
  time is excluded by the loop's stopwatch discipline);
* ``target_cost`` — stop as soon as the incumbent best reaches a target.

All three are optional and independent; the budget is exhausted when any
active limit trips. A budget with no limits is unlimited and free:
charging is a single integer add, so production runs pay nothing for the
accounting.

CE charges every row it samples, duplicates included, because it scores
every one of them: after an uncapped CE run ``used`` equals the run's
``n_evaluations``. A capped run stops exactly at ``max_evaluations``: the
sequential engine draws only the rows the budget can still afford, and
the fused multi-chain engine scores the affordable prefix of its joint
batch and sets the rest to ``+inf``.
"""

from __future__ import annotations

import math
import numbers
from typing import Any

from repro.exceptions import ConfigurationError

__all__ = ["EvaluationBudget", "BUDGET_EVALUATIONS", "BUDGET_SECONDS", "BUDGET_TARGET"]

#: Structured stop kinds the loop reports when a budget limit trips.
BUDGET_EVALUATIONS = "budget-evaluations"
BUDGET_SECONDS = "budget-seconds"
BUDGET_TARGET = "budget-target"


class EvaluationBudget:
    """Composable effort budget charged at the cost-model boundary.

    Parameters
    ----------
    max_evaluations:
        Maximum number of cost evaluations to spend (``None`` = unlimited).
    max_seconds:
        Maximum heuristic wall-clock seconds (``None`` = unlimited). The
        loop measures this with the same stopwatch that produces MT, so
        hook/checkpoint overhead never counts against the budget.
    target_cost:
        Stop once the incumbent best cost is ``<=`` this value.
    """

    __slots__ = ("max_evaluations", "max_seconds", "target_cost", "used")

    def __init__(
        self,
        max_evaluations: int | None = None,
        max_seconds: float | None = None,
        target_cost: float | None = None,
    ) -> None:
        if max_evaluations is not None and max_evaluations < 1:
            raise ConfigurationError(
                f"max_evaluations must be >= 1, got {max_evaluations}"
            )
        if max_seconds is not None and max_seconds <= 0:
            raise ConfigurationError(f"max_seconds must be > 0, got {max_seconds}")
        self.max_evaluations = max_evaluations
        self.max_seconds = max_seconds
        self.target_cost = target_cost
        #: Cost evaluations charged so far.
        self.used = 0

    # -- charging ----------------------------------------------------------
    def charge(self, n: int = 1) -> None:
        """Record ``n`` cost evaluations. Called at every cost-model call site.

        ``n`` must be a positive integer (numpy integer scalars are fine):
        a zero charge is a call-site bug (the site did no work, so it must
        not touch the budget), and a negative charge would silently *refund*
        evaluations — corrupting the matched-effort accounting that Tables
        1-3 depend on.
        """
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise ConfigurationError(
                f"charge() takes a positive integer, got {n!r} "
                f"({type(n).__name__})"
            )
        if n <= 0:
            raise ConfigurationError(
                f"charge() takes a positive integer, got {n}; a non-positive "
                "charge would refund budget and skew effort-matched comparisons"
            )
        self.used += int(n)

    # -- queries -----------------------------------------------------------
    @property
    def limited(self) -> bool:
        """True when any of the three limits is active."""
        return (
            self.max_evaluations is not None
            or self.max_seconds is not None
            or self.target_cost is not None
        )

    def evaluations_remaining(self) -> float:
        """Evaluations left before exhaustion (``inf`` when unlimited)."""
        if self.max_evaluations is None:
            return math.inf
        return max(0, self.max_evaluations - self.used)

    def clamp_batch(self, n: int) -> int:
        """Largest batch of size ``<= n`` the evaluation cap can still afford.

        Solvers size their final batch with this so ``used`` never exceeds
        ``max_evaluations``: an unlimited budget passes ``n`` through
        untouched (the common, free case), a limited one truncates to
        whatever is left — possibly 0, which a solver must treat as "do not
        evaluate anything" (and must not :meth:`charge` for).
        """
        if self.max_evaluations is None:
            return n
        return int(min(n, max(0, self.max_evaluations - self.used)))

    def exhausted(
        self, *, elapsed: float = 0.0, best_cost: float = math.inf
    ) -> tuple[str, str] | None:
        """``(kind, reason)`` of the first tripped limit, or ``None``.

        Checked by the loop between solver steps; the trip order (target,
        evaluations, seconds) is part of the documented hook/stop
        ordering guarantees (DESIGN.md §8).
        """
        if self.target_cost is not None and best_cost <= self.target_cost:
            return (
                BUDGET_TARGET,
                f"target cost {self.target_cost} reached (best {best_cost})",
            )
        if self.max_evaluations is not None and self.used >= self.max_evaluations:
            return (
                BUDGET_EVALUATIONS,
                f"evaluation budget of {self.max_evaluations} exhausted "
                f"({self.used} charged)",
            )
        if self.max_seconds is not None and elapsed >= self.max_seconds:
            return (
                BUDGET_SECONDS,
                f"time budget of {self.max_seconds}s exhausted ({elapsed:.3f}s)",
            )
        return None

    # -- checkpoint support -------------------------------------------------
    def export_state(self) -> dict[str, Any]:
        """JSON-able snapshot (limits + consumption) for checkpoints."""
        return {
            "max_evaluations": self.max_evaluations,
            "max_seconds": self.max_seconds,
            "target_cost": self.target_cost,
            "used": self.used,
        }

    @classmethod
    def from_state(cls, payload: dict[str, Any]) -> "EvaluationBudget":
        """Rebuild a budget (limits and evaluations already spent)."""
        budget = cls(
            max_evaluations=payload.get("max_evaluations"),
            max_seconds=payload.get("max_seconds"),
            target_cost=payload.get("target_cost"),
        )
        used = payload.get("used", 0)
        if isinstance(used, bool) or not isinstance(used, numbers.Integral):
            raise ConfigurationError(
                f"budget state has a non-integer 'used' field: {used!r}"
            )
        if used < 0:
            raise ConfigurationError(
                f"budget state has negative evaluations used: {used}"
            )
        budget.used = int(used)
        return budget

    def __repr__(self) -> str:
        limits = []
        if self.max_evaluations is not None:
            limits.append(f"max_evaluations={self.max_evaluations}")
        if self.max_seconds is not None:
            limits.append(f"max_seconds={self.max_seconds}")
        if self.target_cost is not None:
            limits.append(f"target_cost={self.target_cost}")
        inner = ", ".join(limits) if limits else "unlimited"
        return f"EvaluationBudget({inner}, used={self.used})"
