"""Stopping criteria for CE iterations.

The paper's criterion (Eq. (12)) declares convergence when the maximal
element of *every* row of the stochastic matrix has been unchanged for
``c`` consecutive iterations (``c = 5``). The generic CE tutorial's
criterion (Fig. 2, step 4) instead watches the elite threshold ``γ``.
Both are provided, together with an iteration budget and a full-degeneracy
test, and can be combined with :class:`AnyOf`.

A criterion is an object with ``update(state) -> bool`` (True = stop),
``reset()`` and a structured ``kind``; ``state`` is the
:class:`IterationState` snapshot the optimizer publishes each iteration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.ce.stochastic_matrix import StochasticMatrix
from repro.exceptions import ConfigurationError

__all__ = [
    "StopKind",
    "IterationState",
    "StoppingCriterion",
    "RowMaximaStable",
    "GammaStagnation",
    "MaxIterations",
    "DegenerateMatrix",
    "AnyOf",
]


class StopKind(enum.Enum):
    """Structured identity of the rule that ended a CE run.

    ``CEResult.converged`` and friends branch on this enum instead of
    string-matching ``stop_reason`` (which is free-form human text).
    ``BUDGET`` is the only non-adaptive kind: a run that stops for any
    other reason counted as converged.
    """

    NOT_RUN = "not_run"
    BUDGET = "budget"
    ROW_MAXIMA_STABLE = "row_maxima_stable"
    GAMMA_STAGNATION = "gamma_stagnation"
    DEGENERATE = "degenerate"
    #: The run was ended from outside the CE engine — an
    #: :class:`repro.runtime.budget.EvaluationBudget` limit or an
    #: interrupt in the surrounding :class:`repro.runtime.loop.SearchLoop`.
    EXTERNAL = "external"


@dataclass(frozen=True)
class IterationState:
    """Everything a stopping rule may inspect after one CE iteration."""

    iteration: int
    gamma: float
    best_cost: float
    matrix: StochasticMatrix


class StoppingCriterion:
    """Interface: ``update`` consumes one iteration, returns True to stop."""

    def update(self, state: IterationState) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    def reset(self) -> None:
        """Forget accumulated history (called before a fresh run)."""

    @property
    def reason(self) -> str:
        """Human-readable reason, valid after ``update`` returned True."""
        return type(self).__name__

    @property
    def kind(self) -> StopKind:  # pragma: no cover - interface
        """Structured stop kind of this rule."""
        raise NotImplementedError

    # -- checkpoint support (stateless criteria need no override) ----------
    def export_state(self) -> dict:
        """JSON-able snapshot of accumulated history (for checkpoints)."""
        return {}

    def restore_state(self, state: dict) -> None:
        """Rebuild accumulated history from :meth:`export_state` output."""


class RowMaximaStable(StoppingCriterion):
    """Eq. (12): every row maximum ``μ^i`` unchanged for ``c`` iterations.

    Float-tolerant: two consecutive row-max vectors count as "unchanged"
    when equal within ``tol``. The counter requires ``c`` *consecutive*
    stable steps and resets on any change.
    """

    def __init__(self, c: int = 5, *, tol: float = 1e-9) -> None:
        if c < 1:
            raise ConfigurationError(f"c must be >= 1, got {c}")
        if tol < 0:
            raise ConfigurationError(f"tol must be >= 0, got {tol}")
        self.c = c
        self.tol = tol
        self._prev: np.ndarray | None = None
        self._stable = 0

    def update(self, state: IterationState) -> bool:
        mu = state.matrix.row_maxima()
        # Same boolean as np.allclose(mu, prev, atol=tol, rtol=0) for the
        # finite values seen here, without allclose's broadcasting overhead
        # (this runs once per chain per iteration in the multi-chain loop).
        if self._prev is not None and bool((np.abs(mu - self._prev) <= self.tol).all()):
            self._stable += 1
        else:
            self._stable = 0
        self._prev = mu
        return self._stable >= self.c

    def reset(self) -> None:
        self._prev = None
        self._stable = 0

    def export_state(self) -> dict:
        return {
            "prev": None if self._prev is None else self._prev.tolist(),
            "stable": self._stable,
        }

    def restore_state(self, state: dict) -> None:
        prev = state.get("prev")
        self._prev = None if prev is None else np.asarray(prev, dtype=np.float64)
        self._stable = int(state.get("stable", 0))

    @property
    def reason(self) -> str:
        return f"row maxima stable for {self.c} iterations (Eq. 12)"

    @property
    def kind(self) -> StopKind:
        return StopKind.ROW_MAXIMA_STABLE


class GammaStagnation(StoppingCriterion):
    """Fig. 2 step 4: the elite threshold ``γ`` unchanged for ``k`` iterations."""

    def __init__(self, k: int = 5, *, tol: float = 1e-9) -> None:
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        self.k = k
        self.tol = tol
        self._prev: float | None = None
        self._stable = 0

    def update(self, state: IterationState) -> bool:
        if self._prev is not None and abs(state.gamma - self._prev) <= self.tol:
            self._stable += 1
        else:
            self._stable = 0
        self._prev = state.gamma
        return self._stable >= self.k

    def reset(self) -> None:
        self._prev = None
        self._stable = 0

    def export_state(self) -> dict:
        return {"prev": self._prev, "stable": self._stable}

    def restore_state(self, state: dict) -> None:
        prev = state.get("prev")
        self._prev = None if prev is None else float(prev)
        self._stable = int(state.get("stable", 0))

    @property
    def reason(self) -> str:
        return f"elite threshold gamma stagnant for {self.k} iterations"

    @property
    def kind(self) -> StopKind:
        return StopKind.GAMMA_STAGNATION


class MaxIterations(StoppingCriterion):
    """Hard iteration budget (safety net around the adaptive rules)."""

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ConfigurationError(f"limit must be >= 1, got {limit}")
        self.limit = limit

    def update(self, state: IterationState) -> bool:
        return state.iteration >= self.limit

    @property
    def reason(self) -> str:
        return f"iteration budget of {self.limit} exhausted"

    @property
    def kind(self) -> StopKind:
        return StopKind.BUDGET


class DegenerateMatrix(StoppingCriterion):
    """Stop once the matrix is (numerically) fully degenerate (Fig. 3 endpoint)."""

    def __init__(self, *, tol: float = 1e-6) -> None:
        if tol < 0:
            raise ConfigurationError(f"tol must be >= 0, got {tol}")
        self.tol = tol

    def update(self, state: IterationState) -> bool:
        return state.matrix.is_degenerate(tol=self.tol)

    @property
    def reason(self) -> str:
        return "stochastic matrix degenerate"

    @property
    def kind(self) -> StopKind:
        return StopKind.DEGENERATE


@dataclass
class AnyOf(StoppingCriterion):
    """Stop as soon as any member criterion fires; reports which one."""

    criteria: tuple[StoppingCriterion, ...]
    _fired: StoppingCriterion | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not self.criteria:
            raise ConfigurationError("AnyOf needs at least one criterion")

    def update(self, state: IterationState) -> bool:
        fired = False
        # Update every member each iteration so their histories stay warm.
        for crit in self.criteria:
            if crit.update(state) and not fired:
                self._fired = crit
                fired = True
        return fired

    def reset(self) -> None:
        self._fired = None
        for crit in self.criteria:
            crit.reset()

    def export_state(self) -> dict:
        # Positional: the resuming process rebuilds the identical criterion
        # tuple from config, so index i pairs with the same criterion.
        return {"members": [crit.export_state() for crit in self.criteria]}

    def restore_state(self, state: dict) -> None:
        members = state.get("members", [])
        if len(members) != len(self.criteria):
            raise ConfigurationError(
                f"stopping state has {len(members)} members, "
                f"expected {len(self.criteria)} — config mismatch on resume"
            )
        for crit, member in zip(self.criteria, members):
            crit.restore_state(member)

    @property
    def reason(self) -> str:
        return self._fired.reason if self._fired is not None else "not stopped"

    @property
    def kind(self) -> StopKind:
        return self._fired.kind if self._fired is not None else StopKind.NOT_RUN
