"""Single-chain cross-entropy optimizer for one-to-one mapping (Fig. 2 / §3).

This is the engine under MaTCH: it owns the CE iteration (sample → score
→ elite quantile → matrix update → stopping check). Samples are GenPerm
one-to-one mappings (Fig. 4) of ``n_rows`` tasks onto ``n_cols >= n_rows``
resources; a replacement sampler callable ``(P, n_samples, rng) ->
AssignmentBatch`` may stand in for GenPerm (the hot-path benchmark replays
an older GenPerm implementation this way).

The objective is a batch function mapping an ``(N, n_rows)`` integer batch
to ``(N,)`` costs — lower is better. The engine minimizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.ce.genperm import sample_permutations
from repro.ce.quantile import select_elites, select_top_k
from repro.ce.stochastic_matrix import StochasticMatrix
from repro.ce.stopping import (
    AnyOf,
    DegenerateMatrix,
    GammaStagnation,
    IterationState,
    MaxIterations,
    RowMaximaStable,
    StopKind,
    StoppingCriterion,
)
from repro.exceptions import ConfigurationError
from repro.runtime.budget import EvaluationBudget
from repro.types import AssignmentBatch, BatchObjectiveFn, ProbabilityMatrix, SeedLike
from repro.utils.rng import as_generator, generator_from_state, generator_state
from repro.utils.validation import check_in_range

__all__ = ["CEConfig", "CEResult", "CrossEntropyOptimizer"]

Sampler = Callable[[ProbabilityMatrix, int, np.random.Generator], AssignmentBatch]


@dataclass(frozen=True)
class CEConfig:
    """Hyper-parameters of one CE run.

    Attributes
    ----------
    n_samples:
        Batch size ``N`` per iteration (the paper uses ``2·|V_r|²``).
    rho:
        Focus parameter; elite fraction (paper: 0.01 ≤ ρ ≤ 0.1).
    zeta:
        Smoothing factor of Eq. (13); 1.0 disables smoothing (coarse
        update), the paper runs 0.3.
    stability_window:
        ``c`` of Eq. (12): iterations of unchanged row maxima (within
        ``stability_tol``) required to declare convergence. ``0`` disables
        the rule.
    stability_tol:
        Float tolerance for "unchanged" in the Eq. (12) check. The paper's
        exact-equality reading only ever fires once the matrix is exactly
        degenerate; under smoothing (ζ < 1) the maxima approach 1
        asymptotically, so a tolerance is required in practice.
    gamma_window:
        The generic CE criterion (Fig. 2 step 4): stop when the elite
        threshold ``γ`` has been unchanged this many iterations. ``0``
        disables. This typically fires first on cost plateaus, bounding
        mapping time without hurting quality.
    elite_mode:
        ``"exact_k"`` (default) keeps exactly the ``⌈ρN⌉`` best samples;
        ``"threshold"`` keeps every sample with cost ≤ γ (the textbook
        rule, which over-weights tied duplicates late in a run).
    max_iterations:
        Hard iteration budget (safety net; the adaptive criteria usually
        fire long before).
    track_matrices:
        Record a snapshot of the stochastic matrix every
        ``matrix_snapshot_every`` iterations (for Fig. 3 reproductions).
    matrix_snapshot_every:
        Snapshot stride when ``track_matrices`` is on.
    """

    n_samples: int
    rho: float = 0.05
    zeta: float = 0.3
    stability_window: int = 5
    stability_tol: float = 1e-6
    gamma_window: int = 12
    elite_mode: str = "exact_k"
    max_iterations: int = 500
    track_matrices: bool = False
    matrix_snapshot_every: int = 1

    def __post_init__(self) -> None:
        if self.n_samples < 2:
            raise ConfigurationError(f"n_samples must be >= 2, got {self.n_samples}")
        check_in_range("rho", self.rho, 0.0, 1.0, inclusive=(False, False))
        check_in_range("zeta", self.zeta, 0.0, 1.0, inclusive=(False, True))
        if self.stability_window < 0:
            raise ConfigurationError(
                f"stability_window must be >= 0, got {self.stability_window}"
            )
        if self.stability_tol < 0:
            raise ConfigurationError(f"stability_tol must be >= 0, got {self.stability_tol}")
        if self.gamma_window < 0:
            raise ConfigurationError(f"gamma_window must be >= 0, got {self.gamma_window}")
        if self.elite_mode not in ("exact_k", "threshold"):
            raise ConfigurationError(
                f"elite_mode must be 'exact_k' or 'threshold', got {self.elite_mode!r}"
            )
        if self.max_iterations < 1:
            raise ConfigurationError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.matrix_snapshot_every < 1:
            raise ConfigurationError(
                f"matrix_snapshot_every must be >= 1, got {self.matrix_snapshot_every}"
            )


@dataclass
class CEResult:
    """Outcome of a CE run, including per-iteration diagnostics.

    ``n_evaluations`` counts the sampled candidates (``N`` per iteration),
    every one of which the objective scored.
    """

    best_assignment: np.ndarray
    best_cost: float
    n_iterations: int
    n_evaluations: int
    stop_reason: str
    stop_kind: StopKind = StopKind.NOT_RUN
    gamma_history: list[float] = field(default_factory=list)
    best_cost_history: list[float] = field(default_factory=list)
    degeneracy_history: list[float] = field(default_factory=list)
    entropy_history: list[float] = field(default_factory=list)
    matrix_history: list[np.ndarray] = field(default_factory=list, repr=False)
    final_matrix: np.ndarray | None = field(default=None, repr=False)

    @property
    def converged(self) -> bool:
        """True when an adaptive rule (not a budget or external stop) fired."""
        return self.stop_kind not in (
            StopKind.BUDGET,
            StopKind.NOT_RUN,
            StopKind.EXTERNAL,
        )


class CrossEntropyOptimizer:
    """The CE engine: repeatedly sample, select elites, update, test stopping.

    Parameters
    ----------
    objective:
        Batch objective ``(N, n_rows) -> (N,)`` costs (minimized).
    n_rows, n_cols:
        Shape of the stochastic matrix (tasks × resources for MaTCH).
    config:
        Hyper-parameters.
    sampler:
        Replacement for GenPerm with the same signature; ``None`` (the
        default) samples with :func:`~repro.ce.genperm.sample_permutations`.
    rng:
        Seed or generator for the whole run.
    """

    def __init__(
        self,
        objective: BatchObjectiveFn,
        n_rows: int,
        n_cols: int,
        config: CEConfig,
        *,
        sampler: Sampler | None = None,
        rng: SeedLike = None,
        budget: "EvaluationBudget | None" = None,
    ) -> None:
        if n_rows < 1 or n_cols < 1:
            raise ConfigurationError(f"matrix dims must be >= 1, got ({n_rows}, {n_cols})")
        if n_rows > n_cols:
            raise ConfigurationError(
                "permutation sampling requires n_rows <= n_cols "
                f"(got {n_rows} tasks, {n_cols} resources)"
            )
        if sampler is not None and not callable(sampler):
            raise ConfigurationError(f"sampler must be a callable or None, got {sampler!r}")
        self.objective = objective
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.config = config
        self.rng = as_generator(rng)
        # Resolved from the module global at construction (not bound as a
        # default argument), so a wrapper installed on this module's
        # ``sample_permutations`` sees every call.
        self._sample = sample_permutations if sampler is None else sampler

        criteria: list[StoppingCriterion] = [MaxIterations(config.max_iterations)]
        if config.stability_window > 0:
            criteria.append(
                RowMaximaStable(config.stability_window, tol=config.stability_tol)
            )
        if config.gamma_window > 0:
            criteria.append(GammaStagnation(config.gamma_window))
        criteria.append(DegenerateMatrix())
        self.stopping = AnyOf(tuple(criteria))
        self._select = select_top_k if config.elite_mode == "exact_k" else select_elites
        self.matrix = StochasticMatrix.uniform(n_rows, n_cols)

        self.budget = budget if budget is not None else EvaluationBudget()
        self._result: CEResult | None = None
        self._best_cost: float = np.inf
        self._best_x = np.zeros(self.n_rows, dtype=np.int64)
        self._k = 0
        self._finished = False

    def bind_budget(self, budget: "EvaluationBudget") -> None:
        """Swap in the shared budget all scored rows are charged against."""
        self.budget = budget

    def _score(self, X: AssignmentBatch) -> np.ndarray:
        """Score every sampled row and charge them all to the budget."""
        costs = np.asarray(self.objective(X), dtype=np.float64)
        if costs.shape != (X.shape[0],):
            raise ConfigurationError(
                f"objective returned shape {costs.shape}, expected ({X.shape[0]},)"
            )
        self.budget.charge(X.shape[0])
        return costs

    # -- stepwise protocol (driven by repro.runtime.SearchLoop) -----------------
    def start(self) -> None:
        """Reset live state for a fresh run; pairs with step/finalize."""
        self.stopping.reset()
        self._best_cost = np.inf
        self._best_x = np.zeros(self.n_rows, dtype=np.int64)
        self._k = 0
        self._finished = False
        self._result = CEResult(
            best_assignment=self._best_x,
            best_cost=np.inf,
            n_iterations=0,
            n_evaluations=0,
            stop_reason="not run",
        )

    @property
    def finished(self) -> bool:
        """True once a stopping criterion (or an external stop) fired."""
        return self._finished

    @property
    def iteration(self) -> int:
        """Completed CE iterations of the current run."""
        return self._k

    @property
    def best_cost(self) -> float:
        """Incumbent best cost of the current run."""
        return float(self._best_cost)

    def step(self) -> bool:
        """One CE iteration (Fig. 5 steps 2-7); returns True on improvement.

        The sample batch is clamped to the evaluations the budget can still
        afford, so the final iteration of a capped run shrinks instead of
        overshooting ``max_evaluations``. Unlimited budgets pass
        ``n_samples`` through untouched — the RNG stream of unbudgeted runs
        is byte-identical to before.
        """
        cfg = self.config
        result = self._require_started()
        k = self._k + 1
        n_draw = self.budget.clamp_batch(cfg.n_samples)
        if n_draw < 1:
            # Only reachable when step() is driven without a budget-checking
            # loop; record a clean external stop instead of spinning forever.
            self.note_external_stop("evaluation budget exhausted before sampling")
            return False
        X = self._sample(self.matrix.view(), n_draw, self.rng)
        costs = self._score(X)
        result.n_evaluations += X.shape[0]

        gamma, elite_idx = self._select(costs, cfg.rho)
        iter_best = int(np.argmin(costs))
        improved = bool(costs[iter_best] < self._best_cost)
        if improved:
            self._best_cost = float(costs[iter_best])
            self._best_x = X[iter_best].copy()

        self.matrix.update_from_elites(X[elite_idx], zeta=cfg.zeta)

        result.gamma_history.append(float(gamma))
        result.best_cost_history.append(float(self._best_cost))
        result.degeneracy_history.append(self.matrix.degeneracy())
        result.entropy_history.append(self.matrix.entropy())
        if cfg.track_matrices and (k - 1) % cfg.matrix_snapshot_every == 0:
            result.matrix_history.append(self.matrix.values)
        result.n_iterations = k
        self._k = k

        state = IterationState(
            iteration=k,
            gamma=float(gamma),
            best_cost=float(self._best_cost),
            matrix=self.matrix,
        )
        if self.stopping.update(state):
            result.stop_reason = self.stopping.reason
            result.stop_kind = self.stopping.kind
            self._finished = True
        return improved

    def note_external_stop(self, reason: str) -> None:
        """Record that the surrounding loop ended the run (budget/interrupt)."""
        result = self._require_started()
        result.stop_reason = reason
        result.stop_kind = StopKind.EXTERNAL
        self._finished = True

    def finalize(self) -> CEResult:
        """Freeze and return the result of the current run."""
        cfg = self.config
        result = self._require_started()
        result.best_assignment = self._best_x
        result.best_cost = (
            float(self._best_cost) if np.isfinite(self._best_cost) else np.inf
        )
        result.final_matrix = self.matrix.values
        if cfg.track_matrices and (
            not result.matrix_history
            or not np.array_equal(result.matrix_history[-1], result.final_matrix)
        ):
            result.matrix_history.append(result.final_matrix)
        return result

    def _require_started(self) -> CEResult:
        if self._result is None:
            raise ConfigurationError("call start() before step()/finalize()")
        return self._result

    def run(self) -> CEResult:
        """Execute the CE loop (Fig. 5 steps 2-8) and return the result.

        Equivalent to ``start()`` + ``step()`` until ``finished`` +
        ``finalize()`` — the stepwise protocol the solver runtime drives;
        this convenience keeps the one-call API. ``MaxIterations`` is
        always in the criterion set, so the loop terminates.
        """
        self.start()
        while not self._finished:
            self.step()
        return self.finalize()

    # -- checkpoint support -----------------------------------------------------
    def export_state(self) -> dict:
        """JSON-able live run state: matrix, RNG position, histories, stopping.

        Restoring with :meth:`restore_state` on a freshly constructed
        optimizer (same config) resumes the run bit-for-bit: the next
        ``step()`` draws the exact samples the uninterrupted run would.
        """
        result = self._require_started()
        state: dict = {
            "k": self._k,
            "finished": self._finished,
            "matrix": self.matrix.values.tolist(),
            "rng": generator_state(self.rng),
            "best_cost": (
                float(self._best_cost) if np.isfinite(self._best_cost) else None
            ),
            "best_x": self._best_x.tolist(),
            "stopping": self.stopping.export_state(),
            "result": {
                "n_evaluations": result.n_evaluations,
                "stop_reason": result.stop_reason,
                "stop_kind": result.stop_kind.value,
                "gamma_history": list(result.gamma_history),
                "best_cost_history": list(result.best_cost_history),
                "degeneracy_history": list(result.degeneracy_history),
                "entropy_history": list(result.entropy_history),
            },
        }
        if self.config.track_matrices:
            state["matrix_history"] = [m.tolist() for m in result.matrix_history]
        return state

    def restore_state(self, state: dict) -> None:
        """Resume mid-run from :meth:`export_state` output (same config)."""
        self.matrix = StochasticMatrix(np.asarray(state["matrix"], dtype=np.float64))
        self.rng = generator_from_state(state["rng"])
        self._k = int(state["k"])
        self._finished = bool(state["finished"])
        best_cost = state.get("best_cost")
        self._best_cost = np.inf if best_cost is None else float(best_cost)
        self._best_x = np.asarray(state["best_x"], dtype=np.int64)
        self.stopping.reset()
        self.stopping.restore_state(state["stopping"])
        saved = state["result"]
        self._result = CEResult(
            best_assignment=self._best_x,
            best_cost=self._best_cost,
            n_iterations=self._k,
            n_evaluations=int(saved["n_evaluations"]),
            stop_reason=str(saved["stop_reason"]),
            stop_kind=StopKind(saved["stop_kind"]),
            gamma_history=[float(v) for v in saved["gamma_history"]],
            best_cost_history=[float(v) for v in saved["best_cost_history"]],
            degeneracy_history=[float(v) for v in saved["degeneracy_history"]],
            entropy_history=[float(v) for v in saved["entropy_history"]],
        )
        if self.config.track_matrices and "matrix_history" in state:
            self._result.matrix_history = [
                np.asarray(m, dtype=np.float64) for m in state["matrix_history"]
            ]
