"""The CE engine: R independent chains advanced as one stochastic tensor.

This module owns the one CE iteration (Fig. 5 steps 2-7): GenPerm sample
→ Eq. (2) score → ρ-elite quantile → Eq. (11)+(13) update → stop check.
Samples are GenPerm one-to-one mappings (Fig. 4) of ``n_rows`` tasks onto
``n_cols >= n_rows`` resources; the objective is a batch function mapping
an ``(M, n_rows)`` integer batch to ``(M,)`` costs, lower is better.

:class:`MultiChainCE` advances ``R`` chains at once. A single MaTCH run is
``R = 1`` (:class:`~repro.ce.optimizer.CrossEntropyOptimizer` is that
case with a single-run API); Table 3 style repetitions are ``R > 1``:

* the stochastic matrices live in one ``(R, n_tasks, n_resources)``
  tensor;
* one batched GenPerm pass (:func:`repro.ce.genperm.sample_permutations_stacked`)
  samples every live chain's ``N`` permutations through a single
  flattened position loop;
* all candidates are scored with ONE objective call per joint iteration;
* Eq. (11)+(13) matrix updates run as one stacked ``bincount``
  (:func:`repro.ce.stochastic_matrix.stacked_elite_update`), and the
  degeneracy/entropy diagnostics are computed on the whole tensor;
* the stop rules keep per-chain counters as arrays: the iteration budget,
  Eq. (12) row-maxima stability, elite-threshold ``γ`` stagnation (Fig. 2
  step 4) and full degeneracy, firing in that priority order.

:func:`ce_round` is the iteration up to the stop check (sample, score,
select, update) over a chain stack, and every CE caller runs it:
:class:`MultiChainCE` (every ``MatchMapper`` solve), the agent simulation
(:class:`~repro.core.distributed.DistributedMatchMapper`) and the island
runtime (:mod:`repro.islands.chains`).

Each chain owns its generator and draws from it exactly what a run of its
own would, so chain ``r`` of a joint run is bit-identical to a one-chain
run seeded with ``seeds[r]``. Chains that stop are frozen and dropped from
the live set; the joint loop ends when every chain has stopped.

Budget edge: a joint step draws only the rows the bound
:class:`~repro.runtime.budget.EvaluationBudget` can still pay for, allotted
to the live chains in chain order, at most ``N`` each. A chain allotted
fewer than ``N`` rows samples, scores and updates on just those; a chain
allotted none stops with :attr:`StopKind.EXTERNAL` without drawing. Every
chain's ``n_evaluations`` is the rows it scored, so their sum is what the
budget charged.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.ce.genperm import sample_permutations_stacked
from repro.ce.quantile import select_elites
from repro.ce.stochastic_matrix import StochasticMatrix, stacked_elite_update
from repro.ce.stopping import StopKind
from repro.exceptions import CheckpointError, ConfigurationError
from repro.runtime.budget import EvaluationBudget
from repro.types import BatchObjectiveFn, SeedLike
from repro.utils.rng import as_generator, generator_from_state, generator_state
from repro.utils.validation import check_in_range, is_row_stochastic

__all__ = ["CEConfig", "CEResult", "MultiChainResult", "MultiChainCE", "ce_round"]

#: ``γ`` counts as unchanged within this absolute tolerance.
GAMMA_TOL = 1e-9
#: A row is committed once its maximum is within this of 1.
DEGENERATE_TOL = 1e-6


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
    """Outcome of one CE chain, including per-iteration diagnostics.

    ``n_evaluations`` counts the rows the chain sampled, every one of which
    the objective scored: ``N`` per iteration, fewer on a budget-edge step.
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


@dataclass
class MultiChainResult:
    """Outcome of a joint multi-chain run.

    ``chains[r]`` is a full per-chain :class:`CEResult`, field-for-field
    equal (histories included) to a one-chain run with the same seed.
    ``n_evaluations`` counts every scored row of every chain.
    """

    chains: list[CEResult]
    n_joint_iterations: int
    n_evaluations: int

    @property
    def n_chains(self) -> int:
        """Number of chains advanced."""
        return len(self.chains)

    @property
    def best_index(self) -> int:
        """Index of the chain holding the overall best mapping."""
        return int(np.argmin([c.best_cost for c in self.chains]))

    @property
    def best(self) -> CEResult:
        """The chain result with the lowest best cost."""
        return self.chains[self.best_index]


def ce_round(
    P: np.ndarray,
    gens: Sequence[np.random.Generator],
    objective: BatchObjectiveFn,
    n: int,
    rho: float,
    zeta: float,
    elite_mode: str = "exact_k",
    *,
    buffers: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One CE iteration of a chain stack: sample, score, select, update.

    Chain ``j`` of the ``(L, n_rows, n_cols)`` stack ``P`` (not modified)
    draws from ``gens[j]`` — into ``buffers``, ``(L, n, n_rows)`` and
    ``(L, n_rows, n)`` arrays, when given — samples ``n`` rows and is
    updated from its own elites. Returns the updated stack, the
    ``(L, n, n_rows)`` samples, their ``(L, n)`` costs and each chain's
    elite threshold ``γ``.
    """
    L, n_t, _ = P.shape
    # 1. Sample. Each chain draws its task-order uniforms, then its
    #    roulette uniforms, from its own generator: the same stream a
    #    one-chain run consumes.
    if buffers is None:
        rand_orders, rand_pos = np.empty((L, n, n_t)), np.empty((L, n_t, n))
    else:
        rand_orders, rand_pos = buffers
    for j, gen in enumerate(gens):
        gen.random(out=rand_orders[j])
        gen.random(out=rand_pos[j])
    Xs = sample_permutations_stacked(P, rand_orders, rand_pos)

    # 2. One scoring call over every chain's candidates.
    M = L * n
    costs = np.asarray(objective(Xs.reshape(M, n_t)), dtype=np.float64)
    if costs.shape != (M,):
        raise ConfigurationError(f"objective returned shape {costs.shape}, expected ({M},)")
    costs = costs.reshape(L, n)

    # 3. Elite selection. Exact-k is batched: one row-wise argpartition
    #    (the partition kernel quantile.select_top_k runs per row, so
    #    elite sets and gammas match it).
    if elite_mode == "exact_k":
        k_elite = max(1, math.ceil(rho * n))
        elite_idx = np.argpartition(costs, k_elite - 1, axis=1)[:, :k_elite]
        rows = np.arange(L)[:, np.newaxis]
        gammas = costs[rows, elite_idx].max(axis=1)
        elites = Xs[rows, elite_idx].reshape(L * k_elite, n_t)
        elite_sizes = np.full(L, k_elite, dtype=np.int64)
    else:
        gammas = np.empty(L)
        chunks: list[np.ndarray] = []
        elite_sizes = np.empty(L, dtype=np.int64)
        for j in range(L):
            gammas[j], idx = select_elites(costs[j], rho)
            chunks.append(Xs[j][idx])
            elite_sizes[j] = idx.shape[0]
        elites = np.concatenate(chunks)

    # 4. Stacked Eq. (11)+(13) update: one bincount for all chains.
    P_new = stacked_elite_update(P, elites, elite_sizes, zeta=zeta)
    return P_new, Xs, costs, gammas


class MultiChainCE:
    """Advance ``R`` independent CE chains through one batched loop.

    Parameters
    ----------
    objective:
        Pure batch objective ``(M, n_rows) -> (M,)`` costs (minimized).
        One call scores the concatenated candidates of every live chain.
    n_rows, n_cols:
        Shape of each chain's stochastic matrix.
    config:
        Shared hyper-parameters (every chain runs the same config, as the
        paper's repetition protocols do).
    seeds:
        One seed-like per chain; chain ``r`` consumes exactly the random
        stream a one-chain run seeded with ``seeds[r]`` would.
    """

    def __init__(
        self,
        objective: BatchObjectiveFn,
        n_rows: int,
        n_cols: int,
        config: CEConfig,
        *,
        seeds: Sequence[SeedLike],
    ) -> None:
        if n_rows < 1 or n_cols < 1:
            raise ConfigurationError(f"matrix dims must be >= 1, got ({n_rows}, {n_cols})")
        if len(seeds) < 1:
            raise ConfigurationError("need at least one chain seed")
        if n_rows > n_cols:
            raise ConfigurationError(
                "permutation sampling requires n_rows <= n_cols "
                f"(got {n_rows} tasks, {n_cols} resources)"
            )
        self.objective = objective
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.config = config
        self._gens = [as_generator(s) for s in seeds]
        self.n_chains = len(self._gens)
        self.budget = EvaluationBudget()
        self._started = False
        self._reasons = {
            StopKind.BUDGET: f"iteration budget of {config.max_iterations} exhausted",
            StopKind.ROW_MAXIMA_STABLE: (
                f"row maxima stable for {config.stability_window} iterations (Eq. 12)"
            ),
            StopKind.GAMMA_STAGNATION: (
                f"elite threshold gamma stagnant for {config.gamma_window} iterations"
            ),
            StopKind.DEGENERATE: "stochastic matrix degenerate",
        }

    def bind_budget(self, budget: EvaluationBudget) -> None:
        """Swap in the shared budget all scored rows are charged against."""
        self.budget = budget

    # -- live state -------------------------------------------------------------
    def start(self) -> None:
        """Allocate joint live state for a fresh run; pairs with step/finalize."""
        R = self.n_chains
        cfg = self.config
        n_t, n_r = self.n_rows, self.n_cols
        P0 = StochasticMatrix.uniform(n_t, n_r).values
        self._P = np.broadcast_to(P0, (R, n_t, n_r)).copy()
        self._best_costs = np.full(R, np.inf)
        self._best_xs = [np.zeros(n_t, dtype=np.int64) for _ in range(R)]
        self._evals = np.zeros(R, dtype=np.int64)
        self._results = [
            CEResult(
                best_assignment=self._best_xs[r],
                best_cost=np.inf,
                n_iterations=0,
                n_evaluations=0,
                stop_reason="not run",
            )
            for r in range(R)
        ]
        self._joint = MultiChainResult(
            chains=self._results, n_joint_iterations=0, n_evaluations=0
        )
        self._live = list(range(R))
        self._k = 0
        # Per-chain history rows, scatter-filled each joint iteration and
        # sliced into the CEResult list form when a chain stops.
        self._histories = tuple(np.empty((R, cfg.max_iterations)) for _ in range(4))
        # Stop-rule counters, one entry per chain. NaN marks "no previous
        # value": it compares unequal to everything.
        self._rm_prev = np.full((R, n_t), np.nan)
        self._rm_stable = np.zeros(R, dtype=np.int64)
        self._g_prev = np.full(R, np.nan)
        self._g_stable = np.zeros(R, dtype=np.int64)
        # GenPerm uniforms, refilled in place every full step: a fresh
        # multi-megabyte block per step costs page faults at n = 50.
        N = cfg.n_samples
        self._u_orders = np.empty((R, N, n_t))
        self._u_pos = np.empty((R, n_t, N))
        self._started = True

    @property
    def finished(self) -> bool:
        """True once every chain has stopped."""
        return self._started and not self._live

    @property
    def iteration(self) -> int:
        """Completed joint iterations of the current run."""
        return self._k

    @property
    def best_cost(self) -> float:
        """Lowest incumbent cost across all chains."""
        return float(np.min(self._best_costs)) if self._started else float("inf")

    @property
    def n_live(self) -> int:
        """Chains still advancing."""
        return len(self._live) if self._started else 0

    # -- the joint loop ---------------------------------------------------------
    def step(self) -> bool:
        """One CE iteration of every live chain; True if any chain improved."""
        if not self._started:
            raise ConfigurationError("step() before start()")
        N = self.config.n_samples
        live = self._live
        n_draw = self.budget.clamp_batch(len(live) * N)
        if n_draw == len(live) * N:
            groups = [(live, N)]
        else:
            groups = self._allot(n_draw)
            if not groups:
                return False
        k = self._k + 1
        self._k = k
        self._joint.n_joint_iterations = k
        improved = False
        survivors: list[int] = []
        for chains, n in groups:
            group_improved, kept = self._advance(chains, n)
            improved = improved or group_improved
            survivors += kept
        self._live = survivors
        return improved

    def _allot(self, n_draw: int) -> list[tuple[list[int], int]]:
        """Budget edge: split ``n_draw`` rows over the live chains in order.

        Returns ``(chains, rows each)`` groups: the chains that get all
        ``N`` rows, then at most one chain with the remainder. Chains left
        without rows stop EXTERNAL before drawing anything.
        """
        N = self.config.n_samples
        n_full, n_part = divmod(n_draw, N)
        live = self._live
        n_fed = n_full + (1 if n_part else 0)
        for r in live[n_fed:]:
            self._stop_chain(
                r, StopKind.EXTERNAL, "evaluation budget exhausted before sampling"
            )
        self._live = live[:n_fed]
        groups = []
        if n_full:
            groups.append((live[:n_full], N))
        if n_part:
            groups.append((live[n_full:n_fed], n_part))
        return groups

    def _advance(self, chains: list[int], n: int) -> tuple[bool, list[int]]:
        """The current iteration of ``chains``, each drawing ``n`` rows.

        Returns whether any chain improved and the chains still live.
        """
        cfg = self.config
        k = self._k
        n_t = self.n_rows
        P = self._P
        L = len(chains)
        # Index the chains' state rows with a slice when they are
        # contiguous (always so at one chain): views cost less than gathers.
        la: slice | np.ndarray = (
            slice(chains[0], chains[0] + L)
            if chains[-1] - chains[0] == L - 1
            else np.asarray(chains, dtype=np.int64)
        )

        buffers = (self._u_orders[:L], self._u_pos[:L]) if n == cfg.n_samples else None
        gens = [self._gens[r] for r in chains]
        P_live, Xs, costs, gammas = ce_round(
            P[la], gens, self.objective, n, cfg.rho, cfg.zeta, cfg.elite_mode, buffers=buffers
        )
        P[la] = P_live
        M = L * n
        self.budget.charge(M)
        self._evals[la] += n
        self._joint.n_evaluations += M
        best_costs = self._best_costs
        iter_best = costs.argmin(axis=1)
        iter_best_costs = costs.min(axis=1)
        improved = np.nonzero(iter_best_costs < best_costs[la])[0]
        for j in improved:
            best_costs[chains[j]] = iter_best_costs[j]
            self._best_xs[chains[j]] = Xs[j, iter_best[j]].copy()

        # Diagnostics on the updated tensor.
        mu = P_live.max(axis=2)  # (L, n_rows) row maxima, Eq. (12)
        with np.errstate(divide="ignore", invalid="ignore"):
            ent_terms = np.where(P_live > 0, -P_live * np.log(P_live), 0.0)
        gh, bh, dh, eh = self._histories
        gh[la, k - 1] = gammas
        bh[la, k - 1] = best_costs[la]
        dh[la, k - 1] = mu.sum(axis=1) / n_t  # the row means, as np.mean forms them
        eh[la, k - 1] = ent_terms.sum(axis=2).sum(axis=1) / n_t
        if cfg.track_matrices and (k - 1) % cfg.matrix_snapshot_every == 0:
            for r in chains:
                self._results[r].matrix_history.append(P[r].copy())

        # Stop rules. Every counter advances every step; when several
        # rules fire at once the first of budget, Eq. (12) stability,
        # γ stagnation and degeneracy names the stop.
        rm_close = (np.abs(mu - self._rm_prev[la]) <= cfg.stability_tol).all(axis=1)
        rm_stable = (self._rm_stable[la] + 1) * rm_close
        self._rm_stable[la] = rm_stable
        self._rm_prev[la] = mu
        g_close = np.abs(gammas - self._g_prev[la]) <= GAMMA_TOL
        g_stable = (self._g_stable[la] + 1) * g_close
        self._g_stable[la] = g_stable
        self._g_prev[la] = gammas
        off = np.zeros(L, dtype=bool)
        rm_fire = rm_stable >= cfg.stability_window if cfg.stability_window > 0 else off
        g_fire = g_stable >= cfg.gamma_window if cfg.gamma_window > 0 else off
        deg_fire = (mu >= 1.0 - DEGENERATE_TOL).all(axis=1)
        budget_fire = k >= cfg.max_iterations
        if not budget_fire and not (rm_fire | g_fire | deg_fire).any():
            return bool(improved.size), chains
        survivors: list[int] = []
        for j, r in enumerate(chains):
            if budget_fire:
                kind = StopKind.BUDGET
            elif rm_fire[j]:
                kind = StopKind.ROW_MAXIMA_STABLE
            elif g_fire[j]:
                kind = StopKind.GAMMA_STAGNATION
            elif deg_fire[j]:
                kind = StopKind.DEGENERATE
            else:
                survivors.append(r)
                continue
            self._stop_chain(r, kind, self._reasons[kind])
        return bool(improved.size), survivors

    def note_external_stop(self, reason: str) -> None:
        """Freeze every still-live chain with an EXTERNAL stop (budget/interrupt)."""
        if not self._started:
            return
        for r in self._live:
            self._stop_chain(r, StopKind.EXTERNAL, reason)
        self._live = []

    def finalize(self) -> MultiChainResult:
        """Freeze any leftover live chains and return the joint result."""
        if not self._started:
            raise ConfigurationError("finalize() before start()")
        # The iteration budget bounds the loop, so every chain has stopped
        # by now whenever step() ran to completion; this is a safety net
        # for a caller that finalizes between steps.
        for r in self._live:
            self._stop_chain(r, StopKind.BUDGET, "iteration budget exhausted")
        self._live = []
        return self._joint

    def run(self) -> MultiChainResult:
        """Advance every chain to its own stopping point; return all results."""
        self.start()
        while not self.finished:
            self.step()
        return self.finalize()

    def _stop_chain(self, r: int, kind: StopKind, reason: str) -> None:
        """Freeze chain ``r``'s result after the iterations it has run."""
        n_iter = self._k
        res = self._results[r]
        res.stop_kind = kind
        res.stop_reason = reason
        res.n_iterations = n_iter
        res.n_evaluations = int(self._evals[r])
        gh, bh, dh, eh = self._histories
        res.gamma_history = gh[r, :n_iter].tolist()
        res.best_cost_history = bh[r, :n_iter].tolist()
        res.degeneracy_history = dh[r, :n_iter].tolist()
        res.entropy_history = eh[r, :n_iter].tolist()
        res.best_assignment = self._best_xs[r]
        res.best_cost = float(self._best_costs[r])
        res.final_matrix = self._P[r].copy()
        if self.config.track_matrices and (
            not res.matrix_history
            or not np.array_equal(res.matrix_history[-1], res.final_matrix)
        ):
            res.matrix_history.append(res.final_matrix)

    # -- checkpoint support (one chain) -----------------------------------------
    def _counters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(prev, stable)`` of each counting rule in force.

        A checkpoint lists the rules positionally: the iteration budget,
        these (Eq. (12) stability, then γ stagnation), then degeneracy.
        """
        cfg = self.config
        counters = []
        if cfg.stability_window > 0:
            counters.append((self._rm_prev, self._rm_stable))
        if cfg.gamma_window > 0:
            counters.append((self._g_prev, self._g_stable))
        return counters

    def _require_one_chain(self) -> None:
        if self.n_chains != 1:
            raise CheckpointError(
                f"checkpoints hold one CE chain; this engine runs {self.n_chains}"
            )

    def export_state(self) -> dict:
        """JSON-able live run state: matrix, RNG position, histories, stopping.

        Restoring with :meth:`restore_state` on a freshly constructed
        one-chain engine (same config) resumes the run bit-for-bit: the
        next ``step()`` draws the exact samples the uninterrupted run would.
        """
        self._require_one_chain()
        if not self._started:
            raise ConfigurationError("call start() before exporting state")
        k = self._k
        best_cost = self._best_costs[0]
        res = self._results[0]
        gh, bh, dh, eh = self._histories
        members: list[dict] = [{}]
        for prev, stable in self._counters():
            members.append(
                {
                    "prev": None if np.isnan(prev[0]).any() else prev[0].tolist(),
                    "stable": int(stable[0]),
                }
            )
        members.append({})
        state: dict = {
            "k": k,
            "finished": not self._live,
            "matrix": self._P[0].tolist(),
            "rng": generator_state(self._gens[0]),
            "best_cost": float(best_cost) if np.isfinite(best_cost) else None,
            "best_x": self._best_xs[0].tolist(),
            "stopping": {"members": members},
            "result": {
                "n_evaluations": int(self._evals[0]),
                "stop_reason": res.stop_reason,
                "stop_kind": res.stop_kind.value,
                "gamma_history": gh[0, :k].tolist(),
                "best_cost_history": bh[0, :k].tolist(),
                "degeneracy_history": dh[0, :k].tolist(),
                "entropy_history": eh[0, :k].tolist(),
            },
        }
        if self.config.track_matrices:
            state["matrix_history"] = [m.tolist() for m in res.matrix_history]
        return state

    def restore_state(self, state: dict) -> None:
        """Resume mid-run from :meth:`export_state` output (same config).

        A checkpoint is outside input: a missing or malformed field raises
        :class:`CheckpointError` naming ``state.ce.<field>``. A NaN or
        off-simplex matrix would sample differently per kernel backend
        instead of failing, so the matrix must be row-stochastic.
        """
        self._require_one_chain()
        self.start()
        shape = self._P.shape[1:]
        members = _read(state, "stopping", lambda stopping: list(stopping.get("members", [])))
        counters = self._counters()
        if len(members) != len(counters) + 2:
            raise ConfigurationError(
                f"stopping state has {len(members)} members, "
                f"expected {len(counters) + 2} — config mismatch on resume"
            )
        for i, (prev, stable) in enumerate(counters, start=1):
            prev[0], stable[0] = _read(members, i, _counter, prev.shape[1:], at="stopping.members.")
        k = _read(state, "k", operator.index)
        if not 0 <= k <= self.config.max_iterations:
            raise CheckpointError(f"state.ce.k must be in [0, {self.config.max_iterations}]")
        self._k = self._joint.n_joint_iterations = k
        self._P[0] = _read(state, "matrix", _array, shape)
        if not is_row_stochastic(self._P[0]):
            raise CheckpointError("state.ce.matrix rows must be probabilities summing to 1")
        self._gens[0] = _read(state, "rng", generator_from_state)
        self._best_costs[0] = _read(state, "best_cost", lambda c: np.inf if c is None else float(c))
        self._best_xs[0] = _read(state, "best_x", _array, shape[:1], np.int64)
        saved = _read(state, "result", dict)
        n_evaluations = _read(saved, "n_evaluations", operator.index, at="result.")
        self._evals[0] = self._joint.n_evaluations = n_evaluations
        for hist, key in zip(
            self._histories,
            ("gamma_history", "best_cost_history", "degeneracy_history", "entropy_history"),
        ):
            hist[0, :k] = _read(saved, key, _array, (k,), at="result.")
        res = self._results[0]
        if self.config.track_matrices and "matrix_history" in state:
            res.matrix_history = _read(
                state, "matrix_history", lambda ms: [_array(m, shape) for m in ms]
            )
        if _read(state, "finished", bool):
            kind = _read(saved, "stop_kind", StopKind, at="result.")
            self._stop_chain(0, kind, _read(saved, "stop_reason", str, at="result."))
            self._live = []



def _read(state: Any, key: str | int, parse: Callable[..., Any], *args: Any, at: str = "") -> Any:
    """``parse(state[key], *args)``; any defect is a :class:`CheckpointError`
    naming the field ``state.ce.<at><key>``."""
    try:
        return parse(state[key], *args)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise CheckpointError(f"state.ce.{at}{key} is missing or malformed: {exc}") from exc


def _array(value: Any, shape: tuple[int, ...], dtype: type = np.float64) -> np.ndarray:
    arr = np.asarray(value, dtype=dtype)
    if arr.shape != shape:
        raise ValueError(f"expected shape {shape}, got {arr.shape}")
    return arr


def _counter(member: dict, shape: tuple[int, ...]) -> tuple[Any, int]:
    """One stopping member's ``(prev, stable)``; ``prev`` is NaN before round 1."""
    prev = member.get("prev")
    stable = operator.index(member.get("stable", 0))
    return (np.nan if prev is None else _array(prev, shape)), stable
