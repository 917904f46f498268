"""Multi-chain CE engine: R independent chains as one stochastic tensor.

Every headline number in the paper aggregates many independent CE runs
(Table 3 alone is 30, Tables 1-2 / Figs. 7-9 sweep repetitions per
instance). Running those chains one at a time wastes the vectorization the
library already has: each chain's per-iteration numpy work is small enough
that Python overhead dominates at ``n = 10``.

:class:`MultiChainCE` advances ``R`` chains simultaneously:

* the stochastic matrices live in one ``(R, n_tasks, n_resources)``
  tensor;
* one batched GenPerm pass (:func:`repro.ce.genperm.sample_permutations_stacked`)
  samples all ``R × N`` permutations through a single flattened
  ``(R·N, n_res)`` position loop;
* all candidates are scored with ONE objective call per joint iteration,
  after collapsing duplicates across every chain (near-degenerate chains
  — and chains that have converged to the same mapping — share scores);
* Eq. (11)+(13) matrix updates run as one stacked ``bincount``
  (:func:`repro.ce.stochastic_matrix.stacked_elite_update`), and the
  degeneracy/entropy diagnostics are computed on the whole tensor.

Each chain owns its generator, and one vectorized tracker keeps every
chain's stopping counters as arrays, replicating the sequential
optimizer's criterion set (iteration budget, Eq. (12) row-maxima
stability, γ stagnation, degeneracy) rule for rule. So chain ``r`` of a
multi-chain run is **bit-identical** to a standalone
:class:`~repro.ce.optimizer.CrossEntropyOptimizer` run seeded the same way
— the property the test suite pins and the experiment layer relies on to
swap the serial repetition loops for this engine without changing any
reported number. Chains that stop early are frozen and dropped from the
live set; the joint loop ends when every chain has stopped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.ce.genperm import sample_permutations_stacked
from repro.ce.optimizer import CEConfig, CEResult
from repro.ce.quantile import select_elites, select_top_k
from repro.ce.stochastic_matrix import StochasticMatrix, stacked_elite_update
from repro.ce.stopping import StopKind
from repro.exceptions import ConfigurationError
from repro.runtime.budget import EvaluationBudget
from repro.types import BatchObjectiveFn, SeedLike
from repro.utils.dedup import collapse_duplicate_rows, pack_rows
from repro.utils.rng import as_generator

__all__ = ["MultiChainResult", "MultiChainCE"]


@dataclass
class MultiChainResult:
    """Outcome of a joint multi-chain run.

    ``chains[r]`` is a full per-chain :class:`CEResult`, field-for-field
    equal (histories included) to what a sequential single-chain run with
    the same seed would have produced — except the dedup diagnostics,
    which for a joint run live here: duplicates are collapsed across *all*
    live chains at once, so the collapse rate is a property of the joint
    batch, not of any one chain.
    """

    chains: list[CEResult]
    n_joint_iterations: int
    n_evaluations: int
    n_unique_evaluations: int
    dedup_rate_history: list[float] = field(default_factory=list)

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

    @property
    def dedup_collapse_rate(self) -> float:
        """Overall fraction of candidate rows collapsed as duplicates."""
        if self.n_evaluations <= 0:
            return 0.0
        return 1.0 - self.n_unique_evaluations / self.n_evaluations


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
        stream a sequential run seeded with ``seeds[r]`` would.
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
        self._select = select_top_k if config.elite_mode == "exact_k" else select_elites
        self.budget = EvaluationBudget()
        self._started = False

    def bind_budget(self, budget: EvaluationBudget) -> None:
        """Swap in the shared budget all freshly scored rows are charged against."""
        self.budget = budget

    # -- scoring ---------------------------------------------------------------
    def _score_joint(
        self, flat: np.ndarray, result: MultiChainResult
    ) -> np.ndarray:
        """Score the concatenated live batch, collapsing cross-chain duplicates.

        On top of the within-batch collapse, packable alphabets get a
        cross-*iteration* memo: a sorted array of row keys with the exact
        float the objective returned for each. Successive CE iterations
        sample from slowly-moving distributions, so late iterations find
        almost every unique candidate already scored. The memo is exact —
        a hit returns the very float the objective computed for that row.

        A capped budget clamps how many *fresh* rows are scored: rows past
        the cap receive ``+inf`` (they can never become an incumbent best)
        and are neither charged nor memoized, so ``used`` stops exactly at
        ``max_evaluations`` while the chains' sampling RNG streams remain
        byte-identical to an uncapped run.
        """
        result.n_evaluations += flat.shape[0]
        if not self.config.dedup:
            n_score = self.budget.clamp_batch(flat.shape[0])
            costs = np.full(flat.shape[0], np.inf)
            if n_score:
                scored = np.asarray(self.objective(flat[:n_score]), dtype=np.float64)
                if scored.shape != (n_score,):
                    raise ConfigurationError(
                        f"objective returned shape {scored.shape}, expected ({n_score},)"
                    )
                costs[:n_score] = scored
                self.budget.charge(n_score)
            result.n_unique_evaluations += n_score
            return costs
        keys = pack_rows(flat, self.n_cols)
        if keys is None:
            unique_rows, inverse = collapse_duplicate_rows(flat, self.n_cols)
            n_score = self.budget.clamp_batch(unique_rows.shape[0])
            unique_costs = np.full(unique_rows.shape[0], np.inf)
            if n_score:
                scored = np.asarray(
                    self.objective(unique_rows[:n_score]), dtype=np.float64
                )
                if scored.shape != (n_score,):
                    raise ConfigurationError(
                        f"objective returned shape {scored.shape}, "
                        f"expected ({n_score},)"
                    )
                unique_costs[:n_score] = scored
                self.budget.charge(n_score)
            result.n_unique_evaluations += n_score
            result.dedup_rate_history.append(1.0 - n_score / flat.shape[0])
            return unique_costs[inverse]
        # Resolve every row against the memo first; only keys never seen in
        # any iteration are deduped and scored. Once chains sharpen, whole
        # batches resolve without a single objective call or unique() pass.
        K = self._memo_keys.shape[0]
        pos = np.searchsorted(self._memo_keys, keys)
        if K:
            hit = self._memo_keys[np.minimum(pos, K - 1)] == keys
        else:
            hit = np.zeros(keys.shape[0], dtype=bool)
        costs = np.empty(keys.shape[0])
        if hit.any():
            costs[hit] = self._memo_costs[pos[hit]]
        n_score = 0
        if not hit.all():
            miss = ~hit
            miss_keys, minv = np.unique(keys[miss], return_inverse=True)
            n_fresh = miss_keys.shape[0]
            # Budget clamp: score only the affordable prefix of the fresh
            # keys; the remainder costs +inf and stays OUT of the memo (an
            # unscored row must be rescored if a later run can afford it).
            n_score = self.budget.clamp_batch(n_fresh)
            miss_costs = np.full(n_fresh, np.inf)
            if n_score:
                # Unpack the packed keys back into rows (bijective, so the
                # unpacked digits are exactly the original row values).
                rem = miss_keys[:n_score].copy()
                miss_rows = np.empty((n_score, self.n_rows), dtype=np.int64)
                for c in range(self.n_rows - 1, -1, -1):
                    np.mod(rem, self.n_cols, out=miss_rows[:, c])
                    rem //= self.n_cols
                scored = np.asarray(self.objective(miss_rows), dtype=np.float64)
                if scored.shape != (n_score,):
                    raise ConfigurationError(
                        f"objective returned shape {scored.shape}, "
                        f"expected ({n_score},)"
                    )
                miss_costs[:n_score] = scored
                self.budget.charge(n_score)
            costs[miss] = miss_costs[minv]
            if n_score:
                # One-pass sorted merge of the freshly *scored* keys into
                # the memo (np.unique returns sorted keys, so the prefix is
                # itself sorted).
                ins = np.searchsorted(self._memo_keys, miss_keys[:n_score])
                tgt = ins + np.arange(n_score)
                new_keys = np.empty(K + n_score, dtype=np.int64)
                new_costs = np.empty(K + n_score)
                keep = np.ones(K + n_score, dtype=bool)
                keep[tgt] = False
                new_keys[tgt] = miss_keys[:n_score]
                new_costs[tgt] = miss_costs[:n_score]
                new_keys[keep] = self._memo_keys
                new_costs[keep] = self._memo_costs
                self._memo_keys = new_keys
                self._memo_costs = new_costs
        result.n_unique_evaluations += n_score
        result.dedup_rate_history.append(1.0 - n_score / flat.shape[0])
        return costs

    # -- the joint loop ---------------------------------------------------------
    def start(self) -> None:
        """Allocate joint live state for a fresh run; pairs with step/finalize."""
        cfg = self.config
        R = self.n_chains
        n_t, n_r = self.n_rows, self.n_cols
        # Fresh score memo per run (sorted key -> exact objective float).
        self._memo_keys = np.empty(0, dtype=np.int64)
        self._memo_costs = np.empty(0, dtype=np.float64)
        P0 = StochasticMatrix.uniform(n_t, n_r).values
        self._P = np.broadcast_to(P0, (R, n_t, n_r)).copy()
        self._best_costs = np.full(R, np.inf)
        self._best_xs = [np.zeros(n_t, dtype=np.int64) for _ in range(R)]
        self._chain_results = [
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
            chains=self._chain_results,
            n_joint_iterations=0,
            n_evaluations=0,
            n_unique_evaluations=0,
        )
        self._live = list(range(R))
        self._k = 0

        # Per-chain history rows, scatter-filled each joint iteration and
        # sliced into the CEResult list form when a chain stops.
        self._histories = (
            np.empty((R, cfg.max_iterations)),
            np.empty((R, cfg.max_iterations)),
            np.empty((R, cfg.max_iterations)),
            np.empty((R, cfg.max_iterations)),
        )

        # Vectorized stopping state: per-chain stability counters kept as
        # arrays, replicating RowMaximaStable / GammaStagnation /
        # DegenerateMatrix / MaxIterations chain by chain. Tolerances and
        # reasons mirror the optimizer's criterion construction.
        self._rm_prev = np.zeros((R, n_t))
        self._rm_has_prev = np.zeros(R, dtype=bool)
        self._rm_stable = np.zeros(R, dtype=np.int64)
        self._g_prev = np.zeros(R)
        self._g_has_prev = np.zeros(R, dtype=bool)
        self._g_stable = np.zeros(R, dtype=np.int64)
        self._reasons = {
            StopKind.BUDGET: f"iteration budget of {cfg.max_iterations} exhausted",
            StopKind.ROW_MAXIMA_STABLE: (
                f"row maxima stable for {cfg.stability_window} iterations (Eq. 12)"
            ),
            StopKind.GAMMA_STAGNATION: (
                f"elite threshold gamma stagnant for {cfg.gamma_window} iterations"
            ),
            StopKind.DEGENERATE: "stochastic matrix degenerate",
        }
        self._started = True

    @property
    def finished(self) -> bool:
        """True once every chain has stopped (or the iteration cap is hit)."""
        return self._started and (
            not self._live or self._k >= self.config.max_iterations
        )

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

    def step(self) -> bool:
        """One joint iteration over every live chain; True if any chain improved."""
        if not self._started:
            raise ConfigurationError("step() before start()")
        cfg = self.config
        N = cfg.n_samples
        n_t = self.n_rows
        P = self._P
        live = self._live
        best_costs = self._best_costs
        best_xs = self._best_xs
        chain_results = self._chain_results
        joint = self._joint
        histories = self._histories
        gh, bh, dh, eh = histories
        rm_prev = self._rm_prev
        rm_has_prev = self._rm_has_prev
        rm_stable = self._rm_stable
        g_prev = self._g_prev
        g_has_prev = self._g_has_prev
        g_stable = self._g_stable
        k = self._k + 1
        self._k = k
        joint.n_joint_iterations = k
        L = len(live)

        # 1. Sample all live chains. Each chain draws from its own
        #    generator in the exact order a sequential run would: one
        #    flat fill per chain covers both the order keys and the
        #    roulette uniforms (PCG64 fills doubles sequentially, so a
        #    single (2·N·n_t,) draw is stream-identical to the two
        #    separate draws the sequential sampler makes).
        buf = np.empty((L, 2 * N * n_t))
        for j, r in enumerate(live):
            self._gens[r].random(out=buf[j])
        rand_orders = buf[:, : N * n_t].reshape(L, N, n_t)
        rand_pos = buf[:, N * n_t :].reshape(L, n_t, N)
        Xs = sample_permutations_stacked(P[live], rand_orders, rand_pos)

        # 2. One fused scoring call over every live chain's candidates.
        costs = self._score_joint(Xs.reshape(L * N, n_t), joint).reshape(L, N)

        # 3. Per-chain elite selection and best tracking. The exact-k
        #    mode is batched: one row-wise argpartition replaces L
        #    select_top_k calls (same partition kernel per row, so the
        #    elite sets and gammas match the sequential path exactly;
        #    the per-call NaN validation is skipped on this hot path).
        if self._select is select_top_k:
            k_elite = max(1, int(np.ceil(cfg.rho * N)))
            elite_idx2 = np.argpartition(costs, k_elite - 1, axis=1)[:, :k_elite]
            gammas = np.take_along_axis(costs, elite_idx2, axis=1).max(axis=1)
            elites_flat = Xs[np.arange(L)[:, np.newaxis], elite_idx2].reshape(
                L * k_elite, n_t
            )
            elite_sizes = np.full(L, k_elite, dtype=np.int64)
        else:
            gammas = np.empty(L)
            elite_chunks: list[np.ndarray] = []
            elite_sizes = np.empty(L, dtype=np.int64)
            for j in range(L):
                gamma, elite_idx = self._select(costs[j], cfg.rho)
                gammas[j] = gamma
                elite_chunks.append(Xs[j][elite_idx])
                elite_sizes[j] = elite_idx.shape[0]
            elites_flat = np.concatenate(elite_chunks)
        iter_best = np.argmin(costs, axis=1)
        iter_best_costs = costs[np.arange(L), iter_best]
        la = np.asarray(live, dtype=np.int64)
        improved = np.nonzero(iter_best_costs < best_costs[la])[0]
        if improved.size:
            best_costs[la[improved]] = iter_best_costs[improved]
            for j in improved:
                best_xs[live[j]] = Xs[j, iter_best[j]].copy()

        # 4. Stacked Eq. (11)+(13) update — one bincount for all chains.
        P_live = stacked_elite_update(
            P[live], elites_flat, elite_sizes, zeta=cfg.zeta
        )
        P[live] = P_live

        # 5. Vectorized per-chain diagnostics on the updated tensor.
        mu = P_live.max(axis=2)  # (L, n_rows) row maxima, Eq. (12)
        degeneracies = mu.mean(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            ent_terms = np.where(P_live > 0, -P_live * np.log(P_live), 0.0)
        entropies = ent_terms.sum(axis=2).mean(axis=1)

        # 6. Stopping: every chain's counters update as array ops; firing
        #    priority follows the optimizer's AnyOf order (budget, Eq. 12
        #    stability, gamma stagnation, degeneracy).
        rm_close = rm_has_prev[la] & (
            np.abs(mu - rm_prev[la]) <= cfg.stability_tol
        ).all(axis=1)
        rm_stable[la] = np.where(rm_close, rm_stable[la] + 1, 0)
        rm_prev[la] = mu
        rm_has_prev[la] = True
        g_close = g_has_prev[la] & (np.abs(gammas - g_prev[la]) <= 1e-9)
        g_stable[la] = np.where(g_close, g_stable[la] + 1, 0)
        g_prev[la] = gammas
        g_has_prev[la] = True
        budget_fire = k >= cfg.max_iterations
        rm_fire = (
            rm_stable[la] >= cfg.stability_window
            if cfg.stability_window > 0
            else np.zeros(L, dtype=bool)
        )
        g_fire = (
            g_stable[la] >= cfg.gamma_window
            if cfg.gamma_window > 0
            else np.zeros(L, dtype=bool)
        )
        deg_fire = (mu >= 1.0 - 1e-6).all(axis=1)

        # 7. Histories land in preallocated per-chain rows (converted
        #    to the sequential run's list form only at finalize) and
        #    stopped chains retire from the live set. The common
        #    mid-run case — nobody fires — is a single branch.
        gh[la, k - 1] = gammas
        bh[la, k - 1] = best_costs[la]
        dh[la, k - 1] = degeneracies
        eh[la, k - 1] = entropies
        if cfg.track_matrices and (k - 1) % cfg.matrix_snapshot_every == 0:
            for r in live:
                chain_results[r].matrix_history.append(P[r].copy())
        fired = rm_fire | g_fire | deg_fire
        if budget_fire:
            fired = np.ones(L, dtype=bool)
        if not fired.any():
            return bool(improved.size)
        reasons = self._reasons
        survivors: list[int] = []
        for j, r in enumerate(live):
            if not fired[j]:
                survivors.append(r)
                continue
            if budget_fire:
                kind = StopKind.BUDGET
            elif rm_fire[j]:
                kind = StopKind.ROW_MAXIMA_STABLE
            elif g_fire[j]:
                kind = StopKind.GAMMA_STAGNATION
            else:
                kind = StopKind.DEGENERATE
            res = chain_results[r]
            res.stop_reason = reasons[kind]
            res.stop_kind = kind
            self._finalize_chain(
                res, r, k, P[r], best_costs[r], best_xs[r], histories
            )
        self._live = survivors
        return bool(improved.size)

    def note_external_stop(self, reason: str) -> None:
        """Freeze every still-live chain with an EXTERNAL stop (budget/interrupt)."""
        if not self._started:
            return
        for r in self._live:
            res = self._chain_results[r]
            res.stop_reason = reason
            res.stop_kind = StopKind.EXTERNAL
            self._finalize_chain(
                res,
                r,
                self._k,
                self._P[r],
                self._best_costs[r],
                self._best_xs[r],
                self._histories,
            )
        self._live = []

    def finalize(self) -> MultiChainResult:
        """Freeze any leftover live chains and return the joint result."""
        if not self._started:
            raise ConfigurationError("finalize() before start()")
        # MaxIterations bounds the loop, so every chain has stopped by now
        # whenever step() ran to completion; the guard below is a safety net
        # for external termination between steps.
        for r in self._live:
            res = self._chain_results[r]
            res.stop_reason = "iteration budget exhausted"
            res.stop_kind = StopKind.BUDGET
            self._finalize_chain(
                res,
                r,
                self._joint.n_joint_iterations,
                self._P[r],
                self._best_costs[r],
                self._best_xs[r],
                self._histories,
            )
        self._live = []
        return self._joint

    def run(self) -> MultiChainResult:
        """Advance every chain to its own stopping point; return all results."""
        self.start()
        while not self.finished:
            self.step()
        return self.finalize()

    def _finalize_chain(
        self,
        res: CEResult,
        r: int,
        n_iter: int,
        P_r: np.ndarray,
        best_cost: float,
        best_x: np.ndarray,
        histories: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    ) -> None:
        """Freeze a chain's result exactly as the sequential run would."""
        gh, bh, dh, eh = histories
        res.n_iterations = n_iter
        res.n_evaluations = self.config.n_samples * n_iter
        res.gamma_history = gh[r, :n_iter].tolist()
        res.best_cost_history = bh[r, :n_iter].tolist()
        res.degeneracy_history = dh[r, :n_iter].tolist()
        res.entropy_history = eh[r, :n_iter].tolist()
        res.best_assignment = best_x
        res.best_cost = float(best_cost)
        res.final_matrix = P_r.copy()
        if self.config.track_matrices and (
            not res.matrix_history
            or not np.array_equal(res.matrix_history[-1], res.final_matrix)
        ):
            res.matrix_history.append(res.final_matrix)
