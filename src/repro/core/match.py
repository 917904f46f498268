"""MaTCH — Mapping Tasks using the Cross-Entropy Heuristic (Fig. 5).

The paper's contribution: specialise the CE method to the heterogeneous
mapping problem by

1. parameterizing the sampling distribution as a task×resource stochastic
   matrix, initially uniform (``P_0[i,j] = 1/|V_r|``);
2. sampling valid one-to-one mappings with GenPerm (Fig. 4);
3. scoring with the Eq. (2) execution time;
4. updating ``P`` from the elite ``ρ`` quantile via Eq. (11), smoothed by
   Eq. (13) with ``ζ = 0.3``;
5. stopping when the matrix commits (Eq. (12)).

:class:`MatchMapper` implements the :class:`~repro.baselines.base.Mapper`
interface (so the experiment harness treats it like any heuristic) and
exposes the full CE diagnostics through
:class:`~repro.core.result.MatchResult`.

Both the single run (one CE iteration per
:class:`~repro.runtime.loop.SearchLoop` step) and the fused ``map_many``
repetitions (one *joint* multi-chain iteration per step) run inside the
unified solver runtime, so budgets, hooks and checkpoints govern MaTCH
exactly as they govern every baseline.
"""

from __future__ import annotations

from typing import Any, ClassVar, Sequence

import numpy as np

from repro.baselines.base import Mapper, MapperResult, MapperSolver
from repro.ce.multichain import MultiChainCE, MultiChainResult
from repro.ce.optimizer import CrossEntropyOptimizer
from repro.core.config import MatchConfig
from repro.core.result import MatchResult
from repro.exceptions import ConfigurationError
from repro.mapping.cost_model import CostModel
from repro.mapping.problem import MappingProblem
from repro.runtime.budget import EvaluationBudget
from repro.runtime.hooks import SearchHooks
from repro.runtime.loop import SearchLoop
from repro.runtime.solver import SearchSolver, SolveOutput, StepReport
from repro.types import SeedLike

__all__ = ["MatchMapper", "match_map", "FUSED_CROSSOVER_MAX_TASKS", "prefer_fused"]

#: Measured fused/serial crossover for :meth:`MatchMapper.map_many`.
#:
#: The fused multi-chain engine wins below this task count and loses above
#: it, on both the numpy and compiled backends (BENCH_ce_hotpath.json and
#: a crossover scan at R ∈ {2, 4, 16} chains, max_iterations=500):
#:
#: ====  =====================  =========================
#: n     serial/fused (R=4)     notes
#: ====  =====================  =========================
#: 10    1.14x  (fused wins)    3.57x at the R=30 Table 3 load
#: 16    1.05x  (fused wins)    1.14x at R=2
#: 24    0.91x  (serial wins)   0.86x at R=16, ~1.04x at R=2
#: 32    0.89x  (serial wins)   0.75x at R=16
#: 50    0.75x  (serial wins)   0.85–0.88x at the bench's R=4
#: ====  =====================  =========================
#:
#: Above the crossover the joint batch (R·N candidate rows per iteration)
#: outgrows what batching amortizes: per-row scoring work is O(n + deg)
#: and dominates the Python overhead fusion removes, so fusing only adds
#: tensor bookkeeping. More chains make that *worse*, not better, at
#: large n.
FUSED_CROSSOVER_MAX_TASKS = 20


def prefer_fused(n_tasks: int, n_chains: int) -> bool:
    """True when the fused multi-chain path is the measured faster choice."""
    return n_chains >= 2 and n_tasks <= FUSED_CROSSOVER_MAX_TASKS


def _check_one_to_one(problem: MappingProblem) -> None:
    if problem.n_tasks > problem.n_resources:
        raise ConfigurationError(
            "MaTCH one-to-one sampling needs n_resources >= n_tasks "
            f"(got {problem.n_tasks} tasks, {problem.n_resources} resources)"
        )


class _MatchSolver(MapperSolver):
    """One CE iteration per step, via the optimizer's own step protocol."""

    def __init__(self, mapper: "MatchMapper") -> None:
        super().__init__()
        self.mapper = mapper
        self._optimizer: CrossEntropyOptimizer | None = None

    def _build_optimizer(self, problem: MappingProblem, seed: SeedLike) -> None:
        _check_one_to_one(problem)
        self._ce_cfg = self.mapper.config.ce_config(problem.n_resources)
        self._optimizer = CrossEntropyOptimizer(
            self.model.evaluate_batch,
            problem.n_tasks,
            problem.n_resources,
            self._ce_cfg,
            rng=seed,
            budget=self.budget,
        )
        self._problem = problem

    def start(self, problem: MappingProblem, seed: SeedLike) -> None:
        self._build_optimizer(problem, seed)
        self._optimizer.start()

    @property
    def finished(self) -> bool:
        return self._optimizer is not None and self._optimizer.finished

    def step(self) -> StepReport:
        improved = self._optimizer.step()
        it = self._iteration
        self._iteration += 1
        return StepReport(
            iteration=it,
            best_cost=self._optimizer.best_cost,
            improved=improved,
            info={"ce_iteration": self._optimizer.iteration},
        )

    def note_external_stop(self, kind: str, reason: str) -> None:
        self._optimizer.note_external_stop(reason)

    def finalize(self) -> SolveOutput:
        ce_result = self._optimizer.finalize()
        self.mapper._last_result = MatchResult(
            problem=self._problem,
            config=self.mapper.config,
            ce_result=ce_result,
        )
        extras: dict[str, Any] = {
            "iterations": ce_result.n_iterations,
            "stop_reason": ce_result.stop_reason,
            "n_samples_per_iteration": self._ce_cfg.n_samples,
            "final_degeneracy": (
                ce_result.degeneracy_history[-1] if ce_result.degeneracy_history else None
            ),
        }
        return SolveOutput(
            assignment=ce_result.best_assignment,
            n_evaluations=ce_result.n_evaluations,
            extras=extras,
        )

    # -- checkpointing -------------------------------------------------------
    def export_state(self) -> dict[str, Any]:
        return {"ce": self._optimizer.export_state(), "iteration": self._iteration}

    def restore_state(self, problem: MappingProblem, state: dict[str, Any]) -> None:
        self._build_optimizer(problem, None)
        self._optimizer.restore_state(state["ce"])
        self._iteration = int(state["iteration"])


class _MultiChainSolver(SearchSolver):
    """One *joint* multi-chain iteration per step (drives ``map_many``)."""

    def __init__(self, engine: MultiChainCE) -> None:
        super().__init__()
        self.engine = engine
        self.joint: MultiChainResult | None = None

    def start(self, problem: MappingProblem, seed: SeedLike) -> None:
        self.engine.bind_budget(self.budget)
        self.engine.start()

    @property
    def finished(self) -> bool:
        return self.engine.finished

    def step(self) -> StepReport:
        improved = self.engine.step()
        it = self._iteration
        self._iteration += 1
        return StepReport(
            iteration=it,
            best_cost=self.engine.best_cost,
            improved=improved,
            info={"live_chains": self.engine.n_live},
        )

    def note_external_stop(self, kind: str, reason: str) -> None:
        self.engine.note_external_stop(reason)

    def finalize(self) -> SolveOutput:
        self.joint = self.engine.finalize()
        best = self.joint.best
        return SolveOutput(
            assignment=best.best_assignment,
            n_evaluations=self.joint.n_evaluations,
            extras={"joint_chains": self.joint.n_chains},
        )


class MatchMapper(Mapper):
    """The MaTCH heuristic as a :class:`Mapper`."""

    name = "MaTCH"
    registry_name: ClassVar[str | None] = "match"

    def __init__(self, config: MatchConfig = MatchConfig()) -> None:
        self.config = config
        self._last_result: MatchResult | None = None

    @property
    def last_result(self) -> MatchResult | None:
        """Full diagnostics of the most recent :meth:`map` call."""
        return self._last_result

    def checkpoint_params(self) -> dict[str, Any]:
        cfg = self.config
        return {
            "rho": cfg.rho,
            "zeta": cfg.zeta,
            "n_samples": cfg.n_samples,
            "stability_window": cfg.stability_window,
            "stability_tol": cfg.stability_tol,
            "gamma_window": cfg.gamma_window,
            "elite_mode": cfg.elite_mode,
            "max_iterations": cfg.max_iterations,
            "track_matrices": cfg.track_matrices,
            "matrix_snapshot_every": cfg.matrix_snapshot_every,
        }

    def _make_solver(self) -> MapperSolver:
        return _MatchSolver(self)

    def map_many(
        self,
        problem: MappingProblem,
        seeds: Sequence[SeedLike],
        *,
        n_workers: int | None = None,
        budget: EvaluationBudget | None = None,
        hooks: SearchHooks | None = None,
        mode: str = "auto",
    ) -> list[MapperResult]:
        """Batched repetitions, fused or serial by the measured crossover.

        ``mode="fused"`` advances every seed as one multi-chain CE run
        (:class:`~repro.ce.multichain.MultiChainCE`): one shared
        :class:`CostModel`, one batched GenPerm/score/update pass per joint
        iteration, duplicates collapsed across chains. ``mode="serial"``
        runs a plain per-seed :meth:`map` loop. ``mode="auto"`` (the
        default) picks by the measured crossover (:func:`prefer_fused`):
        fused where fusion wins (small instances, ≥2 repetitions), serial
        where the joint batch outgrows what batching amortizes. Both paths
        are seed-for-seed exact — result ``r`` carries the same assignment,
        execution time, evaluation count and CE diagnostics a
        ``map(problem, seeds[r])`` call would produce — so the selection
        can never change a reported number, only the wall-clock. Each
        result's ``extras["multichain_mode"]`` records the path taken.

        ``mapping_time`` is the one field that differs in kind: the fused
        path amortizes the joint wall-clock evenly over the runs (how a
        per-run MT should be read in Table 3 style aggregates), the serial
        path reports each run's own stopwatch. ``budget`` caps the
        *combined* evaluations either way (the serial loop threads one
        shared budget through every run). ``n_workers`` is accepted for
        interface symmetry and ignored: both paths are single-process by
        design.
        """
        seeds = list(seeds)
        if not seeds:
            return []
        if mode not in ("auto", "fused", "serial"):
            raise ConfigurationError(
                f"map_many mode must be 'auto', 'fused' or 'serial', got {mode!r}"
            )
        _check_one_to_one(problem)
        if mode == "auto":
            mode = "fused" if prefer_fused(problem.n_tasks, len(seeds)) else "serial"
        if mode == "serial":
            results = []
            for seed in seeds:
                result = self.map(problem, seed, budget=budget, hooks=hooks)
                result.extras["multichain_mode"] = "serial"
                results.append(result)
            return results
        model = CostModel(problem)
        ce_cfg = self.config.ce_config(problem.n_resources)
        engine = MultiChainCE(
            model.evaluate_batch,
            problem.n_tasks,
            problem.n_resources,
            ce_cfg,
            seeds=seeds,
        )
        solver = _MultiChainSolver(engine)
        loop = SearchLoop(solver, budget=budget, hooks=hooks)
        outcome = loop.run(problem, None)
        joint = solver.joint
        assert joint is not None
        per_run_time = outcome.elapsed / len(seeds)
        results: list[MapperResult] = []
        for res in joint.chains:
            assignment = problem.check_assignment(
                np.asarray(res.best_assignment, dtype=np.int64)
            )
            results.append(
                MapperResult(
                    mapper_name=self.name,
                    assignment=assignment,
                    execution_time=model.evaluate(assignment),
                    mapping_time=per_run_time,
                    n_evaluations=res.n_evaluations,
                    extras={
                        "iterations": res.n_iterations,
                        "stop_reason": res.stop_reason,
                        "n_samples_per_iteration": ce_cfg.n_samples,
                        "final_degeneracy": (
                            res.degeneracy_history[-1]
                            if res.degeneracy_history
                            else None
                        ),
                        "joint_chains": joint.n_chains,
                        "multichain_mode": "fused",
                    },
                )
            )
        return results


def match_map(
    problem: MappingProblem,
    config: MatchConfig = MatchConfig(),
    rng: SeedLike = None,
) -> tuple[MapperResult, MatchResult]:
    """One-call convenience: run MaTCH, return ``(timed result, diagnostics)``."""
    mapper = MatchMapper(config)
    mapper_result = mapper.map(problem, rng)
    assert mapper.last_result is not None
    return mapper_result, mapper.last_result
