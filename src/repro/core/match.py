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

A single run and the fused ``map_many`` repetitions run the same CE
engine (:class:`~repro.ce.multichain.MultiChainCE`), with one chain and
with one chain per seed, one engine iteration per
:class:`~repro.runtime.loop.SearchLoop` step. Both run inside the unified
solver runtime, so budgets, hooks and checkpoints govern MaTCH exactly as
they govern every baseline.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.baselines.base import Mapper, MapperResult, MapperSolver
from repro.ce.multichain import CEResult, MultiChainCE, MultiChainResult
from repro.core.config import MatchConfig
from repro.core.result import MatchResult
from repro.exceptions import ConfigurationError, MappingError
from repro.mapping.cost_model import CostModel
from repro.mapping.problem import MappingProblem
from repro.runtime.budget import EvaluationBudget
from repro.runtime.hooks import SearchHooks
from repro.runtime.loop import SearchLoop
from repro.runtime.solver import SolveOutput, StepReport
from repro.types import SeedLike

__all__ = ["MatchMapper", "match_map"]


def _check_one_to_one(problem: MappingProblem) -> None:
    if problem.n_tasks > problem.n_resources:
        raise ConfigurationError(
            "MaTCH one-to-one sampling needs n_resources >= n_tasks "
            f"(got {problem.n_tasks} tasks, {problem.n_resources} resources)"
        )


class _MatchSolver(MapperSolver):
    """One CE iteration of every live chain per loop step.

    ``map`` runs one chain (``seeds=None``: the loop's seed); fused
    ``map_many`` runs one chain per seed. Either way the engine is
    :class:`~repro.ce.multichain.MultiChainCE`, charged against the loop's
    budget.
    """

    def __init__(
        self, mapper: "MatchMapper", seeds: Sequence[SeedLike] | None = None
    ) -> None:
        super().__init__()
        self.mapper = mapper
        self._seeds = seeds
        self.engine: MultiChainCE | None = None
        self.joint: MultiChainResult | None = None

    def _build_engine(self, problem: MappingProblem, seed: SeedLike) -> None:
        _check_one_to_one(problem)
        self._ce_cfg = self.mapper.config.ce_config(problem.n_resources)
        self.engine = MultiChainCE(
            self.model.evaluate_batch,
            problem.n_tasks,
            problem.n_resources,
            self._ce_cfg,
            seeds=[seed] if self._seeds is None else self._seeds,
        )
        self.engine.bind_budget(self.budget)
        self._problem = problem

    def start(self, problem: MappingProblem, seed: SeedLike) -> None:
        self._build_engine(problem, seed)
        self.engine.start()

    @property
    def finished(self) -> bool:
        return self.engine is not None and self.engine.finished

    def step(self) -> StepReport:
        improved = self.engine.step()
        it = self._iteration
        self._iteration += 1
        return StepReport(
            iteration=it,
            best_cost=self.engine.best_cost,
            improved=improved,
            info={"ce_iteration": self.engine.iteration, "live_chains": self.engine.n_live},
        )

    def note_external_stop(self, kind: str, reason: str) -> None:
        self.engine.note_external_stop(reason)

    def finalize(self) -> SolveOutput:
        self.joint = joint = self.engine.finalize()
        for r, chain in enumerate(joint.chains):
            if chain.n_evaluations == 0:
                # Its best mapping would be the all-zeros placeholder.
                raise MappingError(
                    f"MaTCH chain {r} scored no mapping before it stopped "
                    f"({chain.stop_reason})"
                )
        if self._seeds is not None:
            best = joint.best
            return SolveOutput(
                assignment=best.best_assignment,
                n_evaluations=joint.n_evaluations,
                extras={"joint_chains": joint.n_chains},
            )
        ce_result = joint.chains[0]
        self.mapper._last_result = MatchResult(
            problem=self._problem,
            config=self.mapper.config,
            ce_result=ce_result,
        )
        return SolveOutput(
            assignment=ce_result.best_assignment,
            n_evaluations=ce_result.n_evaluations,
            extras=_chain_extras(ce_result, self._ce_cfg.n_samples),
        )

    # -- checkpointing (one chain) -------------------------------------------
    def export_state(self) -> dict[str, Any]:
        return {"ce": self.engine.export_state(), "iteration": self._iteration}

    def restore_state(self, problem: MappingProblem, state: dict[str, Any]) -> None:
        self._build_engine(problem, None)
        self.engine.restore_state(state["ce"])
        self._iteration = int(state["iteration"])


def _chain_extras(res: CEResult, n_samples: int) -> dict[str, Any]:
    """The per-run extras every MaTCH result reports."""
    return {
        "iterations": res.n_iterations,
        "stop_reason": res.stop_reason,
        "n_samples_per_iteration": n_samples,
        "final_degeneracy": (
            res.degeneracy_history[-1] if res.degeneracy_history else None
        ),
    }


class MatchMapper(Mapper):
    """The MaTCH heuristic as a :class:`Mapper`."""

    name = "MaTCH"

    def __init__(self, config: MatchConfig = MatchConfig()) -> None:
        self.config = config
        self._last_result: MatchResult | None = None

    @property
    def last_result(self) -> MatchResult | None:
        """Full diagnostics of the most recent :meth:`map` call."""
        return self._last_result

    def _make_solver(self) -> MapperSolver:
        return _MatchSolver(self)

    def map_many(
        self,
        problem: MappingProblem,
        seeds: Sequence[SeedLike],
        *,
        budget: EvaluationBudget | None = None,
        hooks: SearchHooks | None = None,
    ) -> list[MapperResult]:
        """Batched repetitions: one fused multi-chain CE run, one chain per seed.

        Every seed advances in one :class:`~repro.ce.multichain.MultiChainCE`
        run: one shared :class:`CostModel`, one batched GenPerm/score/update
        pass per joint iteration, every sampled row scored. The run is
        seed-for-seed exact: result ``r`` carries the same assignment,
        execution time, evaluation count and CE diagnostics a
        ``map(problem, seeds[r])`` call would produce.

        ``mapping_time`` is the joint wall-clock amortized evenly over the
        runs (how a per-run MT should be read in Table 3 style aggregates).
        ``budget`` caps the *combined* evaluations: a joint step draws only
        the rows the budget can still pay for, ``N`` per live chain in
        chain order, so every chain spends in the same step rather than
        the earlier seeds first. Each result's ``n_evaluations`` is the
        rows its chain scored, so they sum to what the budget charged. A
        chain the budget leaves without a single scored row raises
        :class:`~repro.exceptions.MappingError` rather than return a
        mapping it never scored. The run stays in the calling process.
        """
        seeds = list(seeds)
        if not seeds:
            return []
        _check_one_to_one(problem)
        model = CostModel(problem)
        solver = _MatchSolver(self, seeds)
        solver.model = model
        outcome = SearchLoop(solver, budget=budget, hooks=hooks).run(problem, None)
        joint = solver.joint
        assert joint is not None
        per_run_time = outcome.elapsed / len(seeds)
        results: list[MapperResult] = []
        for res in joint.chains:
            assignment = problem.check_assignment(
                np.asarray(res.best_assignment, dtype=np.int64)
            )
            extras = _chain_extras(res, solver._ce_cfg.n_samples)
            extras["joint_chains"] = joint.n_chains
            results.append(
                MapperResult(
                    mapper_name=self.name,
                    assignment=assignment,
                    execution_time=model.evaluate(assignment),
                    mapping_time=per_run_time,
                    n_evaluations=res.n_evaluations,
                    extras=extras,
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
