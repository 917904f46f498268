"""Hierarchical FastMap — the full scheme of reference [16].

The paper benchmarks against "the GA part of our earlier scheme FastMap",
which in full is *hierarchical*: cluster the TIG so heavily-communicating
tasks travel together, map the (much smaller) cluster graph with the GA,
then project the cluster placement back to tasks. This module implements
that complete pipeline:

1. **cluster** — heavy-edge agglomeration into ``k`` clusters
   (:mod:`repro.graphs.clustering`), ``k`` = number of resources hosting
   more than one task is not needed here since the paper's setting is
   one-to-one at the *cluster* level: we pick ``k = n_resources`` when the
   TIG is larger than the platform, else ``k = n_tasks`` (clustering
   degenerates to identity and the scheme reduces to plain FastMap-GA);
2. **map** — FastMap-GA on the cluster graph vs. the resource graph;
3. **refine** — optional greedy swap descent on the task-level mapping
   (clusters pinned together), recovering some of the quality the
   coarsening gave up.

This mapper is the one baseline in the library that handles
``n_tasks > n_resources`` instances (many-to-one mappings), exactly the
regime hierarchical FastMap was built for.

Runs as a :class:`~repro.runtime.solver.SearchSolver` in two phases: the
first step executes cluster + nested GA (the GA itself runs in its own
budget-sharing loop), each later step is one refinement sweep. The
refine phase checkpoints at sweep granularity; a checkpoint taken after
the GA phase resumes without re-running the GA.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, ClassVar

import numpy as np

from repro.baselines.base import Mapper, MapperSolver
from repro.baselines.ga import FastMapGA, GAConfig
from repro.exceptions import CheckpointError, ConfigurationError
from repro.graphs.clustering import build_cluster_graph, heavy_edge_clustering
from repro.mapping.incremental import IncrementalEvaluator
from repro.mapping.problem import MappingProblem
from repro.runtime.solver import SolveOutput, StepReport
from repro.types import SeedLike
from repro.utils.rng import as_generator, generator_from_state, generator_state

__all__ = ["HierarchicalFastMapConfig", "HierarchicalFastMap"]


@dataclass(frozen=True)
class HierarchicalFastMapConfig:
    """Pipeline parameters."""

    ga: GAConfig = GAConfig(population_size=200, generations=300)
    refine_sweeps: int = 2  # 0 disables task-level refinement
    balance_exponent: float = 1.0

    def __post_init__(self) -> None:
        if self.refine_sweeps < 0:
            raise ConfigurationError(
                f"refine_sweeps must be >= 0, got {self.refine_sweeps}"
            )


class _HierarchicalSolver(MapperSolver):
    """Phase 1: cluster + nested GA in one step; then one refine sweep per step."""

    def __init__(self, config: HierarchicalFastMapConfig) -> None:
        super().__init__()
        self.config = config

    def start(self, problem: MappingProblem, seed: SeedLike) -> None:
        self._problem = problem
        self._gen = as_generator(seed)
        self._phase = "ga"
        self._refine_probes = 0
        self._sweep = 0

    @property
    def finished(self) -> bool:
        return self._phase == "done"

    def _cluster_problem(self) -> MappingProblem:
        """Phases 1-2 setup: cluster the TIG, build the (padded) GA instance."""
        problem = self._problem
        n_tasks, n_res = problem.n_tasks, problem.n_resources
        k = min(n_tasks, n_res)
        self._k = k

        # 1. Cluster the TIG down to k super-tasks.
        self._clustering = heavy_edge_clustering(
            problem.tig, k, balance_exponent=self.config.balance_exponent
        )
        cluster_tig = build_cluster_graph(problem.tig, self._clustering.labels, k)

        # 2. The cluster problem is square only when k == n_res; the GA
        #    needs square, so for k < n_res we pad with zero-weight dummy
        #    clusters.
        if k < n_res:
            pad = n_res - k
            node_w = np.concatenate([cluster_tig.node_weights, np.full(pad, 1e-12)])
            from repro.graphs.task_graph import TaskInteractionGraph

            padded = TaskInteractionGraph(
                node_w, cluster_tig.edges, cluster_tig.edge_weights,
                name=cluster_tig.name + "-padded",
            )
            return MappingProblem(padded, problem.resources)
        return MappingProblem(cluster_tig, problem.resources)

    def _step_ga(self) -> StepReport:
        problem = self._problem
        cluster_problem = self._cluster_problem()

        # Map the cluster graph with the GA; the nested run charges the
        # same budget this solver is bound to.
        ga_result = FastMapGA(self.config.ga).map(
            cluster_problem, self._gen, budget=self.budget
        )
        cluster_assignment = ga_result.assignment[: self._k]
        self._n_evals = ga_result.n_evaluations

        # 3. Project back: every task inherits its cluster's resource.
        self._assignment = cluster_assignment[self._clustering.labels].astype(np.int64)
        self._extras_base = {
            "n_clusters": self._k,
            "cluster_coverage": self._clustering.coverage,
            "cluster_cut_volume": self._clustering.cut_volume,
            "ga_cluster_cost": ga_result.execution_time,
        }

        # 4. Optional task-level refinement (tasks may leave their cluster).
        if self.config.refine_sweeps > 0 and problem.n_tasks >= 2:
            self._inc = IncrementalEvaluator(self.model, self._assignment)
            self._phase = "refine"
        else:
            self._phase = "done"
        it = self._iteration
        self._iteration += 1
        return StepReport(
            iteration=it,
            best_cost=self._current_cost(),
            improved=True,
            info={"phase": "ga", "ga_cluster_cost": ga_result.execution_time},
        )

    def _step_refine(self) -> StepReport:
        """One sweep of greedy refinement (swaps on one-to-one, moves otherwise).

        On one-to-one instances (n_tasks <= n_res) only *swaps* are probed,
        preserving injectivity so the result stays comparable with the
        other one-to-one baselines; on many-to-one instances free task
        moves are probed instead.
        """
        problem = self._problem
        inc = self._inc
        n_tasks, n_res = problem.n_tasks, problem.n_resources
        one_to_one = n_tasks <= n_res
        probes = 0
        improved = False
        # Final-sweep clamp: stop probing once the evaluation cap is spent
        # (the nested GA phase shares this budget, so a sweep may only be
        # able to afford a prefix of its candidate moves).
        remaining = self.budget.evaluations_remaining()
        order = self._gen.permutation(n_tasks)
        for t in order:
            if probes >= remaining:
                break
            current = inc.current_cost
            if one_to_one:
                best_partner = -1
                best_cost = current
                for t2 in range(n_tasks):
                    if probes >= remaining:
                        break
                    if t2 == t:
                        continue
                    cost = inc.swap_cost(int(t), t2)
                    probes += 1
                    if cost < best_cost - 1e-12:
                        best_cost = cost
                        best_partner = t2
                if best_partner >= 0:
                    inc.apply_swap(int(t), best_partner)
                    improved = True
            else:
                best_dest = -1
                best_cost = current
                for r in range(n_res):
                    if probes >= remaining:
                        break
                    cost = inc.move_cost(int(t), r)
                    probes += 1
                    if cost < best_cost - 1e-12:
                        best_cost = cost
                        best_dest = r
                if best_dest >= 0:
                    inc.apply_move(int(t), best_dest)
                    improved = True
        self._refine_probes += probes
        if probes:
            self.budget.charge(probes)
        self._sweep += 1
        if not improved or self._sweep >= self.config.refine_sweeps:
            self._assignment = inc.assignment
            self._n_evals += self._refine_probes
            self._phase = "done"
        it = self._iteration
        self._iteration += 1
        return StepReport(
            iteration=it,
            best_cost=self._current_cost(),
            improved=improved,
            info={"phase": "refine", "sweep": self._sweep, "probes": probes},
        )

    def step(self) -> StepReport:
        if self._phase == "ga":
            return self._step_ga()
        return self._step_refine()

    def _current_cost(self) -> float:
        return self._inc.current_cost if self._phase == "refine" else math.inf

    def note_external_stop(self, kind: str, reason: str) -> None:
        """Freeze mid-refinement: keep the partially refined assignment."""
        if self._phase == "refine":
            self._assignment = self._inc.assignment
            self._n_evals += self._refine_probes
            self._phase = "done"

    def finalize(self) -> SolveOutput:
        if self._phase == "ga":
            raise ConfigurationError(
                "hierarchical FastMap stopped before the GA phase completed"
            )
        extras = dict(self._extras_base)
        extras["refine_probes"] = self._refine_probes
        return SolveOutput(
            assignment=self._assignment,
            n_evaluations=self._n_evals,
            extras=extras,
        )

    # -- checkpointing -------------------------------------------------------
    def export_state(self) -> dict[str, Any]:
        if self._phase == "ga":
            # The nested GA runs inside one opaque step; there is no
            # consistent mid-GA state to persist at this level.
            raise CheckpointError(
                "hierarchical FastMap cannot checkpoint before the GA phase completes"
            )
        state: dict[str, Any] = {
            "phase": self._phase,
            "iteration": self._iteration,
            "sweep": self._sweep,
            "refine_probes": self._refine_probes,
            "n_evals": self._n_evals,
            "assignment": self._assignment.tolist(),
            "extras_base": self._extras_base,
            "rng": generator_state(self._gen),
        }
        if self._phase == "refine":
            state["inc"] = self._inc.export_state()
        return state

    def restore_state(self, problem: MappingProblem, state: dict[str, Any]) -> None:
        self._problem = problem
        self._gen = generator_from_state(state["rng"])
        self._phase = str(state["phase"])
        self._sweep = int(state["sweep"])
        self._refine_probes = int(state["refine_probes"])
        self._n_evals = int(state["n_evals"])
        self._assignment = np.asarray(state["assignment"], dtype=np.int64)
        self._extras_base = dict(state["extras_base"])
        self._iteration = int(state["iteration"])
        if self._phase == "refine":
            self._inc = IncrementalEvaluator.from_state(self.model, state["inc"])


class HierarchicalFastMap(Mapper):
    """Cluster → GA-map → refine, per the FastMap [16] description."""

    name = "FastMap-hier"
    registry_name: ClassVar[str | None] = "fastmap-hier"

    def __init__(
        self, config: HierarchicalFastMapConfig = HierarchicalFastMapConfig()
    ) -> None:
        self.config = config

    def checkpoint_params(self) -> dict[str, Any]:
        cfg = self.config
        return {
            "ga_population": cfg.ga.population_size,
            "ga_generations": cfg.ga.generations,
            "refine_sweeps": cfg.refine_sweeps,
            "balance_exponent": cfg.balance_exponent,
        }

    def _make_solver(self) -> MapperSolver:
        return _HierarchicalSolver(self.config)
