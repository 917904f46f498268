"""FastMap-GA — the paper's baseline heuristic (§5.1).

A permutation-encoded genetic algorithm with:

* random-permutation initial population;
* fitness ``Ψ(M) = K / Exec(M)`` and *roulette wheel* parent selection;
* the Fig. 6(a) single-point crossover with duplicate repair
  (``p_c = 0.85``);
* the Fig. 6(b) per-gene swap mutation (``p_m = 0.07``);
* *elitism* (the generation's best survives unchanged);
* termination after a fixed, pre-defined number of generations (the paper
  notes a principled GA stopping rule "is not trivial" and uses a fixed
  budget).

Paper configurations: population 500 × 1000 generations for Tables 1-2;
100 × 10000 and 1000 × 1000 for the Table 3 ANOVA study.

The per-generation work (cost evaluation, selection, crossover) is
batched over the population with numpy; only the swap mutation walks
individual genes (it is a data-dependent sequential scan).

Runs as a :class:`~repro.runtime.solver.SearchSolver` at one-generation
granularity; the live state (population, costs, incumbent, RNG position)
checkpoints and resumes bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.baselines.base import Mapper, MapperSolver
from repro.baselines.ga_operators import (
    fitness,
    roulette_select,
    single_point_crossover,
    swap_mutation,
)
from repro.exceptions import ConfigurationError
from repro.runtime.solver import SolveOutput, StepReport
from repro.types import SeedLike
from repro.utils.rng import as_generator, generator_from_state, generator_state
from repro.utils.validation import check_probability

__all__ = ["GAConfig", "FastMapGA"]


@dataclass(frozen=True)
class GAConfig:
    """FastMap-GA hyper-parameters (§5.1/§5.2 defaults)."""

    population_size: int = 500
    generations: int = 1000
    p_crossover: float = 0.85
    p_mutation: float = 0.07
    elitism: bool = True
    track_history: bool = False
    #: Report the best of the *final population* instead of the best
    #: mapping ever seen. With ``elitism=False`` this models a drifting
    #: non-elitist GA — the configuration whose output magnitudes are the
    #: only ones consistent with the paper's published GA numbers (an
    #: elitist GA can never return worse than its best initial individual;
    #: see EXPERIMENTS.md). Defaults to the conforming behaviour.
    report_final_population: bool = False

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ConfigurationError(
                f"population_size must be >= 2, got {self.population_size}"
            )
        if self.generations < 1:
            raise ConfigurationError(f"generations must be >= 1, got {self.generations}")
        check_probability("p_crossover", self.p_crossover)
        check_probability("p_mutation", self.p_mutation)


class _GASolver(MapperSolver):
    """One generation per step."""

    def __init__(self, config: GAConfig) -> None:
        super().__init__()
        self.config = config

    def start(self, problem: Any, seed: SeedLike) -> None:
        if not problem.is_square:
            raise ConfigurationError(
                "FastMap-GA permutation encoding requires |V_t| == |V_r| "
                f"(got {problem.n_tasks} tasks, {problem.n_resources} resources)"
            )
        cfg = self.config
        self._problem = problem
        gen = self._gen = as_generator(seed)
        n = problem.n_tasks
        M = cfg.population_size

        # Initial population: random permutations (random one-to-one maps).
        # A capped budget clamps how many individuals are scored; the rest
        # cost +inf (never selected as incumbent) so `used` cannot overshoot
        # max_evaluations even when the cap is smaller than one population.
        self._pop = np.stack([gen.permutation(n) for _ in range(M)]).astype(np.int64)
        n_score = self.budget.clamp_batch(M)
        self._costs = np.full(M, np.inf)
        if n_score:
            self._costs[:n_score] = self.model.evaluate_batch(self._pop[:n_score])
            self.budget.charge(n_score)
        self._n_evals = n_score
        best_idx = int(np.argmin(self._costs))
        self._best_x = self._pop[best_idx].copy()
        self._best_cost = float(self._costs[best_idx])
        self._history: list[float] = [self._best_cost] if cfg.track_history else []
        self._generation = 0

    @property
    def finished(self) -> bool:
        return self._generation >= self.config.generations

    def step(self) -> StepReport:
        cfg = self.config
        gen = self._gen
        M = cfg.population_size

        fit = fitness(self._costs)
        i1, i2 = roulette_select(fit, M, gen)
        children = single_point_crossover(
            self._pop[i1], self._pop[i2], gen, p_crossover=cfg.p_crossover
        )
        children = swap_mutation(children, gen, p_mutation=cfg.p_mutation)

        # Final-generation clamp: score only the affordable prefix, +inf for
        # the rest (see start()); the RNG draws above are unconditional, so
        # unbudgeted runs are byte-identical to the historical stream.
        n_score = self.budget.clamp_batch(M)
        child_costs = np.full(M, np.inf)
        if n_score:
            child_costs[:n_score] = self.model.evaluate_batch(children[:n_score])
            self.budget.charge(n_score)
        self._n_evals += n_score

        if cfg.elitism:
            # The incumbent best replaces the worst child.
            worst = int(np.argmax(child_costs))
            children[worst] = self._best_x
            child_costs[worst] = self._best_cost

        self._pop, self._costs = children, child_costs
        gen_best = int(np.argmin(self._costs))
        improved = bool(self._costs[gen_best] < self._best_cost)
        if improved:
            self._best_cost = float(self._costs[gen_best])
            self._best_x = self._pop[gen_best].copy()
        if cfg.track_history:
            self._history.append(self._best_cost)
        self._generation += 1
        it = self._iteration
        self._iteration += 1
        return StepReport(
            iteration=it,
            best_cost=self._best_cost,
            improved=improved,
            info={"generation": self._generation},
        )

    def finalize(self) -> SolveOutput:
        cfg = self.config
        extras: dict[str, Any] = {
            "generations": cfg.generations,
            "population_size": cfg.population_size,
            "best_seen_cost": self._best_cost,
        }
        if cfg.track_history:
            extras["best_cost_history"] = self._history
        if cfg.report_final_population:
            final_best = int(np.argmin(self._costs))
            extras["final_population_cost"] = float(self._costs[final_best])
            return SolveOutput(
                assignment=self._pop[final_best].copy(),
                n_evaluations=self._n_evals,
                extras=extras,
            )
        return SolveOutput(
            assignment=self._best_x, n_evaluations=self._n_evals, extras=extras
        )

    # -- checkpointing -------------------------------------------------------
    def export_state(self) -> dict[str, Any]:
        return {
            "generation": self._generation,
            "iteration": self._iteration,
            "n_evals": self._n_evals,
            "pop": self._pop.tolist(),
            "costs": self._costs.tolist(),
            "best_cost": self._best_cost,
            "best_x": self._best_x.tolist(),
            "history": self._history,
            "rng": generator_state(self._gen),
        }

    def restore_state(self, problem: Any, state: dict[str, Any]) -> None:
        self._problem = problem
        self._gen = generator_from_state(state["rng"])
        self._pop = np.asarray(state["pop"], dtype=np.int64)
        self._costs = np.asarray(state["costs"], dtype=np.float64)
        self._best_x = np.asarray(state["best_x"], dtype=np.int64)
        self._best_cost = float(state["best_cost"])
        self._history = [float(v) for v in state["history"]]
        self._n_evals = int(state["n_evals"])
        self._generation = int(state["generation"])
        self._iteration = int(state["iteration"])


class FastMapGA(Mapper):
    """The GA of FastMap [16] as specified in §5.1, on one-to-one mappings."""

    name = "FastMap-GA"

    def __init__(self, config: GAConfig = GAConfig()) -> None:
        self.config = config

    def _make_solver(self) -> MapperSolver:
        return _GASolver(self.config)
