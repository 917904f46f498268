"""Distributed (agent-based) MaTCH — the paper's stated future work.

§6: *"Our future work includes extending MaTCH into a fully distributed
implementation using agent based scheduling"*, motivated by the CE-guided
mobile agents of Helvik & Wittner [13]. This module implements that
design as a deterministic simulation of the agent system:

* ``n_agents`` independent CE agents each hold a private stochastic
  matrix and a slice of the per-iteration sample budget;
* every ``sync_every`` iterations the agents *gossip*: each agent blends
  its matrix towards the matrix of the currently best-performing agent
  (convex combination with weight ``gossip_weight``), the standard island/
  elite-attraction scheme;
* the budget equals a monolithic run's (``N`` total samples per round),
  so comparisons against plain MaTCH are compute-fair.

The simulation is sequential (single process): the point reproduced is the
*algorithmic* behaviour of the distributed scheme — sample-budget split,
delayed information sharing, heterogeneous exploration — not wall-clock
parallel speedup. Each round advances every agent at once as one
``(n_agents, n_tasks, n_resources)`` stack through the CE engine's round
(:func:`repro.ce.multichain.ce_round`, via
:func:`repro.islands.chains.chain_rounds`). For actual multi-node
execution see :mod:`repro.islands`, which runs the same agent rounds over
a socket transport and is pinned bit-identical to this simulation by the
loopback parity tests. Both fold their rounds through one
:class:`~repro.islands.chains.AgentFold`, which holds the budget split,
the fold, the leader rule and the stopping rules.

The simulation runs in the :class:`~repro.runtime.loop.SearchLoop` like
every heuristic, one agent round per step, so budgets and hooks govern it
the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.base import Mapper, MapperSolver
from repro.exceptions import ConfigurationError, MappingError
from repro.islands.chains import (
    AgentFold,
    agent_streams,
    blend_towards,
    chain_rounds,
    is_degenerate,
)
from repro.mapping.problem import MappingProblem
from repro.runtime.budget import BUDGET_EVALUATIONS
from repro.runtime.solver import SolveOutput, StepReport
from repro.types import SeedLike
from repro.utils.validation import check_in_range

__all__ = ["DistributedMatchConfig", "DistributedMatchMapper"]


@dataclass(frozen=True)
class DistributedMatchConfig:
    """Agent-system parameters."""

    n_agents: int = 4
    sync_every: int = 5
    gossip_weight: float = 0.5
    rho: float = 0.05
    zeta: float = 0.3
    total_samples: int | None = None  # per round across agents; None -> 2 n^2
    max_rounds: int = 500
    gamma_window: int = 12

    def __post_init__(self) -> None:
        if self.n_agents < 1:
            raise ConfigurationError(f"n_agents must be >= 1, got {self.n_agents}")
        if self.sync_every < 1:
            raise ConfigurationError(f"sync_every must be >= 1, got {self.sync_every}")
        check_in_range("gossip_weight", self.gossip_weight, 0.0, 1.0)
        check_in_range("rho", self.rho, 0.0, 1.0, inclusive=(False, False))
        check_in_range("zeta", self.zeta, 0.0, 1.0, inclusive=(False, True))
        if self.max_rounds < 1:
            raise ConfigurationError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.gamma_window < 1:
            raise ConfigurationError(f"gamma_window must be >= 1, got {self.gamma_window}")


class _DistributedSolver(MapperSolver):
    """One agent round of every agent per loop step, folded by the shared
    :class:`~repro.islands.chains.AgentFold`; the solver keeps the agents'
    matrix stack and blends it at each sync. A round is indivisible: one
    the budget cannot pay in full is not drawn, and the run stops
    ``budget-evaluations``.
    """

    def __init__(self, config: DistributedMatchConfig) -> None:
        super().__init__()
        self.config = config

    def start(self, problem: MappingProblem, seed: SeedLike) -> None:
        self.fold = AgentFold(problem, self.config)
        A = self.config.n_agents
        self.gens = agent_streams(seed, A)
        self.P = np.full((A, problem.n_tasks, problem.n_resources), 1.0 / problem.n_resources)
        self.done = False
        self._check_affordable()

    @property
    def finished(self) -> bool:
        return self.done

    def _check_affordable(self) -> None:
        cost = self.config.n_agents * self.fold.per_agent
        if self.budget.clamp_batch(cost) < cost:
            self.done = True
            self.stop = (
                BUDGET_EVALUATIONS,
                f"evaluation budget of {self.budget.max_evaluations} cannot pay "
                f"a {cost}-sample round ({self.budget.used} charged)",
            )

    def step(self) -> StepReport:
        cfg, fold = self.config, self.fold
        self.P, (entries,) = chain_rounds(
            self.P, self.gens, self.model, fold.per_agent, cfg.rho, cfg.zeta, 1,
            budget=self.budget,
        )
        improved = fold.fold(entries)
        it, self._iteration = self._iteration, fold.rounds
        leader = fold.leader()
        if leader is not None:
            others = np.arange(cfg.n_agents) != leader
            self.P[others] = blend_towards(self.P[others], self.P[leader], cfg.gossip_weight)
        self.done = fold.stop(bool(is_degenerate(self.P).all())) is not None
        if not self.done:
            self._check_affordable()
        return StepReport(iteration=it, best_cost=float(fold.best), improved=improved)

    def finalize(self) -> SolveOutput:
        if self._iteration == 0:
            # The best mapping would be the all-zeros placeholder.
            raise MappingError(
                f"distributed MaTCH scored no mapping before it stopped ({self.stop[1]})"
            )
        return SolveOutput(self.fold.x, self.fold.n_evaluations, self.fold.extras())


class DistributedMatchMapper(Mapper):
    """Island-model MaTCH with periodic elite-attraction gossip."""

    name = "MaTCH-distributed"

    def __init__(self, config: DistributedMatchConfig = DistributedMatchConfig()) -> None:
        self.config = config

    def _make_solver(self) -> MapperSolver:
        return _DistributedSolver(self.config)
