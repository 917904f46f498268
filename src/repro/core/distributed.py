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
loopback parity tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.baselines.base import Mapper
from repro.core.config import paper_sample_size
from repro.exceptions import ConfigurationError
from repro.islands.chains import agent_streams, blend_towards, chain_rounds, is_degenerate
from repro.mapping.cost_model import CostModel
from repro.mapping.problem import MappingProblem
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


class DistributedMatchMapper(Mapper):
    """Island-model MaTCH with periodic elite-attraction gossip."""

    name = "MaTCH-distributed"

    def __init__(self, config: DistributedMatchConfig = DistributedMatchConfig()) -> None:
        self.config = config

    def _solve(
        self, problem: MappingProblem, model: CostModel, rng: SeedLike
    ) -> tuple[np.ndarray, int, dict[str, Any]]:
        if problem.n_tasks > problem.n_resources:
            raise ConfigurationError("distributed MaTCH needs n_resources >= n_tasks")
        cfg = self.config
        n_t, n_r = problem.n_tasks, problem.n_resources
        total = cfg.total_samples if cfg.total_samples is not None else paper_sample_size(n_r)
        per_agent = max(2, total // cfg.n_agents)

        A = cfg.n_agents
        gens = agent_streams(rng, A)
        P = np.full((A, n_t, n_r), 1.0 / n_r)
        agent_best = np.full(A, np.inf)
        agent_x = [np.zeros(n_t, dtype=np.int64) for _ in range(A)]

        global_best = np.inf
        global_x = np.zeros(n_t, dtype=np.int64)
        n_evals = 0
        stagnant = 0
        prev_global = np.inf
        rounds = 0
        n_syncs = 0

        for r in range(1, cfg.max_rounds + 1):
            rounds = r
            P, (entries,) = chain_rounds(P, gens, model, per_agent, cfg.rho, cfg.zeta, 1)
            n_evals += A * per_agent
            # Fold in agent order: the global incumbent moves on strict
            # improvement, so the order is part of the result.
            for a, entry in enumerate(entries):
                if entry["cost"] < agent_best[a]:
                    agent_best[a] = entry["cost"]
                    agent_x[a] = entry["x"]
                if agent_best[a] < global_best:
                    global_best = agent_best[a]
                    global_x = agent_x[a].copy()

            if A > 1 and r % cfg.sync_every == 0:
                # Gossip: everyone drifts towards the best agent's matrix.
                leader = int(np.argmin(agent_best))
                others = np.arange(A) != leader
                P[others] = blend_towards(P[others], P[leader], cfg.gossip_weight)
                n_syncs += 1

            if abs(global_best - prev_global) <= 1e-9:
                stagnant += 1
            else:
                stagnant = 0
            prev_global = global_best
            if stagnant >= cfg.gamma_window:
                break
            if is_degenerate(P).all():
                break

        return global_x, n_evals, {
            "rounds": rounds,
            "n_agents": cfg.n_agents,
            "samples_per_agent": per_agent,
            "n_syncs": n_syncs,
        }
