"""The engine's stacked round against the unstacked per-agent round.

Before the agent simulation and the islands moved onto
:func:`repro.ce.multichain.ce_round`, each agent advanced through its own
round composed of :func:`~repro.ce.genperm.sample_permutations`,
:func:`~repro.ce.quantile.select_top_k` and
:meth:`~repro.ce.stochastic_matrix.StochasticMatrix.update_from_elites`.
That round is rebuilt here as the oracle, and the stacked round must match
it bit for bit, round by round, for every agent: matrix, ``γ``, best cost
and best assignment. These three functions are kept for this test.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.ce.genperm import sample_permutations
from repro.ce.multichain import ce_round
from repro.ce.quantile import select_top_k
from repro.ce.stochastic_matrix import StochasticMatrix
from repro.graphs import generate_paper_pair
from repro.islands.chains import agent_streams
from repro.mapping import CostModel, MappingProblem

from tests.kernels.conftest import AVAILABLE

SEEDS = range(5)
ROUNDS = 6
RHO = 0.05


def oracle_round(
    matrix: StochasticMatrix,
    rng: np.random.Generator,
    model: CostModel,
    per_agent: int,
    rho: float,
    zeta: float,
) -> tuple[float, np.ndarray, float]:
    """One agent's round as the islands ran it: ``(best cost, best x, γ)``."""
    X = sample_permutations(matrix.values, per_agent, rng)
    costs = model.evaluate_batch(X)
    gamma, elite_idx = select_top_k(costs, rho)
    matrix.update_from_elites(X[elite_idx], zeta=zeta)
    it_best = int(np.argmin(costs))
    return float(costs[it_best]), X[it_best].copy(), float(gamma)


def square(n: int) -> MappingProblem:
    pair = generate_paper_pair(n, 3)
    return MappingProblem(pair.tig, pair.resources, require_square=True)


def wide(n_tasks: int, n_resources: int) -> MappingProblem:
    """``n_tasks`` tasks on ``n_resources > n_tasks`` resources."""
    return MappingProblem(
        generate_paper_pair(n_tasks, 1).tig, generate_paper_pair(n_resources, 2).resources
    )


CASES = [
    pytest.param(n, agents, zeta, id=f"n{n}-a{agents}-z{zeta}")
    for n in (12, 24)
    for agents in (1, 2, 4)
    for zeta in (0.3, 1.0)
] + [pytest.param((8, 12), 2, 0.3, id="n8x12-a2-z0.3")]


@pytest.mark.parametrize("backend", AVAILABLE)
@pytest.mark.parametrize("shape, n_agents, zeta", CASES)
def test_stacked_round_matches_per_agent_oracle(backend, shape, n_agents, zeta):
    problem = wide(*shape) if isinstance(shape, tuple) else square(shape)
    n_t, n_r = problem.n_tasks, problem.n_resources
    per_agent = max(2, 2 * n_r * n_r // n_agents)
    with kernels.use_backend(backend):
        model = CostModel(problem)
        for seed in SEEDS:
            oracle_gens = agent_streams(seed, n_agents)
            gens = agent_streams(seed, n_agents)
            matrices = [StochasticMatrix.uniform(n_t, n_r) for _ in range(n_agents)]
            P = np.full((n_agents, n_t, n_r), 1.0 / n_r)
            for r in range(ROUNDS):
                P, Xs, costs, gammas = ce_round(
                    P, gens, model.evaluate_batch, per_agent, RHO, zeta
                )
                best = costs.argmin(axis=1)
                for a in range(n_agents):
                    cost, x, gamma = oracle_round(
                        matrices[a], oracle_gens[a], model, per_agent, RHO, zeta
                    )
                    where = f"seed {seed} round {r} agent {a}"
                    assert P[a].tobytes() == matrices[a].values.tobytes(), where
                    assert float(gammas[a]) == gamma, where
                    assert float(costs[a, best[a]]) == cost, where
                    assert Xs[a, best[a]].tolist() == x.tolist(), where
