"""The CE chain step shared by the simulation and the island runtime.

Bit-reproducibility between :class:`repro.core.distributed.DistributedMatchMapper`
(the sequential simulation) and the socket-distributed island runtime rests
on one invariant: **both run the same agent round**. This module is that
round — :func:`chain_round` is called by the simulation's in-process loop,
by the island worker's pool cells, and by the deterministic replay that
heals a lost node — so there is exactly one implementation to diverge from,
i.e. none.

Islands run a whole sync interval per cell: :func:`run_chain_round` runs
an agent's rounds up to the next gossip back to back
(:func:`chain_rounds`) and returns every round's entry, so the coordinator
can fold them round by round exactly as the simulation's loop would. No
gossip falls inside an interval, so the chain's arithmetic is the same
whether its rounds run one per call or many.

Placement independence falls out of the RNG discipline: agent ``k``'s
stream is the ``k``-th ``SeedSequence`` spawn of the root seed
(:func:`agent_streams`), which any process can reconstruct from
``(root_seed, n_agents, k)`` alone. Which island an agent happens to run
on — or how many times it migrates after node deaths — cannot reach any
drawn number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.ce.genperm import sample_permutations
from repro.ce.quantile import select_top_k
from repro.ce.stochastic_matrix import StochasticMatrix
from repro.mapping.cost_model import CostModel
from repro.types import SeedLike
from repro.utils.rng import (
    as_generator,
    generator_from_state,
    generator_state,
    spawn_generators,
)
from repro.utils.shared_plane import ProblemRef, resolve_problem

__all__ = [
    "DEGENERACY_TOL",
    "agent_streams",
    "chain_round",
    "chain_rounds",
    "blend_towards",
    "apply_gossip",
    "ChainRoundCell",
    "run_chain_round",
    "SyncRecord",
    "replay_chain",
    "ChainState",
]

#: Degeneracy tolerance for the all-chains-converged stop, shared with the
#: sequential simulation (it must stop on the same round).
DEGENERACY_TOL = 1e-6


def agent_streams(seed: SeedLike, n_agents: int) -> list[np.random.Generator]:
    """The per-agent RNG streams for a run rooted at ``seed``.

    One definition for the simulation, the islands and the replay: stream
    ``k`` depends only on the root entropy and the spawn index ``k``, never
    on where the agent executes.
    """
    return spawn_generators(as_generator(seed), n_agents)


def chain_round(
    matrix: StochasticMatrix,
    rng: np.random.Generator,
    model: CostModel,
    per_agent: int,
    rho: float,
    zeta: float,
) -> tuple[float, np.ndarray, float]:
    """One CE round for one agent: sample, score, elite-update.

    Mutates ``matrix`` in place and advances ``rng``; returns the round's
    ``(best cost, best assignment, gamma)``. This is the exact statement
    sequence of the pre-islands simulation loop body, so a run composed of
    these calls is bit-identical to it.
    """
    X = sample_permutations(matrix.view(), per_agent, rng)
    costs = model.evaluate_batch(X)
    gamma, elite_idx = select_top_k(costs, rho)
    matrix.update_from_elites(X[elite_idx], zeta=zeta)
    it_best = int(np.argmin(costs))
    return float(costs[it_best]), X[it_best].copy(), float(gamma)


def blend_towards(
    matrix: StochasticMatrix, leader_P: np.ndarray, weight: float
) -> StochasticMatrix:
    """Elite-attraction gossip blend: drift ``matrix`` towards the leader.

    The convex combination is written in exactly the simulation's operand
    order — float addition is not associative, so reordering it would break
    the loopback parity pin.
    """
    blended = weight * leader_P + (1.0 - weight) * matrix.values
    return StochasticMatrix(blended)


def chain_rounds(
    matrix: StochasticMatrix,
    rng: np.random.Generator,
    model: CostModel,
    per_agent: int,
    rho: float,
    zeta: float,
    n_rounds: int,
) -> list[dict[str, Any]]:
    """``n_rounds`` consecutive :func:`chain_round` calls with no gossip.

    Returns one entry per round: ``cost``, ``x``, ``gamma`` and whether the
    matrix is ``degenerate`` after that round's update.
    """
    entries: list[dict[str, Any]] = []
    for _ in range(n_rounds):
        cost, x, gamma = chain_round(matrix, rng, model, per_agent, rho, zeta)
        entries.append(
            {
                "cost": cost,
                "x": x,
                "gamma": gamma,
                "degenerate": bool(matrix.is_degenerate(tol=DEGENERACY_TOL)),
            }
        )
    return entries


@dataclass(frozen=True)
class ChainRoundCell:
    """Picklable work unit: one agent's rounds up to the next sync.

    Pure in the cell — the problem comes off the shared plane (or rides
    along on the serial path), the matrix and the RNG position are explicit
    state, so a retry or a replay on any worker is bit-identical. No gossip
    falls inside the cell: the coordinator only asks for intervals that
    end on a sync round (or the run's last round).
    """

    problem_ref: ProblemRef
    matrix: np.ndarray
    rng_state: Mapping[str, Any]
    per_agent: int
    rho: float
    zeta: float
    n_rounds: int


def run_chain_round(cell: ChainRoundCell) -> dict[str, Any]:
    """Top-level (picklable) pool entry: run one :class:`ChainRoundCell`.

    Returns the final ``matrix`` and ``rng_state`` plus ``rounds``, one
    :func:`chain_rounds` entry per round.
    """
    problem = resolve_problem(cell.problem_ref)
    model = CostModel(problem)
    matrix = StochasticMatrix(np.asarray(cell.matrix, dtype=np.float64))
    rng = generator_from_state(dict(cell.rng_state))
    rounds = chain_rounds(
        matrix, rng, model, cell.per_agent, cell.rho, cell.zeta, cell.n_rounds
    )
    return {"matrix": matrix.values, "rng_state": generator_state(rng), "rounds": rounds}


@dataclass(frozen=True)
class SyncRecord:
    """One gossip the coordinator committed: ``(round, leader, leader's P)``.

    The coordinator's log of these is sufficient to replay any agent from
    round 1 — the only cross-agent information a chain ever receives is the
    leader matrix it blended towards.
    """

    round: int
    leader: int
    matrix: np.ndarray


class ChainState:
    """One live agent chain: matrix, RNG position, degeneracy flag."""

    __slots__ = ("index", "matrix", "rng_state", "degenerate", "last_sync")

    def __init__(self, index: int, n_t: int, n_r: int, rng: np.random.Generator) -> None:
        self.index = index
        self.matrix = StochasticMatrix.uniform(n_t, n_r)
        self.rng_state = generator_state(rng)
        self.degenerate = False
        #: Highest sync round whose gossip blend this chain has applied —
        #: makes a re-broadcast gossip (heal path) idempotent per agent.
        self.last_sync = 0


def apply_gossip(
    chains: Mapping[int, ChainState],
    sync_round: int,
    leader: int,
    leader_P: np.ndarray,
    weight: float,
) -> None:
    """Blend every agent but the leader towards the leader's matrix.

    Idempotent per agent: a chain whose ``last_sync`` already reaches
    ``sync_round`` is skipped, so a re-broadcast after a mid-sync node loss
    does not blend twice (w·P + (1-w)·Q applied twice is a different
    matrix). A blended chain re-reads its degeneracy, and every chain ends
    stamped with the round. One loop for the island worker and the
    coordinator's local tail, so the two cannot drift apart.
    """
    for g in sorted(chains):
        state = chains[g]
        if g == leader or state.last_sync >= sync_round:
            state.last_sync = max(state.last_sync, sync_round)
            continue
        state.matrix = blend_towards(state.matrix, leader_P, weight)
        state.degenerate = bool(state.matrix.is_degenerate(tol=DEGENERACY_TOL))
        state.last_sync = sync_round


def replay_chain(
    problem: Any,
    model: CostModel,
    root_seed: int,
    n_agents: int,
    agent_index: int,
    per_agent: int,
    rho: float,
    zeta: float,
    gossip_weight: float,
    history: Sequence[SyncRecord],
    through_round: int,
) -> tuple[ChainState, dict[int, dict[str, Any]]]:
    """Deterministically rebuild agent ``agent_index`` after a node loss.

    Replays rounds ``1..through_round`` from the root seed, applying every
    recorded gossip blend at its original round (skipped when this agent
    *was* the leader, exactly as live chains skip it). Returns the rebuilt
    :class:`ChainState` plus every round's report entry
    (``cost``/``x``/``gamma``/``degenerate``, keyed by round; a sync
    round's ``degenerate`` is read after its blend) — the coordinator folds
    the lost interval's entries as if the dead node had answered. The
    reports are empty when ``through_round`` is 0 (death before any round
    completed).
    """
    n_t, n_r = problem.n_tasks, problem.n_resources
    rng = agent_streams(root_seed, n_agents)[agent_index]
    state = ChainState(agent_index, n_t, n_r, rng)
    by_round = {record.round: record for record in history}
    reports: dict[int, dict[str, Any]] = {}
    for r in range(1, through_round + 1):
        (entry,) = chain_rounds(state.matrix, rng, model, per_agent, rho, zeta, 1)
        record = by_round.get(r)
        if record is not None:
            if record.leader != agent_index:
                state.matrix = blend_towards(
                    state.matrix, record.matrix, gossip_weight
                )
                entry["degenerate"] = bool(
                    state.matrix.is_degenerate(tol=DEGENERACY_TOL)
                )
            state.last_sync = r
        state.degenerate = entry["degenerate"]
        reports[r] = entry
    state.rng_state = generator_state(rng)
    return state, reports
