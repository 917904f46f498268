"""The agent rounds shared by the simulation and the island runtime.

Bit-reproducibility between :class:`repro.core.distributed.DistributedMatchMapper`
(the sequential simulation) and the socket-distributed island runtime rests
on one invariant: **every agent advances through the CE engine's round**,
:func:`repro.ce.multichain.ce_round`. :func:`chain_rounds` runs a stack of
agents through it; the simulation calls it once per round with every
agent, an island's pool cells call it for a contiguous block of agents
through a whole sync interval, and :func:`replay_chain` calls it to heal a
lost node. An agent's arithmetic does not depend on which other agents
share its stack, so any grouping gives the same bits.

Islands run a whole sync interval per cell: :func:`run_chain_round` runs
its agents' rounds up to the next gossip back to back and returns every
round's entries, so the coordinator can fold them round by round exactly
as the simulation's loop would. No gossip falls inside an interval, so the
chains' arithmetic is the same whether their rounds run one per call or
many.

Placement independence falls out of the RNG discipline: agent ``k``'s
stream is the ``k``-th ``SeedSequence`` spawn of the root seed
(:func:`agent_streams`), which any process can build from
``(root_seed, k)`` alone (:func:`agent_stream`). Which island an agent
happens to run on — or how many times it migrates after node deaths —
cannot reach any drawn number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from repro.ce.multichain import DEGENERATE_TOL, GAMMA_TOL, ce_round
from repro.exceptions import ConfigurationError
from repro.mapping.cost_model import CostModel
from repro.mapping.problem import MappingProblem
from repro.runtime.budget import EvaluationBudget
from repro.types import SeedLike
from repro.utils.rng import (
    as_generator,
    generator_from_state,
    generator_state,
    spawn_generators,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.distributed import DistributedMatchConfig

__all__ = [
    "agent_stream",
    "agent_streams",
    "is_degenerate",
    "chain_rounds",
    "blend_towards",
    "AgentFold",
    "apply_gossip",
    "ChainRoundCell",
    "run_chain_round",
    "SyncRecord",
    "replay_chain",
    "ChainState",
]


def agent_streams(seed: SeedLike, n_agents: int) -> list[np.random.Generator]:
    """The per-agent RNG streams for a run rooted at ``seed``.

    One definition for the simulation, the islands and the replay: stream
    ``k`` depends only on the root entropy and the spawn index ``k``, never
    on where the agent executes.
    """
    return spawn_generators(as_generator(seed), n_agents)


def agent_stream(seed: int, k: int) -> np.random.Generator:
    """Agent ``k``'s stream alone: ``agent_streams(seed, n)[k]`` for any ``n > k``.

    Built straight from the ``k``-th ``SeedSequence`` child, so an island or
    a replay pays for the streams it runs, not for the run's agent count.
    """
    return as_generator(np.random.SeedSequence(seed, spawn_key=(k,)))


def is_degenerate(P: np.ndarray) -> np.bool_ | np.ndarray:
    """Whether every row of a matrix (or of each matrix of a stack) holds
    all its mass, within the engine's tolerance, on one column."""
    return (P.max(axis=-1) >= 1.0 - DEGENERATE_TOL).all(axis=-1)


def blend_towards(P: np.ndarray, leader_P: np.ndarray, weight: float) -> np.ndarray:
    """Elite-attraction gossip blend: drift ``P`` towards the leader.

    The convex combination is written in exactly one operand order — float
    addition is not associative, so reordering it would break the loopback
    parity pin. ``P`` may be a stack of matrices.
    """
    return weight * leader_P + (1.0 - weight) * P


def chain_rounds(
    P: np.ndarray,
    gens: Sequence[np.random.Generator],
    model: CostModel,
    per_agent: int,
    rho: float,
    zeta: float,
    n_rounds: int,
    *,
    budget: EvaluationBudget | None = None,
) -> tuple[np.ndarray, list[list[dict[str, Any]]]]:
    """``n_rounds`` engine rounds of the agent stack ``P`` with no gossip.

    Agent ``j`` draws from ``gens[j]`` (advanced in place). Returns the
    updated stack and, per round, one entry per agent: ``cost`` and ``x``
    of its best sample, and whether its matrix is ``degenerate`` after the
    update. ``budget``, when given, is charged every sample scored (the
    simulation's loop budget; island cells run uncharged).
    """
    rounds = []
    for _ in range(n_rounds):
        P, Xs, costs, _ = ce_round(P, gens, model.evaluate_batch, per_agent, rho, zeta)
        if budget is not None:
            budget.charge(costs.size)
        rounds.append(
            [
                {"cost": float(costs[j, b]), "x": Xs[j, b].copy(), "degenerate": bool(flag)}
                for j, (b, flag) in enumerate(zip(costs.argmin(axis=1), is_degenerate(P)))
            ]
        )
    return P, rounds


class AgentFold:
    """The run-global half of distributed MaTCH, shared by the simulation
    and the island coordinator.

    Each round the caller passes :meth:`fold` the agents' entries in agent
    order (the incumbent moves on strict improvement, so the order is part
    of the result), blends towards the agent :meth:`leader` names (the
    lowest ``(best cost, index)`` on every ``sync_every``-th round), then
    asks :meth:`stop`. Every agent draws ``per_agent = max(2, total //
    n_agents)`` samples a round, ``total`` defaulting to ``2·|V_r|²``.
    """

    def __init__(self, problem: MappingProblem, config: "DistributedMatchConfig") -> None:
        if problem.n_tasks > problem.n_resources:
            raise ConfigurationError("distributed MaTCH needs n_resources >= n_tasks")
        from repro.core.config import paper_sample_size  # repro.core imports this module

        total = config.total_samples
        if total is None:
            total = paper_sample_size(problem.n_resources)
        self.config = config
        self.per_agent = max(2, total // config.n_agents)
        self.rounds = 0
        self.n_syncs = 0
        self.best = math.inf
        self.x = np.zeros(problem.n_tasks, dtype=np.int64)
        self._agent_best = [math.inf] * config.n_agents
        self._stagnant = 0

    def fold(self, entries: Sequence[Mapping[str, Any]]) -> bool:
        """Fold one round's entries; whether the best improved. An agent
        that did not improve its own best cannot beat the global one."""
        before = self.best
        for a, entry in enumerate(entries):
            cost = entry["cost"]
            if cost < self._agent_best[a]:
                self._agent_best[a] = cost
                if cost < self.best:
                    self.best = cost
                    self.x = np.array(entry["x"], dtype=np.int64)
        self.rounds += 1
        self._stagnant = self._stagnant + 1 if abs(self.best - before) <= GAMMA_TOL else 0
        return self.best < before

    def leader(self) -> int | None:
        """The agent everyone blends towards this round, or ``None`` when
        the round is no sync round or there is no one to gossip with."""
        cfg = self.config
        if cfg.n_agents == 1 or self.rounds % cfg.sync_every:
            return None
        self.n_syncs += 1
        return min(range(cfg.n_agents), key=lambda a: (self._agent_best[a], a))

    def stop(self, all_degenerate: bool) -> str | None:
        """The rule that ends the run after this round, or ``None``;
        ``all_degenerate`` reads every agent's matrix after the blend."""
        cfg = self.config
        if self.rounds >= cfg.max_rounds:
            return "max_rounds"
        if self._stagnant >= cfg.gamma_window:
            return "stagnation"
        return "degenerate" if all_degenerate else None

    @property
    def n_evaluations(self) -> int:
        return self.rounds * self.config.n_agents * self.per_agent

    def extras(self) -> dict[str, Any]:
        return {
            "rounds": self.rounds,
            "n_agents": self.config.n_agents,
            "samples_per_agent": self.per_agent,
            "n_syncs": self.n_syncs,
        }


@dataclass(frozen=True)
class ChainRoundCell:
    """Picklable work unit: a block of agents' rounds up to the next sync.

    Pure in the cell — the problem rides along by value, the matrices and
    the RNG positions are explicit state, so a retry or a replay on any
    worker is bit-identical.
    No gossip falls inside the cell: the coordinator only asks for
    intervals that end on a sync round (or the run's last round).
    """

    problem: MappingProblem
    matrices: np.ndarray
    rng_states: tuple[Mapping[str, Any], ...]
    per_agent: int
    rho: float
    zeta: float
    n_rounds: int


def run_chain_round(cell: ChainRoundCell) -> dict[str, Any]:
    """Top-level (picklable) pool entry: run one :class:`ChainRoundCell`.

    Returns the final ``matrices`` and ``rng_states`` plus ``rounds``, the
    :func:`chain_rounds` entries of every round.
    """
    gens = [generator_from_state(dict(state)) for state in cell.rng_states]
    model = CostModel(cell.problem)
    P, rounds = chain_rounds(
        cell.matrices, gens, model, cell.per_agent, cell.rho, cell.zeta, cell.n_rounds
    )
    return {"matrices": P, "rng_states": [generator_state(g) for g in gens], "rounds": rounds}


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
    """One live agent chain: matrix, generator, degeneracy flag."""

    __slots__ = ("matrix", "rng", "degenerate", "last_sync")

    def __init__(self, n_t: int, n_r: int, rng: np.random.Generator) -> None:
        self.matrix = np.full((n_t, n_r), 1.0 / n_r)
        self.rng = rng
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
        state.degenerate = bool(is_degenerate(state.matrix))
        state.last_sync = sync_round


def replay_chain(
    model: CostModel,
    root_seed: int,
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
    (``cost``/``x``/``degenerate``, keyed by round; a sync round's
    ``degenerate`` is read after its blend) — the coordinator folds the
    lost interval's entries as if the dead node had answered. The reports
    are empty when ``through_round`` is 0 (death before any round
    completed).
    """
    rng = agent_stream(root_seed, agent_index)
    state = ChainState(model.problem.n_tasks, model.problem.n_resources, rng)
    by_round = {record.round: record for record in history}
    reports: dict[int, dict[str, Any]] = {}
    P = state.matrix[np.newaxis]
    for r in range(1, through_round + 1):
        P, ((entry,),) = chain_rounds(P, [rng], model, per_agent, rho, zeta, 1)
        record = by_round.get(r)
        if record is not None:
            if record.leader != agent_index:
                P = blend_towards(P, record.matrix, gossip_weight)
                entry["degenerate"] = bool(is_degenerate(P[0]))
            state.last_sync = r
        state.degenerate = entry["degenerate"]
        reports[r] = entry
    state.matrix = P[0]
    return state, reports
