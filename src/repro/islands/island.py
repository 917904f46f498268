"""The island worker: one node's CE chains, driven by a coordinator.

An island dials the coordinator, announces itself, and receives a *job*
frame — the problem (service wire format), the distributed config, the
root seed and its slice of the agent indices. From then on it follows the
coordinator's interval protocol: each ``round`` frame names an interval
(``round`` … ``through``) that ends on a sync round or the run's last
round, and the island runs its local agents through all of it as
``min(n_workers, agents)`` contiguous stacks, one cell each, on its own
:class:`~repro.utils.parallel.WorkerPool` (``map_salvage``, so a dead
pool worker heals *inside* the island before the coordinator ever
notices). One ``report`` then carries every round's entries. ``gossip``
frames blend local matrices towards the leader, and ``adopt`` frames
re-home a dead node's chains by deterministic replay, answering with the
lost interval's entries.

The island is deliberately stateless about the global run: best-so-far
tracking, leader election, stopping and budget sharding all live in the
coordinator. An island that loses its socket simply exits — from the
run's point of view it is now a dead node, and the coordinator's heal
ladder takes over.
"""

from __future__ import annotations

import os
import socket
from dataclasses import dataclass
from typing import Any, Callable, Collection, Mapping

import numpy as np

from repro.exceptions import IslandError, ValidationError
from repro.islands import wire as island_wire
from repro.islands.chains import (
    ChainRoundCell,
    ChainState,
    SyncRecord,
    agent_stream,
    apply_gossip,
    replay_chain,
    run_chain_round,
)
from repro.mapping.cost_model import CostModel
from repro.mapping.problem import MappingProblem
from repro.service.wire import MAX_WIRE_SAMPLES, _wire_int, problem_from_wire
from repro.utils.parallel import WorkerPool
from repro.utils.rng import generator_from_state, generator_state

__all__ = [
    "IslandJob", "IslandAdoption", "decode_job", "decode_interval",
    "decode_matrix_request", "decode_gossip", "decode_adopt", "IslandWorker", "run_island",
]


@dataclass(frozen=True)
class IslandJob:
    """A checked ``job`` frame: the run and the agents one island serves."""

    problem: MappingProblem
    seed: int
    n_agents: int
    per_agent: int
    rho: float
    zeta: float
    gossip_weight: float
    agents: tuple[int, ...]


def _agent_list(value: Any, what: str, n_agents: int) -> tuple[int, ...]:
    """A non-empty list of distinct agent indices below ``n_agents``."""
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{what} must be a non-empty list, got {value!r}")
    for i, g in enumerate(value):
        _wire_int(g, f"{what}[{i}]", 0, n_agents - 1)
    if len(set(value)) != len(value):
        raise ValidationError(f"{what} must be distinct, got {value}")
    return tuple(value)


def decode_job(frame: Mapping[str, Any]) -> IslandJob:
    """Check a coordinator's ``job`` frame before any stream or pool exists.

    A bad or missing field is a :class:`ValidationError` naming
    ``job.<field>``. ``per_agent`` is capped like a service request's
    samples, ``agents`` must be distinct indices below ``n_agents``, and
    ``rho``, ``zeta`` and ``gossip_weight`` pass
    :class:`~repro.core.distributed.DistributedMatchConfig`'s own checks.
    """
    # Imported here: repro.core.distributed imports repro.islands.
    from repro.core.distributed import DistributedMatchConfig

    seed = _wire_int(frame.get("seed"), "job.seed", 0)
    n_agents = _wire_int(frame.get("n_agents"), "job.n_agents", 1)
    per_agent = _wire_int(frame.get("per_agent"), "job.per_agent", 2, MAX_WIRE_SAMPLES)
    rates: dict[str, float] = {}
    for name in ("rho", "zeta", "gossip_weight"):
        value = frame.get(name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"job.{name} must be a number, got {value!r}")
        rates[name] = float(value)
    try:
        DistributedMatchConfig(n_agents=n_agents, **rates)
    except ValidationError as exc:  # its message starts with the field name
        raise ValidationError(f"job.{exc}") from exc
    agents = _agent_list(frame.get("agents"), "job.agents", n_agents)
    problem = problem_from_wire(frame.get("problem"))
    return IslandJob(problem, seed, n_agents, per_agent, agents=agents, **rates)


# The frames after ``job``: one decoder per frame type, each refusal a
# ValidationError (or, for a matrix payload, a FrameError) naming
# ``<frame>.<field>``.


def decode_interval(msg: Mapping[str, Any]) -> tuple[int, int]:
    """A ``round`` frame's interval ``(round, through)``, ``1 <= round <= through``."""
    first = _wire_int(msg.get("round"), "round.round", 1)
    return first, _wire_int(msg.get("through"), "round.through", first)


def decode_matrix_request(msg: Mapping[str, Any], owned: Collection[int]) -> int:
    """The agent a ``matrix-request`` frame names: one this island runs."""
    g = _wire_int(msg.get("agent"), "matrix-request.agent", 0)
    if g not in owned:
        raise ValidationError(f"matrix-request.agent {g} is not one of {sorted(owned)}")
    return g


def decode_gossip(msg: Any, job: IslandJob, what: str = "gossip") -> SyncRecord:
    """A ``gossip`` frame (or an adoption's history entry ``what``): the
    sync round, its leader and the leader's matrix
    (:func:`~repro.islands.wire.decode_leader_matrix`)."""
    if not isinstance(msg, Mapping):
        raise ValidationError(f"{what} must be an object, got {msg!r}")
    r = _wire_int(msg.get("round"), f"{what}.round", 1)
    leader = _wire_int(msg.get("leader"), f"{what}.leader", 0, job.n_agents - 1)
    shape = (job.problem.n_tasks, job.problem.n_resources)
    matrix = island_wire.decode_leader_matrix(msg.get("matrix"), shape, f"{what}.matrix")
    return SyncRecord(round=r, leader=leader, matrix=matrix)


@dataclass(frozen=True)
class IslandAdoption:
    """A checked ``adopt`` frame: orphans to replay through ``through_round``."""

    from_round: int
    through_round: int
    agents: tuple[int, ...]
    history: tuple[SyncRecord, ...]


def decode_adopt(msg: Mapping[str, Any], job: IslandJob) -> IslandAdoption:
    """An ``adopt`` frame; ``through_round`` may be ``from_round - 1`` (nothing ran)."""
    first = _wire_int(msg.get("from_round"), "adopt.from_round", 1)
    through = _wire_int(msg.get("through_round"), "adopt.through_round", first - 1)
    agents = _agent_list(msg.get("agents"), "adopt.agents", job.n_agents)
    history = msg.get("history", [])
    if not isinstance(history, list):
        raise ValidationError(f"adopt.history must be a list, got {history!r}")
    records = tuple(decode_gossip(h, job, f"adopt.history[{i}]") for i, h in enumerate(history))
    return IslandAdoption(first, through, agents, records)


def _chain_weight(cell: ChainRoundCell) -> float:
    """LPT weight for a chain cell: scoring cost ~ agents x rounds x samples x n²."""
    n_agents, n_t = int(cell.matrices.shape[0]), int(cell.matrices.shape[1])
    return float(n_agents * cell.n_rounds) * float(cell.per_agent) * float(n_t) * float(n_t)


def _wire_entry(entry: dict[str, Any]) -> dict[str, Any]:
    """One agent-round as the coordinator folds it."""
    return {
        "cost": float(entry["cost"]),
        "x": [int(v) for v in entry["x"]],
        "degenerate": bool(entry["degenerate"]),
    }


class IslandWorker:
    """Protocol follower for one node of the island runtime."""

    def __init__(
        self,
        address: tuple[str, int],
        *,
        n_workers: int = 1,
        name: str = "",
        on_round: Callable[[int], None] | None = None,
    ) -> None:
        self.address = address
        self.n_workers = n_workers
        self.name = name or f"island-{os.getpid()}"
        #: Test hook: called with each round number of an interval before
        #: the interval runs.
        self.on_round = on_round

    # -- lifecycle ---------------------------------------------------------
    def run(self) -> None:
        """Join the coordinator and follow the protocol until ``stop``.

        Raises :class:`IslandError`/:class:`FrameError` if the coordinator
        breaks protocol or vanishes, and :class:`ValidationError` for a
        malformed frame — a crash here is *meant* to be loud:
        the process exit is what a supervisor (or the chaos test) observes.
        """
        with socket.create_connection(self.address) as sock:
            island_wire.send_frame(
                sock, {"type": "hello", "name": self.name, "pid": os.getpid()}
            )
            job = island_wire.recv_frame(sock)
            if job.get("type") != "job":
                raise IslandError(
                    f"expected a job frame from the coordinator, got {job.get('type')!r}"
                )
            self._serve_job(sock, decode_job(job))

    # -- the protocol ------------------------------------------------------
    def _serve_job(self, sock: socket.socket, job: IslandJob) -> None:
        n_t, n_r = job.problem.n_tasks, job.problem.n_resources
        chains = {g: ChainState(n_t, n_r, agent_stream(job.seed, g)) for g in job.agents}

        with WorkerPool(self.n_workers) as pool:
            while True:
                msg = island_wire.recv_frame(sock)
                kind = msg.get("type")
                if kind == "round":
                    self._run_interval(sock, pool, job, decode_interval(msg), chains)
                elif kind == "matrix-request":
                    g = decode_matrix_request(msg, chains)
                    island_wire.send_frame(
                        sock,
                        {
                            "type": "matrix",
                            "agent": g,
                            "matrix": island_wire.encode_matrix(chains[g].matrix),
                        },
                    )
                elif kind == "gossip":
                    self._apply_gossip(sock, decode_gossip(msg, job), chains, job.gossip_weight)
                elif kind == "adopt":
                    self._adopt(sock, decode_adopt(msg, job), chains, job)
                elif kind == "stop":
                    island_wire.send_frame(sock, {"type": "stopped"})
                    return
                else:
                    raise IslandError(f"unknown frame type from coordinator: {kind!r}")

    def _run_interval(
        self,
        sock: socket.socket,
        pool: WorkerPool,
        job: IslandJob,
        interval: tuple[int, int],
        chains: dict[int, ChainState],
    ) -> None:
        first, through = interval
        if self.on_round is not None:
            for r in range(first, through + 1):
                self.on_round(r)
        # Contiguous agent blocks, one stacked cell per pool worker.
        n_cells = min(self.n_workers, len(chains))
        blocks = [block.tolist() for block in np.array_split(sorted(chains), n_cells)]
        cells = [
            ChainRoundCell(
                problem=job.problem,
                matrices=np.stack([chains[g].matrix for g in block]),
                rng_states=tuple(generator_state(chains[g].rng) for g in block),
                per_agent=job.per_agent,
                rho=job.rho,
                zeta=job.zeta,
                n_rounds=through - first + 1,
            )
            for block in blocks
        ]
        report = pool.map_salvage(run_chain_round, cells, weight=_chain_weight)
        if report.failures:
            # The in-island heal ladder (retry -> respawn -> serial) is
            # already exhausted; escalate to the node tier by dying loudly —
            # the coordinator replays these chains on a survivor.
            detail = "; ".join(
                f"agents {blocks[f.index]}: {f.kind} after {f.attempts} attempts"
                for f in report.failures
            )
            raise IslandError(
                f"rounds {first}..{through} lost {len(report.failures)} cell(s): {detail}"
            )
        rounds: dict[str, dict[str, Any]] = {str(r): {} for r in range(first, through + 1)}
        for block, outcome in zip(blocks, report.results):
            for j, g in enumerate(block):
                state = chains[g]
                state.matrix = outcome["matrices"][j]
                state.rng = generator_from_state(outcome["rng_states"][j])
                state.degenerate = outcome["rounds"][-1][j]["degenerate"]
            for r, entries in enumerate(outcome["rounds"], start=first):
                for g, entry in zip(block, entries):
                    rounds[str(r)][str(g)] = _wire_entry(entry)
        island_wire.send_frame(
            sock,
            {"type": "report", "round": first, "through": through, "rounds": rounds},
        )

    def _apply_gossip(
        self,
        sock: socket.socket,
        gossip: SyncRecord,
        chains: dict[int, ChainState],
        gossip_weight: float,
    ) -> None:
        apply_gossip(chains, gossip.round, gossip.leader, gossip.matrix, gossip_weight)
        island_wire.send_frame(
            sock,
            {
                "type": "gossip-ok",
                "round": gossip.round,
                "degenerate": {str(g): chains[g].degenerate for g in sorted(chains)},
            },
        )

    def _adopt(
        self,
        sock: socket.socket,
        adoption: IslandAdoption,
        chains: dict[int, ChainState],
        job: IslandJob,
    ) -> None:
        first, through = adoption.from_round, adoption.through_round
        rounds: dict[str, dict[str, Any]] = {str(r): {} for r in range(first, through + 1)}
        model = CostModel(job.problem)
        for g in adoption.agents:
            chains[g], reports = replay_chain(
                model, job.seed, g, job.per_agent, job.rho, job.zeta,
                job.gossip_weight, adoption.history, through,
            )
            for r in range(first, through + 1):
                rounds[str(r)][str(g)] = _wire_entry(reports[r])
        island_wire.send_frame(
            sock,
            {
                "type": "adopted",
                "from_round": first,
                "through_round": through,
                "rounds": rounds,
            },
        )


def run_island(
    host: str,
    port: int,
    *,
    n_workers: int = 1,
    name: str = "",
) -> None:
    """Convenience entry (CLI ``repro-match island join``): join and serve."""
    IslandWorker((host, port), n_workers=n_workers, name=name).run()
