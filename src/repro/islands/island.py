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
from typing import Any, Callable

import numpy as np

from repro.exceptions import IslandError
from repro.islands import wire as island_wire
from repro.islands.chains import (
    ChainRoundCell,
    ChainState,
    SyncRecord,
    agent_streams,
    apply_gossip,
    replay_chain,
    run_chain_round,
)
from repro.mapping.cost_model import CostModel
from repro.service.wire import problem_from_wire
from repro.utils.parallel import WorkerPool
from repro.utils.rng import generator_from_state, generator_state

__all__ = ["IslandWorker", "run_island"]


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
        breaks protocol or vanishes — a crash here is *meant* to be loud:
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
            self._serve_job(sock, job)

    # -- the protocol ------------------------------------------------------
    def _serve_job(self, sock: socket.socket, job: dict[str, Any]) -> None:
        problem = problem_from_wire(job["problem"])
        model = CostModel(problem)
        seed = int(job["seed"])
        n_agents = int(job["n_agents"])
        per_agent = int(job["per_agent"])
        rho = float(job["rho"])
        zeta = float(job["zeta"])
        gossip_weight = float(job["gossip_weight"])
        n_t, n_r = problem.n_tasks, problem.n_resources

        streams = agent_streams(seed, n_agents)
        chains: dict[int, ChainState] = {}
        for g in (int(a) for a in job["agents"]):
            chains[g] = ChainState(n_t, n_r, streams[g])

        with WorkerPool(self.n_workers) as pool:
            ref = pool.publish_problem(problem)
            while True:
                msg = island_wire.recv_frame(sock)
                kind = msg.get("type")
                if kind == "round":
                    self._run_interval(sock, pool, ref, msg, chains, per_agent, rho, zeta)
                elif kind == "matrix-request":
                    g = int(msg["agent"])
                    if g not in chains:
                        raise IslandError(f"matrix-request for foreign agent {g}")
                    island_wire.send_frame(
                        sock,
                        {
                            "type": "matrix",
                            "agent": g,
                            "matrix": island_wire.encode_matrix(chains[g].matrix),
                        },
                    )
                elif kind == "gossip":
                    self._apply_gossip(sock, msg, chains, gossip_weight)
                elif kind == "adopt":
                    self._adopt(
                        sock, msg, chains, model, seed, n_agents,
                        per_agent, rho, zeta, gossip_weight,
                    )
                elif kind == "stop":
                    island_wire.send_frame(sock, {"type": "stopped"})
                    return
                else:
                    raise IslandError(f"unknown frame type from coordinator: {kind!r}")

    def _run_interval(
        self,
        sock: socket.socket,
        pool: WorkerPool,
        ref: Any,
        msg: dict[str, Any],
        chains: dict[int, ChainState],
        per_agent: int,
        rho: float,
        zeta: float,
    ) -> None:
        first, through = int(msg["round"]), int(msg["through"])
        if self.on_round is not None:
            for r in range(first, through + 1):
                self.on_round(r)
        # Contiguous agent blocks, one stacked cell per pool worker.
        n_cells = min(self.n_workers, len(chains))
        blocks = [block.tolist() for block in np.array_split(sorted(chains), n_cells)]
        cells = [
            ChainRoundCell(
                problem_ref=ref,
                matrices=np.stack([chains[g].matrix for g in block]),
                rng_states=tuple(generator_state(chains[g].rng) for g in block),
                per_agent=per_agent,
                rho=rho,
                zeta=zeta,
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
        msg: dict[str, Any],
        chains: dict[int, ChainState],
        gossip_weight: float,
    ) -> None:
        r = int(msg["round"])
        leader = int(msg["leader"])
        leader_P = island_wire.decode_matrix(msg["matrix"])
        apply_gossip(chains, r, leader, leader_P, gossip_weight)
        island_wire.send_frame(
            sock,
            {
                "type": "gossip-ok",
                "round": r,
                "degenerate": {str(g): chains[g].degenerate for g in sorted(chains)},
            },
        )

    def _adopt(
        self,
        sock: socket.socket,
        msg: dict[str, Any],
        chains: dict[int, ChainState],
        model: CostModel,
        seed: int,
        n_agents: int,
        per_agent: int,
        rho: float,
        zeta: float,
        gossip_weight: float,
    ) -> None:
        first = int(msg["from_round"])
        through = int(msg["through_round"])
        history = [
            SyncRecord(
                round=int(h["round"]),
                leader=int(h["leader"]),
                matrix=island_wire.decode_matrix(h["matrix"]),
            )
            for h in msg.get("history", [])
        ]
        rounds: dict[str, dict[str, Any]] = {str(r): {} for r in range(first, through + 1)}
        for g in (int(a) for a in msg["agents"]):
            chains[g], reports = replay_chain(
                model, seed, n_agents, g, per_agent, rho, zeta, gossip_weight, history, through
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
