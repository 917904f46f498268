"""The island coordinator: budget sharding, gossip, node-loss healing.

The coordinator owns everything *global* about a distributed MaTCH run by
the simulation's own rules: both fold every round through one
:class:`~repro.islands.chains.AgentFold` (budget split, incumbent, gossip
leader, stops). What is left here is transport.

Islands are driven one *interval* at a time, not one round: an interval
runs up to the next sync round (or ``max_rounds``), so no gossip falls
inside it and each island computes it unbroken, then sends one report
holding every round's entries. The coordinator folds those entries round
by round, fetches the leader's matrix from its island at each sync and
broadcasts it, and discards the rounds an island computed past the stop
(``discarded_agent_rounds``). Every reply is validated before it is
folded; a malformed one (a leader matrix whose rows are not probability
vectors included) is a protocol violation that loses the node.

Because every number an agent draws depends only on the root seed and the
agent index (:mod:`repro.islands.chains`), the coordinator's result is
**bit-identical to the sequential**
:class:`~repro.core.distributed.DistributedMatchMapper` for the same
seeds, however the agents are placed.

Node loss extends the execution fabric's heal ladder one level up. Inside
an island a dead *worker* is healed by ``map_salvage`` (retry → respawn →
halve → serial); a dead *island* is healed here: the break is detected at
the socket (EOF/reset, or the heartbeat deadline for a hang), a structured
failure manifest goes into the run's ``events.jsonl``, and the dead node's
chains are deterministically re-sharded onto survivors, which replay them
from the root seed plus the recorded gossip history. If the last island
dies, the coordinator itself replays every chain and finishes the run
in-process — the node-tier analogue of the dispatcher's serial tail. A
healed run returns the same bytes a failure-free run would have.
"""

from __future__ import annotations

import math
import socket
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.exceptions import ConfigurationError, FrameError, IslandError
from repro.islands import wire as island_wire
from repro.islands.chains import (
    AgentFold,
    ChainState,
    SyncRecord,
    apply_gossip,
    chain_rounds,
    replay_chain,
)
from repro.mapping.cost_model import CostModel
from repro.mapping.problem import MappingProblem
from repro.runstore.store import RunHandle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.distributed import DistributedMatchConfig

# NOTE: ``repro.core.distributed`` imports this package's ``chains`` module
# (the simulation and the islands share one agent-round implementation), so
# everything under ``repro.core`` / ``repro.service`` is imported lazily
# here to keep the package import acyclic.

__all__ = ["IslandCoordinator", "run_loopback", "shard_agents"]

#: Per-round report entries of one interval: ``{round: {agent: entry}}``.
_Rounds = dict[int, dict[int, dict[str, Any]]]


def _merge(into: _Rounds, rounds: _Rounds) -> None:
    for r, by_agent in rounds.items():
        into[r].update(by_agent)


def _sync_to_wire(record: SyncRecord) -> dict[str, Any]:
    """A committed gossip as a ``gossip`` frame's (and ``adopt`` history's) fields."""
    matrix = island_wire.encode_matrix(record.matrix)
    return {"round": record.round, "leader": record.leader, "matrix": matrix}


def shard_agents(n_agents: int, n_islands: int) -> list[list[int]]:
    """Contiguous agent shards, sizes differing by at most one.

    Deterministic in its arguments only — placement never reaches a drawn
    number, so any shard shape produces the same run.
    """
    if n_islands < 1:
        raise ConfigurationError(f"n_islands must be >= 1, got {n_islands}")
    if n_islands > n_agents:
        raise ConfigurationError(
            f"n_islands must be <= n_agents, got {n_islands} islands "
            f"for {n_agents} agents"
        )
    base, extra = divmod(n_agents, n_islands)
    shards: list[list[int]] = []
    start = 0
    for i in range(n_islands):
        size = base + (1 if i < extra else 0)
        shards.append(list(range(start, start + size)))
        start += size
    return shards


@dataclass(slots=True)
class _IslandConn:
    """Coordinator-side record of one joined island."""

    id: int
    sock: socket.socket
    name: str
    pid: int
    alive: bool = True


class _AllIslandsLost(Exception):
    """Internal: every island is dead; the caller must go local."""


class IslandCoordinator:
    """Drive one distributed MaTCH run over joined islands.

    Parameters
    ----------
    problem:
        The instance to map (``n_resources >= n_tasks``, as for the
        sequential distributed mapper).
    config:
        The shared :class:`DistributedMatchConfig`; the coordinator and the
        simulation interpret every field identically.
    seed:
        Root seed; agent ``k``'s stream is its ``k``-th spawn.
    n_islands:
        Islands that must join before the run starts.
    heartbeat_timeout:
        Seconds an island may stay silent when a frame is owed before it
        is declared dead (the node-tier heartbeat deadline). An island
        owes its report only after computing a whole interval, so the
        deadline must cover ``sync_every`` rounds of its agents' work.
        ``None`` waits forever — only sensible in tests.
    accept_timeout:
        Seconds to wait for all islands to join.
    run:
        Optional run handle; node losses and heals are logged as
        structured events (the failure manifest).
    round_hook:
        Test hook called with each round number of an interval before the
        interval is sent to the islands.
    """

    def __init__(
        self,
        problem: MappingProblem,
        config: "DistributedMatchConfig | None" = None,
        *,
        seed: int,
        n_islands: int,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_timeout: float | None = 60.0,
        accept_timeout: float | None = 60.0,
        run: RunHandle | None = None,
        round_hook: Callable[[int], None] | None = None,
    ) -> None:
        from repro.core.distributed import DistributedMatchConfig

        if config is None:
            config = DistributedMatchConfig()
        self._fold = AgentFold(problem, config)
        shard_agents(config.n_agents, n_islands)  # validates the pair
        self.problem = problem
        self.config = config
        self.seed = int(seed)
        self.n_islands = n_islands
        self.heartbeat_timeout = heartbeat_timeout
        self.accept_timeout = accept_timeout
        self.run_handle = run
        self.round_hook = round_hook
        self._model = CostModel(problem)

        self._islands: dict[int, _IslandConn] = {}
        self._owner: dict[int, int] = {}  # agent -> island id
        self._history: list[SyncRecord] = []
        self._failures: list[dict[str, Any]] = []
        self._local_chains: dict[int, ChainState] | None = None
        self._replayed_rounds = 0

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(n_islands)
        self._listener.settimeout(accept_timeout)

    @property
    def address(self) -> tuple[str, int]:
        """The ``(host, port)`` islands dial (port resolved after bind)."""
        addr = self._listener.getsockname()
        return (addr[0], addr[1])

    # -- lifecycle ---------------------------------------------------------
    def run(self) -> dict[str, Any]:
        """Accept islands, drive the run, return the result payload.

        The payload mirrors the sequential mapper's result:
        ``assignment``, ``best_cost``, ``n_evaluations`` and the same
        ``extras`` keys, plus island-runtime diagnostics.
        """
        try:
            self._accept_islands()
            return self._drive()
        finally:
            self._shutdown()

    def _accept_islands(self) -> None:
        shards = shard_agents(self.config.n_agents, self.n_islands)
        for island_id in range(self.n_islands):
            try:
                sock, _ = self._listener.accept()
            except (socket.timeout, OSError) as exc:
                raise IslandError(
                    f"only {island_id} of {self.n_islands} islands joined: {exc}"
                ) from exc
            sock.settimeout(self.heartbeat_timeout)
            hello = island_wire.recv_frame(sock)
            if hello.get("type") != "hello":
                raise IslandError(f"expected hello, got {hello.get('type')!r}")
            conn = _IslandConn(
                island_id, sock, str(hello.get("name", "")), int(hello.get("pid", 0))
            )
            self._islands[island_id] = conn
            for g in shards[island_id]:
                self._owner[g] = island_id
            self._event(
                "island-joined",
                island=island_id,
                name=conn.name,
                pid=conn.pid,
                agents=shards[island_id],
            )
        from repro.service.wire import problem_to_wire

        cfg = self.config
        job = {
            "type": "job",
            "problem": problem_to_wire(self.problem),
            "seed": self.seed,
            "n_agents": cfg.n_agents,
            "per_agent": self._fold.per_agent,
            "rho": cfg.rho,
            "zeta": cfg.zeta,
            "gossip_weight": cfg.gossip_weight,
            "sync_every": cfg.sync_every,
            "agents": [],
        }
        for island_id, conn in self._islands.items():
            payload = dict(job)
            payload["agents"] = shards[island_id]
            try:
                island_wire.send_frame(conn.sock, payload)
            except (OSError, FrameError) as exc:
                self._mark_dead(conn, 0, 0, "node-death", f"job send failed: {exc}")
        if not self._alive():
            # Every island died before round 1: the run is fully local.
            self._go_local(1, 0)

    def _drive(self) -> dict[str, Any]:
        cfg, fold = self.config, self._fold
        reason, discarded = None, 0
        while reason is None:
            # One interval: every round up to the next sync (or the last
            # round). No gossip falls inside it, so islands run it unbroken.
            first = fold.rounds + 1
            through = min(cfg.max_rounds, -(-first // cfg.sync_every) * cfg.sync_every)
            if self.round_hook is not None:
                for r in range(first, through + 1):
                    self.round_hook(r)
            interval = self._phase_interval(first, through)
            for r in range(first, through + 1):
                entries = interval[r]
                fold.fold([entries[g] for g in range(cfg.n_agents)])
                degenerate = {g: entry["degenerate"] for g, entry in entries.items()}
                leader = fold.leader()
                if leader is not None:
                    degenerate.update(self._phase_gossip(r, leader))
                reason = fold.stop(all(degenerate.values()))
                if reason is not None:
                    # The interval's later rounds were computed but the
                    # simulation never runs them: discard, and count them.
                    discarded = (through - r) * cfg.n_agents
                    break

        result = {
            "assignment": [int(v) for v in fold.x],
            "best_cost": float(fold.best),
            "n_evaluations": fold.n_evaluations,
            "extras": {
                **fold.extras(),
                "n_islands": self.n_islands,
                "node_failures": len(self._failures),
                "replayed_agent_rounds": self._replayed_rounds,
                "discarded_agent_rounds": discarded,
                "finished_locally": self._local_chains is not None,
            },
        }
        self._event("islands-run-completed", **result["extras"], best_cost=result["best_cost"])
        return result

    # -- phase: one interval of CE rounds -------------------------------------
    def _phase_interval(self, first: int, through: int) -> _Rounds:
        if self._local_chains is not None:
            return self._local_interval(first, through)
        rounds: _Rounds = {r: {} for r in range(first, through + 1)}
        sent: list[_IslandConn] = []
        for conn in self._alive():
            try:
                island_wire.send_frame(
                    conn.sock, {"type": "round", "round": first, "through": through}
                )
                sent.append(conn)
            except (OSError, FrameError) as exc:
                self._mark_dead(conn, first, through, "node-death", f"round send failed: {exc}")
        for conn in sent:
            if not conn.alive:
                continue
            try:
                msg = self._expect(conn, "report")
                _merge(rounds, self._check_rounds(msg, first, through, self._agents_of(conn)))
            except _PeerLost as exc:
                self._mark_dead(conn, first, through, exc.kind, str(exc))
        if len(rounds[first]) < self.config.n_agents:
            try:
                _merge(rounds, self._heal(first, through))
            except _AllIslandsLost:
                return self._go_local(first, through)
        return rounds

    # -- phase: gossip ------------------------------------------------------
    def _phase_gossip(self, r: int, leader: int) -> dict[int, bool]:
        if self._local_chains is not None:
            return self._local_gossip(r, leader)
        # Fetch the leader's matrix (retrying across heals: the replayed
        # leader has a bit-identical matrix wherever it lands).
        while True:
            owner = self._islands[self._owner[leader]]
            if not owner.alive:
                try:
                    self._heal(r, r)
                except _AllIslandsLost:
                    self._go_local(r, r)
                    return self._local_gossip(r, leader)
                continue
            try:
                island_wire.send_frame(
                    owner.sock, {"type": "matrix-request", "agent": leader}
                )
                leader_matrix = self._check_matrix(self._expect(owner, "matrix"), leader)
                break
            except _PeerLost as exc:
                self._mark_dead(owner, r, r, exc.kind, str(exc))
            except (OSError, FrameError) as exc:
                self._mark_dead(owner, r, r, "node-death", f"matrix request failed: {exc}")

        record = SyncRecord(round=r, leader=leader, matrix=leader_matrix)
        self._history.append(record)
        gossip = {"type": "gossip", **_sync_to_wire(record)}
        flags: dict[int, bool] = {}
        sent: list[_IslandConn] = []
        for conn in self._alive():
            try:
                island_wire.send_frame(conn.sock, gossip)
                sent.append(conn)
            except (OSError, FrameError) as exc:
                self._mark_dead(conn, r, r, "node-death", f"gossip send failed: {exc}")
        for conn in sent:
            if not conn.alive:
                continue
            try:
                msg = self._expect(conn, "gossip-ok")
                flags.update(self._check_flags(msg, self._agents_of(conn)))
            except _PeerLost as exc:
                self._mark_dead(conn, r, r, exc.kind, str(exc))
        if len(flags) < self.config.n_agents:
            # Replays include round r's gossip record, so adopted chains
            # come back post-blend and so do their round-r flags.
            try:
                healed = self._heal(r, r)[r]
            except _AllIslandsLost:
                healed = self._go_local(r, r)[r]
            for g, entry in healed.items():
                flags[g] = entry["degenerate"]
        return flags

    # -- node-loss healing --------------------------------------------------
    def _heal(self, first: int, through: int) -> _Rounds:
        """Re-shard every orphaned chain onto survivors; return their entries
        for rounds ``first..through`` (replayed, bit-identical to the lost
        answers).

        The replay applies every recorded gossip — when a sync round's
        gossip is already recorded, the orphan comes back post-blend, like
        the survivors that applied it live.
        """
        rounds: _Rounds = {r: {} for r in range(first, through + 1)}
        history = [_sync_to_wire(record) for record in self._history]
        while True:
            orphans = sorted(
                g for g, island_id in self._owner.items()
                if not self._islands[island_id].alive
            )
            if not orphans:
                return rounds
            survivors = self._alive()
            if not survivors:
                raise _AllIslandsLost()
            assignment: dict[int, list[int]] = {conn.id: [] for conn in survivors}
            for i, g in enumerate(orphans):
                assignment[survivors[i % len(survivors)].id].append(g)
            for conn in survivors:
                agents = assignment[conn.id]
                if not agents:
                    continue
                try:
                    island_wire.send_frame(
                        conn.sock,
                        {
                            "type": "adopt",
                            "agents": agents,
                            "from_round": first,
                            "through_round": through,
                            "history": history,
                        },
                    )
                    msg = self._expect(conn, "adopted")
                    adopted = self._check_rounds(msg, first, through, agents)
                except _PeerLost as exc:
                    self._mark_dead(conn, first, through, exc.kind, str(exc))
                    continue
                except (OSError, FrameError) as exc:
                    self._mark_dead(conn, first, through, "node-death", f"adopt failed: {exc}")
                    continue
                for g in agents:
                    self._owner[g] = conn.id
                _merge(rounds, adopted)
                self._replayed_rounds += len(agents) * through
                self._event(
                    "island-adopted",
                    island=conn.id,
                    agents=agents,
                    from_round=first,
                    through_round=through,
                    replayed_gossips=len(history),
                )

    def _go_local(self, first: int, through: int) -> _Rounds:
        """Last heal rung: no islands left — replay everything in-process.

        The node-tier analogue of the dispatcher's serial tail: the
        coordinator rebuilds every chain from the root seed and the gossip
        history through round ``through``, then finishes the remaining
        rounds itself. Returns the entries for rounds ``first..through``
        (none when ``through`` is 0 — nothing ran yet).
        """
        cfg = self.config
        history = list(self._history)
        chains: dict[int, ChainState] = {}
        rounds: _Rounds = {r: {} for r in range(first, through + 1)}
        for g in range(cfg.n_agents):
            chains[g], reports = replay_chain(
                self._model, self.seed, g, self._fold.per_agent,
                cfg.rho, cfg.zeta, cfg.gossip_weight, history, through,
            )
            for r in rounds:
                rounds[r][g] = reports[r]
            self._replayed_rounds += through
        self._local_chains = chains
        self._event(
            "islands-degraded-local",
            from_round=first,
            through_round=through,
            replayed_gossips=len(history),
            n_agents=cfg.n_agents,
        )
        return rounds

    def _local_interval(self, first: int, through: int) -> _Rounds:
        """One interval of every chain, in-process, as one agent stack."""
        cfg = self.config
        chains = self._local_chains
        assert chains is not None
        order = sorted(chains)
        P, entries = chain_rounds(
            np.stack([chains[g].matrix for g in order]),
            [chains[g].rng for g in order],
            self._model, self._fold.per_agent, cfg.rho, cfg.zeta, through - first + 1,
        )
        for j, g in enumerate(order):
            chains[g].matrix = P[j]
            chains[g].degenerate = entries[-1][j]["degenerate"]
        return {
            r: dict(zip(order, by_agent)) for r, by_agent in enumerate(entries, start=first)
        }

    def _local_gossip(self, r: int, leader: int) -> dict[int, bool]:
        cfg = self.config
        chains = self._local_chains
        assert chains is not None
        leader_P = chains[leader].matrix
        self._history.append(SyncRecord(round=r, leader=leader, matrix=leader_P))
        apply_gossip(chains, r, leader, leader_P, cfg.gossip_weight)
        return {g: chains[g].degenerate for g in sorted(chains)}

    # -- plumbing -----------------------------------------------------------
    def _alive(self) -> list[_IslandConn]:
        return [c for c in self._islands.values() if c.alive]

    def _expect(self, conn: _IslandConn, expected: str) -> dict[str, Any]:
        """Receive the next frame from ``conn``, requiring type ``expected``.

        Socket deaths and deadline expiries surface as :class:`_PeerLost`
        with the structured kind the failure manifest records.
        """
        try:
            msg = island_wire.recv_frame(conn.sock)
        except FrameError as exc:
            raise _PeerLost(
                "node-death" if exc.kind == "truncated" else "node-protocol",
                f"{exc.kind}: {exc}",
            ) from exc
        except socket.timeout as exc:
            raise _PeerLost(
                "node-timeout",
                f"no frame within the {self.heartbeat_timeout}s heartbeat deadline",
            ) from exc
        except OSError as exc:
            raise _PeerLost("node-death", f"socket error: {exc}") from exc
        if msg.get("type") != expected:
            raise _PeerLost(
                "node-protocol",
                f"expected {expected!r}, got {msg.get('type')!r}",
            )
        return msg

    def _agents_of(self, conn: _IslandConn) -> list[int]:
        return sorted(g for g, owner in self._owner.items() if owner == conn.id)

    def _check_rounds(
        self, msg: dict[str, Any], first: int, through: int, agents: list[int]
    ) -> _Rounds:
        """Validate a ``report``/``adopted`` reply's per-round entries.

        The round keys must be exactly the interval and each round's agent
        keys exactly ``agents``; any defect is a protocol violation.
        """
        rounds = msg.get("rounds")
        if not isinstance(rounds, dict) or set(rounds) != {
            str(r) for r in range(first, through + 1)
        }:
            raise _PeerLost(
                "node-protocol", f"{msg.get('type')} must cover rounds {first}..{through}"
            )
        want = {str(g) for g in agents}
        out: _Rounds = {}
        for key, by_agent in rounds.items():
            if not isinstance(by_agent, dict) or set(by_agent) != want:
                raise _PeerLost(
                    "node-protocol", f"round {key} must carry exactly agents {agents}"
                )
            out[int(key)] = {
                int(g): self._check_entry(entry, key, g) for g, entry in by_agent.items()
            }
        return out

    def _check_entry(self, entry: Any, r: str, g: str) -> dict[str, Any]:
        n_t, n_r = self.problem.n_tasks, self.problem.n_resources
        if not isinstance(entry, dict):
            raise _PeerLost("node-protocol", f"round {r} agent {g}: entry is not an object")
        cost, x, degenerate = entry.get("cost"), entry.get("x"), entry.get("degenerate")
        if not isinstance(cost, float) or not math.isfinite(cost):
            raise _PeerLost("node-protocol", f"round {r} agent {g}: cost {cost!r} is not a finite float")
        if not (
            isinstance(x, list)
            and len(x) == n_t
            and all(type(v) is int and 0 <= v < n_r for v in x)
            and len(set(x)) == n_t
        ):
            raise _PeerLost(
                "node-protocol",
                f"round {r} agent {g}: x must hold {n_t} distinct ints in [0, {n_r})",
            )
        if not isinstance(degenerate, bool):
            raise _PeerLost("node-protocol", f"round {r} agent {g}: degenerate is not a bool")
        return {"cost": cost, "x": x, "degenerate": degenerate}

    def _check_flags(self, msg: dict[str, Any], agents: list[int]) -> dict[int, bool]:
        """Validate a ``gossip-ok`` reply: one bool flag per owned agent."""
        flags = msg.get("degenerate")
        if (
            not isinstance(flags, dict)
            or set(flags) != {str(g) for g in agents}
            or not all(isinstance(f, bool) for f in flags.values())
        ):
            raise _PeerLost(
                "node-protocol", f"gossip-ok must carry one bool flag for each of {agents}"
            )
        return {int(g): f for g, f in flags.items()}

    def _check_matrix(self, msg: dict[str, Any], leader: int) -> np.ndarray:
        """Validate a ``matrix`` reply: the leader's P, decoded by the rule a
        ``gossip`` frame's matrix follows on the islands."""
        if msg.get("agent") != leader:
            raise _PeerLost("node-protocol", f"matrix reply must be for agent {leader}")
        shape = (self.problem.n_tasks, self.problem.n_resources)
        try:
            return island_wire.decode_leader_matrix(msg.get("matrix"), shape, "matrix")
        except FrameError as exc:
            raise _PeerLost("node-protocol", str(exc)) from exc

    def _mark_dead(
        self, conn: _IslandConn, first: int, through: int, kind: str, message: str
    ) -> None:
        """Close ``conn`` and write its ``node-lost`` manifest; ``first`` and
        ``through`` name the rounds whose answers were lost."""
        if not conn.alive:
            return
        conn.alive = False
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
        manifest = {
            "island": conn.id,
            "name": conn.name,
            "pid": conn.pid,
            "round": first,
            "through_round": through,
            "kind": kind,
            "agents": self._agents_of(conn),
            "message": message,
            "survivors": [c.id for c in self._alive()],
        }
        self._failures.append(manifest)
        self._event("node-lost", **manifest)

    def _shutdown(self) -> None:
        for conn in self._alive():
            try:
                island_wire.send_frame(conn.sock, {"type": "stop"})
                self._expect(conn, "stopped")
            except (_PeerLost, OSError, FrameError):  # pragma: no cover
                pass
        for conn in self._islands.values():
            try:
                conn.sock.close()
            except OSError:  # pragma: no cover
                pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover
            pass

    def _event(self, event: str, **fields: Any) -> None:
        if self.run_handle is not None:
            self.run_handle.log_event(event, **fields)


class _PeerLost(Exception):
    """Internal: one island stopped answering; carries the manifest kind."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind


def run_loopback(
    problem: MappingProblem,
    config: "DistributedMatchConfig | None" = None,
    *,
    seed: int,
    n_islands: int = 2,
    n_workers: int = 1,
    heartbeat_timeout: float | None = 60.0,
    run: RunHandle | None = None,
    round_hook: Callable[[int], None] | None = None,
) -> dict[str, Any]:
    """One-call loopback run: coordinator plus ``n_islands`` local islands.

    Islands run as daemon threads on 127.0.0.1 — real sockets, the real
    protocol, no extra processes — which is what the parity pin and the
    benchmark drive. Returns the coordinator's result payload.
    """
    import threading

    from repro.islands.island import run_island

    coordinator = IslandCoordinator(
        problem,
        config,
        seed=seed,
        n_islands=n_islands,
        heartbeat_timeout=heartbeat_timeout,
        run=run,
        round_hook=round_hook,
    )
    host, port = coordinator.address
    threads = [
        threading.Thread(
            target=run_island,
            args=(host, port),
            kwargs={"n_workers": n_workers, "name": f"loopback-{i}"},
            daemon=True,
        )
        for i in range(n_islands)
    ]
    for thread in threads:
        thread.start()
    result = coordinator.run()
    for thread in threads:
        thread.join(timeout=10.0)
    return result
