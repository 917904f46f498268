"""Loopback island runtime: bit-parity with the sequential simulation.

The tentpole contract: a distributed run over real sockets returns the
same bytes as :class:`DistributedMatchMapper` for the same seeds, whatever
the placement — including after node deaths, down to the coordinator
finishing alone. The golden fixture pins both sides to recorded numbers
so a joint drift cannot hide.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core import distributed
from repro.core.distributed import DistributedMatchConfig, DistributedMatchMapper
from repro.exceptions import ConfigurationError
from repro.graphs import generate_paper_pair
from repro.islands import IslandCoordinator, run_loopback, shard_agents
from repro.islands import wire as island_wire
from repro.islands.chains import AgentFold
from repro.islands.island import IslandWorker
from repro.mapping import MappingProblem
from repro.runstore import RunStore

FIXTURE = Path(__file__).parent.parent / "fixtures" / "golden_islands.json"

#: SHA-256 of the agent simulation's final ``(4, 8, 8)`` float64 stack
#: (little-endian bytes) at the golden fixture's config and seed.
SIMULATION_MATRICES_SHA256 = (
    "dd99268645dd46a0615e624bdd5f594e3fa77f3a66881d716b137a83df6adf44"
)

CONFIG = DistributedMatchConfig(
    n_agents=4, sync_every=5, total_samples=64, max_rounds=30
)


def make_problem(size: int = 8, seed: int = 7) -> MappingProblem:
    pair = generate_paper_pair(size, seed)
    return MappingProblem(pair.tig, pair.resources, require_square=True)


def sequential(problem: MappingProblem, seed: int, config=CONFIG):
    return DistributedMatchMapper(config).map(problem, seed)


def assert_parity(result: dict, reference) -> None:
    """Distributed payload vs a sequential MappingResult — bit-for-bit."""
    assert result["assignment"] == [int(x) for x in reference.assignment]
    assert result["best_cost"] == reference.execution_time
    assert result["n_evaluations"] == reference.n_evaluations
    assert result["extras"]["rounds"] == reference.extras["rounds"]
    assert result["extras"]["n_syncs"] == reference.extras["n_syncs"]


class TestShardAgents:
    def test_contiguous_and_balanced(self):
        assert shard_agents(7, 3) == [[0, 1, 2], [3, 4], [5, 6]]
        assert shard_agents(4, 4) == [[0], [1], [2], [3]]
        assert shard_agents(4, 1) == [[0, 1, 2, 3]]

    @pytest.mark.parametrize("n_islands", [0, -1, 5])
    def test_invalid_counts_rejected(self, n_islands):
        with pytest.raises(ConfigurationError):
            shard_agents(4, n_islands)


class TestLoopbackParity:
    def test_two_islands_bit_identical_to_sequential(self):
        problem = make_problem()
        reference = sequential(problem, 7)
        result = run_loopback(problem, CONFIG, seed=7, n_islands=2)
        assert_parity(result, reference)
        assert result["extras"]["node_failures"] == 0
        assert result["extras"]["finished_locally"] is False
        # Islands ran the stop round's whole interval; the rounds past the
        # stop are counted, not folded.
        rounds = result["extras"]["rounds"]
        interval_end = min(
            CONFIG.max_rounds, math.ceil(rounds / CONFIG.sync_every) * CONFIG.sync_every
        )
        assert result["extras"]["discarded_agent_rounds"] == (
            (interval_end - rounds) * CONFIG.n_agents
        )

    def test_frame_budget_is_one_exchange_per_interval(self, monkeypatch):
        """Frames scale with intervals and syncs, not rounds: a lockstep
        barrier on every round would blow this budget."""
        frames: list[str] = []
        send_frame = island_wire.send_frame

        def counting_send(sock, payload, **kwargs):
            frames.append(payload["type"])
            return send_frame(sock, payload, **kwargs)

        monkeypatch.setattr(island_wire, "send_frame", counting_send)
        n_islands = 2
        result = run_loopback(make_problem(), CONFIG, seed=7, n_islands=n_islands)
        rounds, n_syncs = result["extras"]["rounds"], result["extras"]["n_syncs"]
        assert rounds > CONFIG.sync_every  # more than one interval ran
        budget = (
            4 * n_islands
            + 2 * n_islands * math.ceil(rounds / CONFIG.sync_every)
            + (2 + 2 * n_islands) * n_syncs
        )
        assert len(frames) <= budget, sorted(frames)

    @pytest.mark.parametrize("n_islands", [1, 4])
    def test_placement_invariance(self, n_islands):
        """Any shard shape produces the same bytes: placement never
        reaches a drawn number."""
        problem = make_problem()
        reference = sequential(problem, 7)
        result = run_loopback(problem, CONFIG, seed=7, n_islands=n_islands)
        assert_parity(result, reference)

    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_worker_count_invariance(self, n_workers):
        """An island runs its agents as one stacked cell per worker (here
        blocks of 2+2 and 2+1+1 agents); any split gives the same bytes."""
        problem = make_problem()
        reference = sequential(problem, 7)
        result = run_loopback(problem, CONFIG, seed=7, n_islands=1, n_workers=n_workers)
        assert_parity(result, reference)

    def test_golden_fixture_pins_both_sides(self):
        """Sequential and 2-island runs both reproduce the recorded
        fixture — a joint drift of the shared round step cannot hide
        behind their mutual agreement."""
        fx = json.loads(FIXTURE.read_text())
        problem = make_problem(fx["size"], fx["seed"])
        config = DistributedMatchConfig(**fx["config"])
        expect = fx["expect"]

        reference = sequential(problem, fx["seed"], config)
        assert [int(x) for x in reference.assignment] == expect["assignment"]
        assert reference.execution_time == expect["execution_time"]
        assert reference.n_evaluations == expect["n_evaluations"]
        assert reference.extras["rounds"] == expect["rounds"]
        assert reference.extras["n_syncs"] == expect["n_syncs"]

        result = run_loopback(problem, config, seed=fx["seed"], n_islands=2)
        assert result["assignment"] == expect["assignment"]
        assert result["best_cost"] == expect["execution_time"]
        assert result["n_evaluations"] == expect["n_evaluations"]
        assert result["extras"]["rounds"] == expect["rounds"]
        assert result["extras"]["n_syncs"] == expect["n_syncs"]

    def test_golden_simulation_matrices(self, monkeypatch):
        """The simulation's final matrix stack at the golden config, pinned
        by hash. End results alone miss a drift in the gossip arithmetic
        (rewriting the blend as ``leader_P + (1 - w) * (P - leader_P)``
        keeps them but changes these bits)."""
        fx = json.loads(FIXTURE.read_text())
        stacks = []
        rounds = distributed.chain_rounds

        def recording(*args, **kwargs):
            P, entries = rounds(*args, **kwargs)
            stacks.append(P)  # the gossip blend then writes into P in place
            return P, entries

        monkeypatch.setattr(distributed, "chain_rounds", recording)
        sequential(make_problem(fx["size"], fx["seed"]), fx["seed"],
                   DistributedMatchConfig(**fx["config"]))
        final = np.ascontiguousarray(stacks[-1], dtype="<f8")
        assert final.shape == (4, 8, 8)
        assert hashlib.sha256(final.tobytes()).hexdigest() == SIMULATION_MATRICES_SHA256


#: One config per rule of the shared fold that ends a run (seed 7, size 8).
STOP_PATHS = {
    "max_rounds": DistributedMatchConfig(
        n_agents=4, sync_every=5, total_samples=64, max_rounds=7
    ),
    "stagnation": CONFIG,
    "degenerate": DistributedMatchConfig(
        n_agents=4, sync_every=5, total_samples=64, max_rounds=100, gamma_window=100, zeta=0.9
    ),
    "single-agent": DistributedMatchConfig(n_agents=1, total_samples=64, max_rounds=30),
}


class TestStopPaths:
    @pytest.mark.parametrize("path", sorted(STOP_PATHS))
    def test_every_stop_rule_keeps_parity(self, monkeypatch, path):
        """The simulation and a loopback run stop on the same rule, on the
        same round, with the same bytes; the islands' rounds past the stop
        are discarded, not folded."""
        config = STOP_PATHS[path]
        fired: list[str | None] = []
        stop = AgentFold.stop

        def recording(self, all_degenerate):
            fired.append(stop(self, all_degenerate))
            return fired[-1]

        monkeypatch.setattr(AgentFold, "stop", recording)
        problem = make_problem()
        reference = sequential(problem, 7, config)
        sequential_rule = fired[-1]
        fired.clear()
        result = run_loopback(problem, config, seed=7, n_islands=min(2, config.n_agents))
        assert_parity(result, reference)
        rule = "stagnation" if path == "single-agent" else path
        assert sequential_rule == fired[-1] == rule
        rounds = result["extras"]["rounds"]
        interval_end = min(
            config.max_rounds, math.ceil(rounds / config.sync_every) * config.sync_every
        )
        assert result["extras"]["discarded_agent_rounds"] == (
            (interval_end - rounds) * config.n_agents
        )
        if path == "single-agent":
            assert result["extras"]["n_syncs"] == 0
        if path == "max_rounds":
            assert rounds == config.max_rounds and rounds % config.sync_every


class _TamperedSocket:
    """Socket proxy that passes an island's outgoing frames through
    ``tamper`` (which may rewrite a frame or raise to kill the island)."""

    def __init__(self, sock, tamper):
        self._sock = sock
        self._tamper = tamper

    def sendall(self, data: bytes) -> None:
        frame = self._tamper(json.loads(data[4:]))
        body = json.dumps(frame, separators=(",", ":")).encode("utf-8")
        self._sock.sendall(struct.pack("!I", len(body)) + body)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class _TamperingIsland(IslandWorker):
    def __init__(self, address, tamper, **kwargs):
        super().__init__(address, **kwargs)
        self.tamper = tamper

    def _serve_job(self, sock, job):
        super()._serve_job(_TamperedSocket(sock, self.tamper), job)


def first_frames(frame_type, rewrite, *, shots=1):
    """A tamper shared by several islands: ``rewrite`` the first ``shots``
    frames of ``frame_type`` any of them sends, pass the rest through."""
    lock = threading.Lock()
    fired = [0]

    def tamper(frame):
        if frame.get("type") != frame_type:
            return frame
        with lock:
            if fired[0] >= shots:
                return frame
            fired[0] += 1
        return rewrite(frame)

    return tamper


def die(frame):
    raise RuntimeError(f"chaos: island dies instead of sending {frame['type']!r}")


def spawn_island(address, *, name, die_at=None, tamper=None):
    """One island thread; ``die_at`` crashes it when it is sent the
    interval holding that round (socket closes, the coordinator sees a
    dead node); ``tamper`` rewrites or blocks its outgoing frames."""

    def on_round(r: int) -> None:
        if die_at is not None and r == die_at:
            raise RuntimeError(f"chaos: {name} dies at round {r}")

    if tamper is None:
        worker = IslandWorker(address, n_workers=1, name=name, on_round=on_round)
    else:
        worker = _TamperingIsland(
            address, tamper, n_workers=1, name=name, on_round=on_round
        )

    def target() -> None:
        try:
            worker.run()
        except Exception:
            pass  # a crashing island is the point

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


class TestNodeLossHealing:
    def test_island_death_heals_bit_identically(self, tmp_path):
        problem = make_problem()
        reference = sequential(problem, 7)
        store = RunStore(tmp_path)
        run = store.start_run("islands-test")
        coordinator = IslandCoordinator(
            problem, CONFIG, seed=7, n_islands=2,
            heartbeat_timeout=20.0, run=run,
        )
        threads = [
            spawn_island(coordinator.address, name="victim", die_at=7),
            spawn_island(coordinator.address, name="survivor"),
        ]
        result = coordinator.run()
        run.finalize(status="complete")
        for t in threads:
            t.join(timeout=10.0)

        assert_parity(result, reference)
        assert result["extras"]["node_failures"] == 1
        assert result["extras"]["replayed_agent_rounds"] > 0
        assert result["extras"]["finished_locally"] is False

        # Structured failure manifest in the run's events.jsonl.
        events = store.read_events(run.run_id)
        lost = [e for e in events if e.get("event") == "node-lost"]
        assert len(lost) == 1
        manifest = lost[0]
        assert manifest["kind"] in ("node-death", "node-timeout")
        # Round 7 lies in the interval 6..10; the manifest names all of it.
        assert manifest["round"] == 6
        assert manifest["through_round"] == 10
        assert manifest["name"] == "victim"
        assert sorted(manifest["agents"]) == manifest["agents"]
        # Island ids follow connection order, which the two threads race for.
        ids = {e["name"]: e["island"] for e in events if e.get("event") == "island-joined"}
        assert manifest["island"] == ids["victim"]
        assert manifest["survivors"] == [ids["survivor"]]
        adopted = [e for e in events if e.get("event") == "island-adopted"]
        assert adopted and adopted[0]["agents"] == manifest["agents"]

    def test_death_on_sync_round_still_bit_identical(self):
        """Round 5 ends the first interval on a gossip round: the heal
        replays the whole lost interval, and the adopted chains then take
        the round-5 blend on the survivor exactly once."""
        problem = make_problem()
        reference = sequential(problem, 7)
        coordinator = IslandCoordinator(
            problem, CONFIG, seed=7, n_islands=2, heartbeat_timeout=20.0
        )
        threads = [
            spawn_island(coordinator.address, name="victim", die_at=5),
            spawn_island(coordinator.address, name="survivor"),
        ]
        result = coordinator.run()
        for t in threads:
            t.join(timeout=10.0)
        assert_parity(result, reference)
        assert result["extras"]["node_failures"] == 1

    def test_all_islands_dead_finishes_locally(self):
        """The node-tier serial tail: every island dies, the coordinator
        replays every chain and still returns the same bytes."""
        problem = make_problem()
        reference = sequential(problem, 7)
        coordinator = IslandCoordinator(
            problem, CONFIG, seed=7, n_islands=2, heartbeat_timeout=20.0
        )
        threads = [
            spawn_island(coordinator.address, name="victim-0", die_at=5),
            spawn_island(coordinator.address, name="victim-1", die_at=10),
        ]
        result = coordinator.run()
        for t in threads:
            t.join(timeout=10.0)
        assert_parity(result, reference)
        assert result["extras"]["node_failures"] == 2
        assert result["extras"]["finished_locally"] is True

    @pytest.mark.parametrize(
        ("die_at", "n_islands"),
        [(8, 2), (10, 2), (8, 3)],
        ids=["mid-interval", "interval-end-sync-round", "mid-interval-3-islands"],
    )
    def test_death_in_an_interval_heals_bit_identically(self, tmp_path, die_at, n_islands):
        problem = make_problem()
        reference = sequential(problem, 7)
        store = RunStore(tmp_path)
        run = store.start_run("islands-test")
        coordinator = IslandCoordinator(
            problem, CONFIG, seed=7, n_islands=n_islands,
            heartbeat_timeout=20.0, run=run,
        )
        threads = [spawn_island(coordinator.address, name="victim", die_at=die_at)]
        threads += [
            spawn_island(coordinator.address, name=f"survivor-{i}")
            for i in range(n_islands - 1)
        ]
        result = coordinator.run()
        run.finalize(status="complete")
        for t in threads:
            t.join(timeout=10.0)
        assert_parity(result, reference)
        assert result["extras"]["node_failures"] == 1
        (manifest,) = [
            e for e in store.read_events(run.run_id) if e.get("event") == "node-lost"
        ]
        assert (manifest["round"], manifest["through_round"]) == (6, 10)

    @pytest.mark.parametrize("frame_type", ["matrix", "gossip-ok"])
    def test_death_during_gossip_heals_bit_identically(self, frame_type):
        """An island dies after reporting the sync round's interval: while
        the leader matrix is fetched, or after it applied the blend."""
        problem = make_problem()
        reference = sequential(problem, 7)
        coordinator = IslandCoordinator(
            problem, CONFIG, seed=7, n_islands=2, heartbeat_timeout=20.0
        )
        tamper = first_frames(frame_type, die)
        threads = [
            spawn_island(coordinator.address, name=f"island-{i}", tamper=tamper)
            for i in range(2)
        ]
        result = coordinator.run()
        for t in threads:
            t.join(timeout=10.0)
        assert_parity(result, reference)
        assert result["extras"]["node_failures"] == 1
        assert result["extras"]["finished_locally"] is False

    @pytest.mark.parametrize(
        ("die_at", "frame_type"),
        [((3, 8), None), ((8, 8), None), ((None, None), "matrix"), ((None, None), "gossip-ok")],
        ids=["intervals-1-and-2", "same-interval", "both-at-matrix", "both-at-gossip-ok"],
    )
    def test_all_islands_dead_in_any_phase_finishes_locally(self, die_at, frame_type):
        problem = make_problem()
        reference = sequential(problem, 7)
        coordinator = IslandCoordinator(
            problem, CONFIG, seed=7, n_islands=2, heartbeat_timeout=20.0
        )
        tamper = None if frame_type is None else first_frames(frame_type, die, shots=2)
        threads = [
            spawn_island(coordinator.address, name=f"victim-{i}", die_at=at, tamper=tamper)
            for i, at in enumerate(die_at)
        ]
        result = coordinator.run()
        for t in threads:
            t.join(timeout=10.0)
        assert_parity(result, reference)
        assert result["extras"]["node_failures"] == 2
        assert result["extras"]["finished_locally"] is True


def _each_entry(frame, edit):
    for by_agent in frame["rounds"].values():
        for entry in by_agent.values():
            edit(entry)
    return frame


def _foreign_agent(frame):
    for by_agent in frame["rounds"].values():
        own = sorted(by_agent)
        foreign = min(set(map(str, range(CONFIG.n_agents))) - set(own))
        by_agent[foreign] = dict(by_agent[own[0]])
    return frame


#: Malformed replies an evil island sends once; each must cost the island
#: its place, never crash the coordinator.
EVIL_REPLIES = {
    "non-integer-agent-key": (
        "report", lambda f: {**f, "rounds": {r: {"x": {}} for r in f["rounds"]}}
    ),
    "entry-without-cost": (
        "report",
        lambda f: {**f, "rounds": {r: {g: {"x": [0]} for g in a} for r, a in f["rounds"].items()}},
    ),
    "rounds-not-an-object": ("report", lambda f: {**f, "rounds": []}),
    "missing-round": (
        "report", lambda f: {**f, "rounds": dict(list(f["rounds"].items())[1:])}
    ),
    "foreign-agent": ("report", _foreign_agent),
    "nan-cost": ("report", lambda f: _each_entry(f, lambda e: e.update(cost=float("nan")))),
    "repeated-resource": ("report", lambda f: _each_entry(f, lambda e: e.update(x=[0] * len(e["x"])))),
    "resource-out-of-range": ("report", lambda f: _each_entry(f, lambda e: e["x"].__setitem__(0, 99))),
    "degenerate-not-bool": ("report", lambda f: _each_entry(f, lambda e: e.update(degenerate=0))),
    "wrong-shape-matrix": (
        "matrix", lambda f: {**f, "matrix": island_wire.encode_matrix(np.full((2, 2), 0.5))}
    ),
    "nan-matrix": (
        "matrix",
        lambda f: {
            **f,
            "matrix": island_wire.encode_matrix(
                np.full(f["matrix"]["shape"], float("nan"))
            ),
        },
    ),
    "off-simplex-matrix": (
        "matrix",
        lambda f: {**f, "matrix": island_wire.encode_matrix(np.full(f["matrix"]["shape"], 0.5))},
    ),
    "gossip-flag-not-bool": (
        "gossip-ok", lambda f: {**f, "degenerate": {g: "yes" for g in f["degenerate"]}}
    ),
}


class TestEvilIsland:
    @pytest.mark.parametrize("case", sorted(EVIL_REPLIES))
    def test_malformed_reply_loses_the_node_not_the_run(self, tmp_path, case):
        frame_type, rewrite = EVIL_REPLIES[case]
        problem = make_problem()
        reference = sequential(problem, 7)
        store = RunStore(tmp_path)
        run = store.start_run("islands-evil")
        coordinator = IslandCoordinator(
            problem, CONFIG, seed=7, n_islands=2, heartbeat_timeout=20.0, run=run
        )
        tamper = first_frames(frame_type, rewrite)
        threads = [
            spawn_island(coordinator.address, name=f"island-{i}", tamper=tamper)
            for i in range(2)
        ]
        result = coordinator.run()
        run.finalize(status="complete")
        for t in threads:
            t.join(timeout=10.0)
        assert_parity(result, reference)
        assert result["extras"]["node_failures"] == 1
        (manifest,) = [
            e for e in store.read_events(run.run_id) if e.get("event") == "node-lost"
        ]
        assert manifest["kind"] == "node-protocol"
