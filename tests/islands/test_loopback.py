"""Loopback island runtime: bit-parity with the sequential simulation.

The tentpole contract: a distributed run over real sockets returns the
same bytes as :class:`DistributedMatchMapper` for the same seeds, whatever
the placement — including after node deaths, down to the coordinator
finishing alone. The golden fixture pins both sides to recorded numbers
so a joint drift cannot hide.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

import pytest

from repro.core.distributed import DistributedMatchConfig, DistributedMatchMapper
from repro.exceptions import ConfigurationError
from repro.graphs import generate_paper_pair
from repro.islands import IslandCoordinator, run_loopback, shard_agents
from repro.islands.island import IslandWorker
from repro.mapping import MappingProblem
from repro.runstore import RunStore

FIXTURE = Path(__file__).parent.parent / "fixtures" / "golden_islands.json"

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

    @pytest.mark.parametrize("n_islands", [1, 4])
    def test_placement_invariance(self, n_islands):
        """Any shard shape produces the same bytes: placement never
        reaches a drawn number."""
        problem = make_problem()
        reference = sequential(problem, 7)
        result = run_loopback(problem, CONFIG, seed=7, n_islands=n_islands)
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


def spawn_island(address, *, name, die_at=None):
    """One island thread; ``die_at`` crashes it at that round (socket
    closes, the coordinator sees a dead node)."""

    def on_round(r: int) -> None:
        if die_at is not None and r == die_at:
            raise RuntimeError(f"chaos: {name} dies at round {r}")

    worker = IslandWorker(address, n_workers=1, name=name, on_round=on_round)

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
        assert manifest["round"] == 7
        assert manifest["name"] == "victim"
        assert sorted(manifest["agents"]) == manifest["agents"]
        # Island ids follow connection order, which the two threads race for.
        ids = {e["name"]: e["island"] for e in events if e.get("event") == "island-joined"}
        assert manifest["island"] == ids["victim"]
        assert manifest["survivors"] == [ids["survivor"]]
        adopted = [e for e in events if e.get("event") == "island-adopted"]
        assert adopted and adopted[0]["agents"] == manifest["agents"]

    def test_death_on_sync_round_still_bit_identical(self):
        """Round 5 is a gossip round: the heal must replay *through* the
        interrupted sync without double-blending any matrix."""
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
