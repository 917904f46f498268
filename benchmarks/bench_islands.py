"""Island-runtime benchmark — writes ``BENCH_islands.json``.

Measures the socket-distributed island runtime (:mod:`repro.islands`)
against the sequential agent simulation it must reproduce
(:class:`repro.core.distributed.DistributedMatchMapper`): same problem,
same seeds, loopback islands on 127.0.0.1. Three measurement groups:

* **workload** — instance size, agent/round structure, seeds;
* **sequential** — the in-process simulation's wall-clock;
* **islands** — the loopback runtime at 1, 2 and 4 islands: wall-clock,
  protocol overhead per agent-round, sync/round counts, and the
  agent-rounds islands computed past the stop round and discarded.

Islands exchange frames once per sync interval, not once per round: each
island runs every round up to the next gossip unbroken and returns all of
their entries in one report, which the coordinator folds round by round.

Every distributed run is checked **bit-identical** to the sequential
simulation (assignment, execution time, evaluation count, round/sync
structure) — the loopback transport must be invisible in the numbers. On
a single host the runtime cannot be faster than the simulation (same
arithmetic plus frame traffic), so the acceptance bar is an *overhead
ceiling*: the protocol tax per agent-round must stay bounded, which is
what makes multi-node deployments worthwhile once real cores back the
islands.

Usage::

    PYTHONPATH=src python benchmarks/bench_islands.py [--smoke] [--out PATH]
        [--runs-dir DIR]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.core.distributed import DistributedMatchConfig, DistributedMatchMapper
from repro.graphs import generate_paper_pair
from repro.islands import run_loopback
from repro.mapping import MappingProblem
from repro.runstore import BenchResult

#: Acceptance bar: mean protocol overhead per agent-round of the 2-island
#: loopback run, in milliseconds. Loopback frames on one host cost well
#: under a millisecond; blowing through 25 ms/agent-round means the
#: interval protocol (not the arithmetic) dominates and multi-node scaling
#: claims would be hollow.
TARGET_OVERHEAD_MS_PER_AGENT_ROUND = 25.0

ISLAND_COUNTS = (1, 2, 4)


def _build(size: int, seed: int) -> MappingProblem:
    pair = generate_paper_pair(size, seed)
    return MappingProblem(pair.tig, pair.resources, require_square=True)


def _assert_parity(result: dict, reference, n_islands: int) -> None:
    mismatches = []
    if result["assignment"] != [int(x) for x in reference.assignment]:
        mismatches.append("assignment")
    if result["best_cost"] != reference.execution_time:
        mismatches.append("execution_time")
    if result["n_evaluations"] != reference.n_evaluations:
        mismatches.append("n_evaluations")
    if result["extras"]["rounds"] != reference.extras["rounds"]:
        mismatches.append("rounds")
    if result["extras"]["n_syncs"] != reference.extras["n_syncs"]:
        mismatches.append("n_syncs")
    if mismatches:
        raise AssertionError(
            f"{n_islands}-island run diverged from the sequential simulation "
            f"in: {', '.join(mismatches)}"
        )


def run(
    smoke: bool = False,
    out: str | Path | None = None,
    runs_root: str | Path | None = None,
) -> dict:
    if smoke:
        size, seed = 8, 7
        config = DistributedMatchConfig(
            n_agents=4, sync_every=5, total_samples=64, max_rounds=30
        )
    else:
        size, seed = 16, 2005
        config = DistributedMatchConfig(
            n_agents=4, sync_every=5, total_samples=512, max_rounds=120
        )

    problem = _build(size, seed)

    t0 = time.perf_counter()
    reference = DistributedMatchMapper(config).map(problem, seed)
    sequential_s = time.perf_counter() - t0

    agent_rounds = reference.extras["rounds"] * config.n_agents
    island_groups: dict[str, dict] = {}
    overhead_two_islands_ms = None
    for n_islands in ISLAND_COUNTS:
        t0 = time.perf_counter()
        result = run_loopback(problem, config, seed=seed, n_islands=n_islands)
        elapsed = time.perf_counter() - t0
        _assert_parity(result, reference, n_islands)
        overhead_ms = max(0.0, elapsed - sequential_s) * 1000.0 / agent_rounds
        if n_islands == 2:
            overhead_two_islands_ms = overhead_ms
        island_groups[f"islands_{n_islands}"] = {
            "n_islands": n_islands,
            "seconds": elapsed,
            "slowdown_vs_sequential": elapsed / sequential_s if sequential_s else None,
            "protocol_overhead_ms_per_agent_round": overhead_ms,
            "rounds": result["extras"]["rounds"],
            "n_syncs": result["extras"]["n_syncs"],
            "discarded_agent_rounds": result["extras"]["discarded_agent_rounds"],
            "node_failures": result["extras"]["node_failures"],
            "parity_ok": True,
        }

    workload = {
        "size": size,
        "seed": seed,
        "n_agents": config.n_agents,
        "sync_every": config.sync_every,
        "total_samples_per_round": config.total_samples,
        "rounds": reference.extras["rounds"],
        "agent_rounds": agent_rounds,
        "n_evaluations": reference.n_evaluations,
    }
    sequential_group = {
        "seconds": sequential_s,
        "agent_rounds_per_s": agent_rounds / sequential_s if sequential_s else None,
    }

    acceptance = {
        "criterion": (
            "every loopback island run bit-identical to the sequential "
            "simulation (assignment, ET, evaluations, round/sync structure); "
            "2-island protocol overhead per agent-round under "
            f"{TARGET_OVERHEAD_MS_PER_AGENT_ROUND} ms"
        ),
        "target_overhead_ms_per_agent_round": TARGET_OVERHEAD_MS_PER_AGENT_ROUND,
        "measured_overhead_ms_per_agent_round": overhead_two_islands_ms,
        "parity_ok": True,
        "met": (
            bool(overhead_two_islands_ms <= TARGET_OVERHEAD_MS_PER_AGENT_ROUND)
            if not smoke
            else None
        ),
    }

    out_path = (
        Path(out)
        if out is not None
        else Path(__file__).parent.parent / "BENCH_islands.json"
    )
    return BenchResult(
        "islands",
        smoke=smoke,
        groups={
            "workload": workload,
            "sequential": sequential_group,
            **island_groups,
        },
        acceptance=acceptance,
    ).write(out_path, runs_root=runs_root)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="tiny instance (seconds, CI-friendly)"
    )
    parser.add_argument("--out", default=None, help="report path (default ./BENCH_islands.json)")
    parser.add_argument(
        "--runs-dir", default=None, metavar="DIR", help="run-store root for the bench run"
    )
    args = parser.parse_args()
    report = run(smoke=args.smoke, out=args.out, runs_root=args.runs_dir)
    two = report["islands_2"]
    print(
        f"sequential {report['sequential']['seconds']:.3f}s; "
        f"2 islands {two['seconds']:.3f}s "
        f"({two['protocol_overhead_ms_per_agent_round']:.3f} ms/agent-round "
        "protocol overhead); parity ok",
        file=sys.stderr,
    )


if __name__ == "__main__":
    main()
