#!/usr/bin/env python3
"""Heuristic shoot-out: every mapper in the library on one instance suite.

Extends the paper's two-heuristic comparison (MaTCH vs. FastMap-GA) with
the distributed MaTCH variant, reporting quality, mapping time and
application turnaround (ATN, Fig. 9) side by side.

Run:
    python examples/heuristic_comparison.py [n] [runs] [seed]
"""

from __future__ import annotations

import sys

import numpy as np

from repro import MappingProblem, generate_paper_pair
from repro.baselines import FastMapGA, GAConfig
from repro.core import DistributedMatchMapper, MatchConfig, MatchMapper
from repro.utils.rng import RngStreams
from repro.utils.tables import format_table


def mappers():
    return {
        "MaTCH": lambda: MatchMapper(MatchConfig()),
        "MaTCH-distributed": lambda: DistributedMatchMapper(),
        "FastMap-GA": lambda: FastMapGA(
            GAConfig(population_size=200, generations=300)
        ),
    }


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    runs = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 11

    pair = generate_paper_pair(n, seed)
    problem = MappingProblem(pair.tig, pair.resources, require_square=True)
    streams = RngStreams(seed=seed)
    print(f"instance: {problem}, {runs} runs per heuristic\n")

    rows = []
    for name, factory in mappers().items():
        ets, mts, atns = [], [], []
        for rep in range(runs):
            result = factory().map(problem, streams.seed_for(name, rep=rep))
            ets.append(result.execution_time)
            mts.append(result.mapping_time)
            atns.append(result.turnaround().turnaround)
        rows.append(
            [name, float(np.mean(ets)), float(np.min(ets)),
             float(np.mean(mts)), float(np.mean(atns))]
        )

    rows.sort(key=lambda r: r[1])
    print(format_table(
        ["heuristic", "mean ET", "best ET", "mean MT (s)", "mean ATN"],
        rows,
        title=f"All heuristics at n = {n} (sorted by mean ET)",
    ))

    best, worst = rows[0], rows[-1]
    print(f"\n{best[0]} beats {worst[0]} by "
          f"{worst[1] / best[1]:.2f}x on mean execution time.")


if __name__ == "__main__":
    main()
