#!/usr/bin/env python3
"""Quickstart: map a synthetic application onto a heterogeneous platform.

Generates one §5.2-style problem instance (a Task Interaction Graph and a
heterogeneous resource graph of equal size), runs MaTCH, and compares the
mapping against the FastMap-GA baseline and a random mapping — the
smallest end-to-end tour of the library's public API.

Run:
    python examples/quickstart.py [n] [seed]
"""

from __future__ import annotations

import sys

import numpy as np

from repro import (
    CostModel,
    FastMapGA,
    GAConfig,
    MappingProblem,
    MatchConfig,
    MatchMapper,
    evaluate_reference,
    generate_paper_pair,
)
from repro.utils.tables import format_table


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 2005

    # 1. A problem instance: |V_t| = |V_r| = n, paper §5.2 weight ranges.
    pair = generate_paper_pair(n, seed)
    problem = MappingProblem(pair.tig, pair.resources, require_square=True)
    model = CostModel(problem)
    print(f"instance: {problem}")
    print(f"  TIG edges: {pair.tig.n_edges}, CCR: "
          f"{pair.tig.computation_to_communication_ratio():.3f}")
    print(f"  platform heterogeneity (cv of proc weights): "
          f"{pair.resources.heterogeneity():.3f}\n")

    # 2. Run the heuristics.
    match = MatchMapper(MatchConfig()).map(problem, seed)
    ga = FastMapGA(GAConfig(population_size=200, generations=300)).map(problem, seed)
    random_cost = float(
        np.mean([model.evaluate(np.random.default_rng(seed + k).permutation(n))
                 for k in range(50)])
    )

    rows = [
        ["MaTCH", match.execution_time, match.mapping_time, match.n_evaluations],
        ["FastMap-GA", ga.execution_time, ga.mapping_time, ga.n_evaluations],
        ["mean random", random_cost, 0.0, 50],
    ]
    print(format_table(
        ["heuristic", "ET (units)", "MT (s)", "evaluations"], rows,
        title=f"Mapping quality at n = {n}",
    ))

    # 3. Inspect the winning mapping.
    breakdown = model.breakdown(match.assignment)
    print(f"\nMaTCH busiest resource: r{breakdown['busiest_resource']} "
          f"(compute {breakdown['busiest_compute']:.0f} + "
          f"comm {breakdown['busiest_comm']:.0f})")
    print(f"load imbalance (max/mean): {breakdown['imbalance']:.3f}")

    # 4. Cross-check against the plain-loop Eq. (1)/(2) reference: the
    #    batched kernel's reported cost must match it.
    reference = evaluate_reference(problem, match.assignment)
    assert abs(reference - match.execution_time) <= 1e-9 * reference
    print(f"\nreference Eq. (2) evaluation confirms the reported cost: "
          f"ET = {reference:.0f} units")


if __name__ == "__main__":
    main()
