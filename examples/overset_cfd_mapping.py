#!/usr/bin/env python3
"""Overset-grid CFD mapping — the paper's motivating application (§2, Fig. 1).

Synthesises an overset-grid system around an irregular 3-D body (component
grids with exact lattice point counts and pairwise overlap volumes),
extracts the Task Interaction Graph exactly as Figure 1 abstracts it, maps
the grids onto a heterogeneous platform with MaTCH, and prints which
resource each grid landed on.

Run:
    python examples/overset_cfd_mapping.py [n_grids] [seed]
"""

from __future__ import annotations

import sys

from repro import (
    MappingProblem,
    MatchConfig,
    MatchMapper,
    build_tig,
    generate_overset_scenario,
    generate_resource_graph,
)
from repro.baselines import FastMapGA, GAConfig
from repro.overset import scenario_report
from repro.utils.tables import format_table, render_kv_block


def main() -> None:
    n_grids = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 7

    # 1. A synthetic overset system: boxes with uniform lattices laid
    #    along a random body curve, consecutive grids overlapping.
    scenario = generate_overset_scenario(n_grids, seed)
    print(render_kv_block("Overset system", scenario_report(scenario)))

    # 2. Figure 1's abstraction step: grids -> TIG. Node weight = grid
    #    point count, edge weight = overlapping point count. weight_scale
    #    brings raw lattice counts into the paper's numeric regime.
    tig = build_tig(scenario, weight_scale=1000.0)
    print(f"\nTIG: {tig.n_tasks} tasks, {tig.n_edges} overlaps, "
          f"CCR {tig.computation_to_communication_ratio():.3f}")

    # 3. A heterogeneous platform of the same size (the paper's setting).
    resources = generate_resource_graph(n_grids, seed, topology="sparse")
    problem = MappingProblem(tig, resources, require_square=True)

    # 4. Map with MaTCH and with the paper's comparator, FastMap-GA.
    match = MatchMapper(MatchConfig()).map(problem, seed)
    ga = FastMapGA(GAConfig(population_size=200, generations=300)).map(problem, seed)
    print(format_table(
        ["heuristic", "ET (units)", "MT (s)"],
        [
            ["MaTCH", match.execution_time, match.mapping_time],
            ["FastMap-GA", ga.execution_time, ga.mapping_time],
        ],
        title="\nMapping the overset system",
    ))

    # 5. Which grids ended up together? Print the mapping.
    mapping = match.mapping(problem)
    placements = [
        (f"grid-{t}", f"r{mapping.resource_of(t)}",
         f"{tig.computation_weights[t]:.1f}")
        for t in range(n_grids)
    ]
    print()
    print(format_table(["grid", "resource", "kpoints"], placements,
                       title="MaTCH placement"))


if __name__ == "__main__":
    main()
