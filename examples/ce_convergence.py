#!/usr/bin/env python3
"""Watch the cross-entropy method converge — a live Figure 3.

Runs MaTCH with matrix tracking and prints the stochastic matrix as ASCII
heat maps at several points of the run, each with its degeneracy and
entropy, followed by the γ (elite threshold) trajectory.

Run:
    python examples/ce_convergence.py [n] [seed]
"""

from __future__ import annotations

import sys

from repro import MappingProblem, MatchConfig, generate_paper_pair
from repro.core import MatchMapper, evolution_frames, render_matrix_ascii


def mapping_demo(n: int, seed: int) -> None:
    pair = generate_paper_pair(n, seed)
    problem = MappingProblem(pair.tig, pair.resources, require_square=True)
    mapper = MatchMapper(MatchConfig(track_matrices=True))
    result = mapper.map(problem, seed)
    ce = mapper.last_result.ce_result  # type: ignore[union-attr]

    print(f"MaTCH on n = {n}: ET {result.execution_time:.0f} after "
          f"{ce.n_iterations} iterations ({ce.stop_reason})\n")

    for frame in evolution_frames(ce, n_frames=3):
        print(f"-- iteration snapshot {frame['snapshot_index']}: "
              f"degeneracy {frame['degeneracy']:.3f}, "
              f"entropy {frame['entropy']:.3f} --")
        print(render_matrix_ascii(frame["matrix"]))
        print()

    print("gamma trajectory (elite threshold, every 3rd iteration):")
    gammas = ce.gamma_history[::3]
    print("  " + " -> ".join(f"{g:.0f}" for g in gammas))


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 5
    mapping_demo(n, seed)


if __name__ == "__main__":
    main()
