#!/usr/bin/env python3
"""Regenerate every table and figure of the paper in one run.

Equivalent to ``python -m repro all`` but shown as a scripted pipeline:
the experiment registry is the public API the CLI and the tests share.

Run (smoke scale, a few minutes):
    python examples/reproduce_paper.py

Run at the paper's §5.2 parameters (much longer):
    REPRO_SCALE=paper python examples/reproduce_paper.py
"""

from __future__ import annotations

import sys
import time

from repro.experiments import active_profile, experiment_ids, run_experiment


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 2005
    profile = active_profile()
    print(f"profile: {profile.name} (sizes {profile.sizes}, "
          f"{profile.n_pairs} pairs x {profile.runs_per_pair} runs)\n")

    for exp_id in experiment_ids():
        t0 = time.perf_counter()
        artifact = run_experiment(exp_id, profile=profile, seed=seed)
        dt = time.perf_counter() - t0
        print(artifact)
        print(f"\n[{exp_id} regenerated in {dt:.1f}s]")
        print("#" * 72 + "\n")


if __name__ == "__main__":
    main()
