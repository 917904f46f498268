"""The §5.2 synthetic problem suite.

Five TIG/resource pairs per size "with varying computation to communication
ratio": we realize the variation with CCR multipliers spread around 1 on a
log scale, one per pair, so pair 0 is strongly communication-bound and the
last pair strongly computation-bound. All graphs follow the paper's weight
ranges (see :mod:`repro.graphs.generators`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.graphs.generators import GraphPair, generate_paper_pair
from repro.mapping.problem import MappingProblem
from repro.mapping.problem_key import problem_key
from repro.runstore import current_run
from repro.utils.rng import RngStreams, as_generator

__all__ = ["SuiteInstance", "build_suite", "ccr_multipliers"]


def ccr_multipliers(n_pairs: int) -> tuple[float, ...]:
    """Log-spaced CCR multipliers centred on 1 (e.g. 5 pairs → 1/4 … 4)."""
    if n_pairs < 1:
        raise ConfigurationError(f"n_pairs must be >= 1, got {n_pairs}")
    if n_pairs == 1:
        return (1.0,)
    exponents = np.linspace(-2.0, 2.0, n_pairs)
    return tuple(float(2.0**e) for e in exponents)


@dataclass(frozen=True)
class SuiteInstance:
    """One problem of the suite: the graph pair plus its ready problem object."""

    size: int
    pair_index: int
    ccr_scale: float
    graphs: GraphPair
    problem: MappingProblem


def _build_instance(task: tuple[int, int, float, int]) -> SuiteInstance:
    """Generate one suite instance.

    The instance's generator is seeded per (size, pair) from the root
    seed, so building instances in any order yields identical graphs.
    """
    size, p, ccr, instance_seed = task
    gen = as_generator(instance_seed)
    # §5.2 generates the system graphs randomly (like the TIGs), so the
    # suite uses sparse random resource topologies; multi-hop pairs are
    # costed by the shortest-path closure.
    pair = generate_paper_pair(
        size,
        gen,
        ccr_scale=ccr,
        topology="sparse",
        seed_label=f"size{size}-pair{p}",
    )
    problem = MappingProblem(pair.tig, pair.resources, require_square=True)
    return SuiteInstance(
        size=size, pair_index=p, ccr_scale=ccr, graphs=pair, problem=problem
    )


def build_suite(
    sizes: tuple[int, ...],
    n_pairs: int,
    *,
    seed: int = 2005,
) -> dict[int, list[SuiteInstance]]:
    """Generate the full evaluation suite, deterministic in ``seed``.

    Returns ``{size: [SuiteInstance, ...]}`` with ``n_pairs`` instances per
    size. Instance RNG streams are derived per (size, pair) so adding sizes
    or pairs never reshuffles existing instances. Generation runs in this
    process: the paper-profile suite (5 sizes × 5 pairs, n ≤ 50) builds in
    tens of milliseconds, which a process pool does not improve (DESIGN
    §2, "Removed on evidence").
    """
    streams = RngStreams(seed=seed)
    multipliers = ccr_multipliers(n_pairs)
    tasks = [
        (size, p, ccr, streams.seed_for("suite", size=size, pair=p))
        for size in sizes
        for p, ccr in enumerate(multipliers)
    ]
    instances = [_build_instance(task) for task in tasks]
    suite: dict[int, list[SuiteInstance]] = {size: [] for size in sizes}
    for inst in instances:
        suite[inst.size].append(inst)

    run = current_run()
    if run is not None:
        # The manifest's problem map is what makes cross-run comparisons
        # honest: two runs measured the same instances iff these match.
        run.merge_manifest(
            "problems",
            {
                f"size{i.size}-pair{i.pair_index}": problem_key(i.problem)
                for i in instances
            },
        )
        run.log_event(
            "suite-built", sizes=list(sizes), n_pairs=n_pairs, instances=len(instances)
        )
    return suite
