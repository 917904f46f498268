"""Cross-entropy method library (§3): the engine MaTCH specializes.

Contents:

* :class:`StochasticMatrix` and the Eq. (11)/(13) update machinery;
* :func:`sample_permutations_stacked` — the batched GenPerm sampler
  (Fig. 4) over a chain stack; :func:`sample_permutations` is its
  one-chain form that draws its own uniforms;
* elite quantile selection and the :class:`StopKind` of a finished run;
* :class:`MultiChainCE` — the one CE engine: R independent chains
  advanced as one batched tensor loop through ``ce_round`` (the round the
  agent simulation and the islands run too), each bit-identical to a run
  of its own, with the stop rules (iteration budget, Eq. (12) stability,
  γ stagnation, degeneracy) kept as per-chain counters;
* :class:`CrossEntropyOptimizer` — that engine on one chain (Fig. 2),
  with a single-run API.

GenPerm samples one-to-one task→resource mappings and elite updates
sharpen the matrix towards a lower Eq. (2) execution time.
"""

from repro.ce.diagnostics import (
    commit_iterations,
    elite_diversity,
    iterations_to_degeneracy,
    mass_trajectory,
)
from repro.ce.genperm import (
    genperm_exact_probabilities,
    sample_permutations,
    sample_permutations_stacked,
)
from repro.ce.multichain import MultiChainCE, MultiChainResult
from repro.ce.optimizer import CEConfig, CEResult, CrossEntropyOptimizer
from repro.ce.quantile import elite_mask, elite_threshold, select_elites
from repro.ce.stochastic_matrix import (
    StochasticMatrix,
    elite_counts_update,
    stacked_elite_update,
)
from repro.ce.stopping import StopKind

__all__ = [
    "StochasticMatrix",
    "elite_counts_update",
    "stacked_elite_update",
    "sample_permutations",
    "sample_permutations_stacked",
    "commit_iterations",
    "elite_diversity",
    "iterations_to_degeneracy",
    "mass_trajectory",
    "genperm_exact_probabilities",
    "elite_threshold",
    "elite_mask",
    "select_elites",
    "StopKind",
    "CEConfig",
    "CEResult",
    "CrossEntropyOptimizer",
    "MultiChainCE",
    "MultiChainResult",
]
