"""repro — a full reproduction of *MaTCH: Mapping Data-Parallel Tasks on a
Heterogeneous Computing Platform Using the Cross-Entropy Heuristic*
(Sanyal & Das, IPDPS 2005).

Quickstart
----------
>>> from repro import generate_paper_pair, MappingProblem, MatchMapper
>>> pair = generate_paper_pair(20, 42)
>>> problem = MappingProblem(pair.tig, pair.resources, require_square=True)
>>> result = MatchMapper().map(problem, 42)
>>> result.execution_time > 0
True

Package map
-----------
* :mod:`repro.graphs` — TIGs, resource graphs, §5.2 generators;
* :mod:`repro.overset` — synthetic overset-grid CFD scenarios (Fig. 1);
* :mod:`repro.mapping` — the Eq. (1)/(2) cost model (reference + batched);
* :mod:`repro.ce` — the cross-entropy method library (GenPerm, elite
  updates, and the one CE engine, run on one chain or many);
* :mod:`repro.core` — MaTCH and its distributed variant;
* :mod:`repro.baselines` — FastMap-GA, the paper's comparator;
* :mod:`repro.stats` — ANOVA, confidence intervals, F/t distributions;
* :mod:`repro.experiments` — every table/figure of the paper as code.
"""

from repro._version import __version__
from repro.baselines import (
    FastMapGA,
    GAConfig,
    Mapper,
    MapperResult,
)
from repro.ce import CEConfig, CEResult, CrossEntropyOptimizer, StochasticMatrix
from repro.core import (
    DistributedMatchMapper,
    MatchConfig,
    MatchMapper,
    MatchResult,
    match_map,
)
from repro.exceptions import (
    ConfigurationError,
    ExperimentError,
    GraphError,
    MappingError,
    ReproError,
    SerializationError,
    ValidationError,
)
from repro.graphs import (
    GraphPair,
    ResourceGraph,
    TaskInteractionGraph,
    WeightedGraph,
    generate_paper_pair,
    generate_resource_graph,
    generate_tig,
)
from repro.mapping import (
    CostModel,
    Mapping,
    MappingProblem,
    TurnaroundRecord,
    evaluate_reference,
)
from repro.overset import build_tig, generate_overset_scenario
from repro.stats import one_way_anova, summarize_sample

__all__ = [
    "__version__",
    # graphs
    "WeightedGraph",
    "TaskInteractionGraph",
    "ResourceGraph",
    "GraphPair",
    "generate_tig",
    "generate_resource_graph",
    "generate_paper_pair",
    # overset
    "generate_overset_scenario",
    "build_tig",
    # mapping
    "MappingProblem",
    "Mapping",
    "CostModel",
    "evaluate_reference",
    "TurnaroundRecord",
    # CE + MaTCH
    "StochasticMatrix",
    "CEConfig",
    "CEResult",
    "CrossEntropyOptimizer",
    "MatchConfig",
    "MatchMapper",
    "MatchResult",
    "match_map",
    "DistributedMatchMapper",
    # baselines
    "Mapper",
    "MapperResult",
    "FastMapGA",
    "GAConfig",
    # stats
    "one_way_anova",
    "summarize_sample",
    # exceptions
    "ReproError",
    "ValidationError",
    "GraphError",
    "MappingError",
    "ConfigurationError",
    "ExperimentError",
    "SerializationError",
]
