"""Baseline mapping heuristics: FastMap-GA (the paper's comparator) and its hierarchical variant."""

from repro.baselines.base import Mapper, MapperResult
from repro.baselines.fastmap_hierarchical import (
    HierarchicalFastMap,
    HierarchicalFastMapConfig,
)
from repro.baselines.ga import FastMapGA, GAConfig
from repro.baselines.ga_operators import (
    fitness,
    roulette_select,
    single_point_crossover,
    swap_mutation,
)

__all__ = [
    "Mapper",
    "MapperResult",
    "HierarchicalFastMap",
    "HierarchicalFastMapConfig",
    "FastMapGA",
    "GAConfig",
    "fitness",
    "roulette_select",
    "single_point_crossover",
    "swap_mutation",
]
