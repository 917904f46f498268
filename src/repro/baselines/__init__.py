"""Baseline mapping heuristic: FastMap-GA, the paper's only comparator (§5.1)."""

from repro.baselines.base import Mapper, MapperResult
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
    "FastMapGA",
    "GAConfig",
    "fitness",
    "roulette_select",
    "single_point_crossover",
    "swap_mutation",
]
