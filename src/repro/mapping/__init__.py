"""Mapping core: problem instances, the Eq. (1)/(2) cost model, mappings."""

from repro.mapping.cost_model import (
    CostModel,
    evaluate_reference,
    per_resource_times_reference,
)
from repro.mapping.mapping import Mapping
from repro.mapping.problem import MappingProblem
from repro.mapping.problem_key import problem_key
from repro.mapping.turnaround import TurnaroundRecord

__all__ = [
    "MappingProblem",
    "problem_key",
    "Mapping",
    "CostModel",
    "evaluate_reference",
    "per_resource_times_reference",
    "TurnaroundRecord",
]
