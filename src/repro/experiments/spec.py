"""Experiment scale profiles: paper-scale vs. CI-scale parameters.

Paper-scale runs (GA with population 500 × 1000 generations at every size
up to 50, thirty ANOVA repetitions, five graph pairs × five runs) take tens
of minutes; the default profile shrinks every axis so every artifact
regenerates in minutes while preserving the comparison's *shape* (same
heuristics, same size sweep direction, same statistics).

Select the profile with the ``REPRO_SCALE`` environment variable
(``smoke`` | ``paper``); programmatic callers pass a :class:`ScaleProfile`
explicitly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.exceptions import ConfigurationError

__all__ = ["ScaleProfile", "SMOKE_PROFILE", "PAPER_PROFILE", "active_profile"]


@dataclass(frozen=True)
class ScaleProfile:
    """Every scale knob of the reproduction harness in one object."""

    name: str
    #: Problem sizes |V_t| = |V_r| to sweep.
    sizes: tuple[int, ...]
    #: Independent TIG/resource pairs per size (paper: 5, varying CCR).
    n_pairs: int
    #: Independent heuristic runs per pair (paper: 5).
    runs_per_pair: int
    #: FastMap-GA population / generations for Tables 1-2 (paper: 500/1000).
    ga_population: int
    ga_generations: int
    #: Table 3 study: runs per heuristic (paper: 30) and the two GA configs.
    anova_runs: int
    anova_ga_configs: tuple[tuple[int, int], ...]
    #: MaTCH iteration budget (safety net only).
    match_max_iterations: int

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ConfigurationError("profile needs at least one size")
        if min(self.sizes) < 2:
            raise ConfigurationError("sizes must be >= 2")
        for field_name in ("n_pairs", "runs_per_pair", "ga_population",
                           "ga_generations", "anova_runs", "match_max_iterations"):
            if getattr(self, field_name) < 1:
                raise ConfigurationError(f"{field_name} must be >= 1")


#: Fast profile: minutes, preserves comparison shape. Default.
SMOKE_PROFILE = ScaleProfile(
    name="smoke",
    sizes=(10, 20, 30),
    n_pairs=2,
    runs_per_pair=2,
    ga_population=120,
    ga_generations=200,
    anova_runs=8,
    anova_ga_configs=((60, 600), (200, 180)),
    match_max_iterations=300,
)

#: Paper-scale profile: §5.2 parameters verbatim.
PAPER_PROFILE = ScaleProfile(
    name="paper",
    sizes=(10, 20, 30, 40, 50),
    n_pairs=5,
    runs_per_pair=5,
    ga_population=500,
    ga_generations=1000,
    anova_runs=30,
    anova_ga_configs=((100, 10000), (1000, 1000)),
    match_max_iterations=500,
)


def active_profile() -> ScaleProfile:
    """The profile selected by the environment (default: smoke)."""
    name = os.environ.get("REPRO_SCALE", "smoke").strip().lower()
    if name in ("smoke", ""):
        return SMOKE_PROFILE
    if name == "paper":
        return PAPER_PROFILE
    raise ConfigurationError(f"unknown REPRO_SCALE {name!r}; use 'smoke' or 'paper'")
