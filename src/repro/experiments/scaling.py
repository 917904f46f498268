"""Extension studies beyond the paper's grid: heterogeneity and CCR scaling.

The paper varies only the problem size; these sweeps characterise *when*
MaTCH's advantage over the GA is largest:

* :func:`heterogeneity_sweep` — widen the processing-weight spread of the
  platform at fixed size (a homogeneous cluster → a strongly heterogeneous
  grid). Mapping matters more the more heterogeneous the platform.
* :func:`ccr_sweep` — move the application from communication-bound to
  computation-bound at fixed size. Communication-bound instances make the
  mapping problem harder (which *pairs* of tasks share cheap links matters,
  not just load balance).

Each returns per-point mean ET for MaTCH and FastMap-GA plus the
improvement factor — the series behind ``python -m repro
scaling-heterogeneity`` and ``scaling-ccr``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.baselines.ga import FastMapGA, GAConfig
from repro.core.config import MatchConfig
from repro.core.match import MatchMapper
from repro.graphs.generators import generate_resource_graph, generate_tig
from repro.mapping.problem import MappingProblem
from repro.utils.rng import RngStreams
from repro.utils.tables import format_table

__all__ = ["ScalingPoint", "ScalingResult", "heterogeneity_sweep", "ccr_sweep"]


@dataclass(frozen=True)
class ScalingPoint:
    """Aggregated outcome at one knob value."""

    knob_value: float
    match_et: float
    ga_et: float

    @property
    def improvement(self) -> float:
        """``ET_GA / ET_MaTCH`` at this point."""
        return self.ga_et / self.match_et if self.match_et > 0 else float("inf")


@dataclass(frozen=True)
class ScalingResult:
    """One full scaling sweep."""

    knob: str
    size: int
    runs: int
    points: tuple[ScalingPoint, ...]

    def render(self) -> str:
        """Text table of the sweep."""
        rows = [
            [p.knob_value, p.match_et, p.ga_et, p.improvement] for p in self.points
        ]
        return format_table(
            [self.knob, "ET MaTCH", "ET GA", "GA/MaTCH"],
            rows,
            title=f"Scaling study: {self.knob} at n = {self.size} "
            f"({self.runs} runs/point)",
        )


def _run_point(
    problem: MappingProblem,
    runs: int,
    streams: RngStreams,
    label: object,
    ga_config: GAConfig,
    match_config: MatchConfig,
) -> tuple[float, float]:
    match_costs, ga_costs = [], []
    for rep in range(runs):
        m_seed = streams.seed_for("scale-match", label=label, rep=rep)
        g_seed = streams.seed_for("scale-ga", label=label, rep=rep)
        match_costs.append(
            MatchMapper(match_config).map(problem, m_seed).execution_time
        )
        ga_costs.append(FastMapGA(ga_config).map(problem, g_seed).execution_time)
    return float(np.mean(match_costs)), float(np.mean(ga_costs))


def heterogeneity_sweep(
    spreads: Sequence[int] = (1, 3, 5, 10, 20),
    *,
    size: int = 15,
    runs: int = 2,
    seed: int = 2005,
    ga_config: GAConfig | None = None,
    match_config: MatchConfig | None = None,
) -> ScalingResult:
    """Sweep the platform's processing-weight spread ``w ~ U{1..spread}``.

    ``spread = 1`` is a homogeneous platform (every resource identical);
    the paper's setting is ``spread = 5``.
    """
    ga_config = ga_config or GAConfig(population_size=100, generations=150)
    match_config = match_config or MatchConfig()
    streams = RngStreams(seed=seed)
    tig = generate_tig(size, streams.get("scale-tig"))
    points = []
    for spread in spreads:
        resources = generate_resource_graph(
            size,
            streams.get("scale-res", spread=spread),
            node_weight_range=(1, int(spread)),
            topology="sparse",
        )
        problem = MappingProblem(tig, resources, require_square=True)
        match_et, ga_et = _run_point(
            problem, runs, streams, ("het", spread), ga_config, match_config
        )
        points.append(ScalingPoint(knob_value=float(spread), match_et=match_et, ga_et=ga_et))
    return ScalingResult(
        knob="proc weight spread", size=size, runs=runs, points=tuple(points)
    )


def ccr_sweep(
    multipliers: Sequence[float] = (0.25, 1.0, 4.0, 16.0),
    *,
    size: int = 15,
    runs: int = 2,
    seed: int = 2005,
    ga_config: GAConfig | None = None,
    match_config: MatchConfig | None = None,
) -> ScalingResult:
    """Sweep the application's computation-to-communication ratio."""
    ga_config = ga_config or GAConfig(population_size=100, generations=150)
    match_config = match_config or MatchConfig()
    streams = RngStreams(seed=seed)
    resources = generate_resource_graph(
        size, streams.get("scale-res-fixed"), topology="sparse"
    )
    points = []
    for mult in multipliers:
        tig = generate_tig(
            size, streams.get("scale-tig", ccr=mult), ccr_scale=float(mult)
        )
        problem = MappingProblem(tig, resources, require_square=True)
        match_et, ga_et = _run_point(
            problem, runs, streams, ("ccr", mult), ga_config, match_config
        )
        points.append(ScalingPoint(knob_value=float(mult), match_et=match_et, ga_et=ga_et))
    return ScalingResult(knob="CCR multiplier", size=size, runs=runs, points=tuple(points))
