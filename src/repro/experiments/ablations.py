"""Ablation studies over MaTCH's design parameters (DESIGN.md ABL-*).

The paper fixes ``ρ`` in [0.01, 0.1], ``ζ = 0.3`` and ``N = 2n²`` with one
sentence of justification each; these sweeps supply the missing evidence:

* ABL-RHO — quality/time vs. the focus parameter ``ρ``;
* ABL-ZETA — quality/time vs. the smoothing factor ``ζ`` (``ζ = 1``
  recovers the coarse, unsmoothed update);
* ABL-N — quality/time vs. the sample-size rule (``n²``, ``2n²``, ``4n²``).

Each sweep runs MaTCH with one knob varied on a fixed instance set and
reports mean ET, MT and iteration counts per knob value. Each knob value's
:class:`~repro.core.config.MatchConfig` becomes a ``"match"``
:class:`~repro.runtime.registry.SolverSpec`, and the (value × repetition)
cells are independent :class:`~repro.runtime.cell.SolveCell` solves with
pre-derived seeds, so :func:`sweep` can dispatch them over a warm
:class:`~repro.utils.parallel.WorkerPool` (``n_workers > 1``) with the
instance published once to the shared-memory plane — bit-identical to
the default serial loop. The parent reads each cell's (ET, MT, iterations,
evaluations) from the returned result.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.config import MatchConfig
from repro.experiments.suite import build_suite
from repro.runstore import current_run
from repro.runtime.cell import SolveCell, solve_cell
from repro.runtime.registry import SolverSpec
from repro.utils.parallel import CellFailure, WorkerPool
from repro.utils.rng import RngStreams
from repro.utils.tables import format_table

__all__ = [
    "AblationPoint",
    "AblationResult",
    "sweep",
    "rho_sweep",
    "zeta_sweep",
    "samples_sweep",
    "elite_mode_sweep",
]


@dataclass(frozen=True)
class AblationPoint:
    """Aggregated outcome of one knob value."""

    knob_value: float
    mean_et: float
    mean_mt: float
    mean_iterations: float
    mean_evaluations: float


@dataclass(frozen=True)
class AblationResult:
    """One full sweep.

    ``failures`` carries the dispatch cells the fault-tolerant fabric could
    not complete; each point's means cover its completed repetitions (a
    point that lost every repetition reads as ``nan``).
    """

    knob: str
    size: int
    runs: int
    points: tuple[AblationPoint, ...]
    failures: tuple[CellFailure, ...] = ()

    def best_point(self) -> AblationPoint:
        """The knob value with the lowest mean ET."""
        return min(self.points, key=lambda p: p.mean_et)

    def render(self) -> str:
        """Text table of the sweep."""
        rows = [
            [p.knob_value, p.mean_et, p.mean_mt, p.mean_iterations, p.mean_evaluations]
            for p in self.points
        ]
        return format_table(
            [self.knob, "mean ET", "mean MT (s)", "iters", "evals"],
            rows,
            title=f"Ablation: {self.knob} at n = {self.size} ({self.runs} runs/value)",
        )


def sweep(
    knob: str,
    values: Sequence[float],
    config_for: Callable[[float], MatchConfig],
    *,
    size: int = 15,
    runs: int = 3,
    seed: int = 2005,
    n_workers: int | None = 1,
) -> AblationResult:
    """Generic MaTCH knob sweep on one suite instance.

    All (value × repetition) cells share one :class:`WorkerPool` and one
    shared-memory copy of the instance; ``n_workers=1`` (the default)
    keeps the historical serial behaviour, and any other worker count
    produces the same points because every cell's seed is derived up
    front.
    """
    instance = build_suite((size,), 1, seed=seed)[size][0]
    streams = RngStreams(seed=seed)
    # ``config_for`` may be a lambda, which cannot cross the pipe: each
    # config travels as its "match" spec instead.
    specs = [SolverSpec.of("match", asdict(config_for(value))) for value in values]
    with WorkerPool(n_workers) as pool:
        problem_ref = pool.publish_problem(instance.problem)
        cells = [
            SolveCell(
                problem_ref,
                spec,
                streams.seed_for("ablation", knob=knob, value=value, rep=rep),
            )
            for value, spec in zip(values, specs)
            for rep in range(runs)
        ]
        report = pool.map_salvage(solve_cell, cells)
    failed = {f.index for f in report.failures}
    if failed:
        named = ", ".join(
            f"{knob}={values[f.index // runs]} rep {f.index % runs}"
            f" ({f.kind} after {f.attempts} attempts)"
            for f in report.failures
        )
        warnings.warn(
            f"ablation sweep salvaged with {len(failed)} failed cell(s): "
            f"{named}; their knob means exclude them",
            RuntimeWarning,
            stacklevel=2,
        )
    points = []
    for i, value in enumerate(values):
        group = [
            report.results[j]
            for j in range(i * runs, (i + 1) * runs)
            if j not in failed
        ]
        if group:
            means = (
                float(np.mean([r.execution_time for r in group])),
                float(np.mean([r.mapping_time for r in group])),
                float(np.mean([r.extras["iterations"] for r in group])),
                float(np.mean([r.n_evaluations for r in group])),
            )
        else:
            means = (math.nan, math.nan, math.nan, math.nan)
        points.append(
            AblationPoint(
                knob_value=float(value),
                mean_et=means[0],
                mean_mt=means[1],
                mean_iterations=means[2],
                mean_evaluations=means[3],
            )
        )
    result = AblationResult(
        knob=knob,
        size=size,
        runs=runs,
        points=tuple(points),
        failures=report.failures,
    )
    run = current_run()
    if run is not None:
        run.record_metrics(
            f"ablation-{_metric_slug(knob)}",
            {
                "knob": knob,
                "size": size,
                "runs": runs,
                "points": [
                    {"value": p.knob_value, "mean_et": p.mean_et, "mean_mt": p.mean_mt,
                     "mean_iterations": p.mean_iterations,
                     "mean_evaluations": p.mean_evaluations}
                    for p in points
                ],
                "failed_cells": len(report.failures),
            },
        )
        run.log_event(
            "ablation-finished", knob=knob, values=len(values),
            failures=len(report.failures),
        )
    return result


def _metric_slug(knob: str) -> str:
    """A filesystem/metric-safe slug for a knob label like ``N / n^2``."""
    return "".join(c if c.isalnum() else "-" for c in knob).strip("-")


def rho_sweep(
    values: Sequence[float] = (0.01, 0.02, 0.05, 0.1, 0.2, 0.3),
    **kwargs,
) -> AblationResult:
    """ABL-RHO: sweep the focus parameter (paper range is 0.01-0.1)."""
    return sweep("rho", values, lambda v: MatchConfig(rho=v), **kwargs)


def zeta_sweep(
    values: Sequence[float] = (0.1, 0.2, 0.3, 0.5, 0.8, 1.0),
    **kwargs,
) -> AblationResult:
    """ABL-ZETA: sweep Eq. (13) smoothing (1.0 = coarse update)."""
    return sweep("zeta", values, lambda v: MatchConfig(zeta=v), **kwargs)


def elite_mode_sweep(
    *,
    size: int = 15,
    runs: int = 3,
    seed: int = 2005,
    n_workers: int | None = 1,
) -> AblationResult:
    """ABL-ELITE: exact-k vs threshold (tie-inclusive) elite selection.

    DESIGN.md §3.1 argues tie-inclusive elites stall degeneration on cost
    plateaus; this sweep quantifies the quality/iteration difference.
    Knob values: 0 = ``exact_k`` (MaTCH default), 1 = ``threshold``.
    """
    return sweep(
        "elite_mode (0=exact_k, 1=threshold)",
        (0.0, 1.0),
        lambda v: MatchConfig(elite_mode="threshold" if v > 0.5 else "exact_k"),
        size=size,
        runs=runs,
        seed=seed,
        n_workers=n_workers,
    )


def samples_sweep(
    multipliers: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
    *,
    size: int = 15,
    **kwargs,
) -> AblationResult:
    """ABL-N: sweep the sample-size rule ``N = m·n²`` (paper: m = 2)."""
    return sweep(
        "N / n^2",
        multipliers,
        lambda m: MatchConfig(n_samples=max(2, int(m * size * size))),
        size=size,
        **kwargs,
    )
