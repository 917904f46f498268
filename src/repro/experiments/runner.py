"""Suite runners: execute heuristics over the problem suite and aggregate.

The paper's measurement protocol (§5.3): every reported number is the
average over 5 independent runs of the heuristic on each TIG/resource pair,
then averaged across the pairs of that size. :func:`run_comparison`
implements exactly that protocol for any set of heuristics and returns the
ET and MT series (Tables 1-2 / Figures 7-9 all derive from this one
computation; it is memoized per (profile, seed) so regenerating several
artifacts does not re-run the heuristics).

The (size × pair × heuristic × repetition) cells are mutually independent
and each carries its own derived seed, so :func:`run_comparison` dispatches
them over the persistent execution fabric
(:class:`repro.utils.parallel.WorkerPool`) as the library's one solve cell,
:class:`~repro.runtime.cell.SolveCell`: one warm pool serves every cell,
each cell carries its problem by value, a
:class:`~repro.runtime.registry.SolverSpec` and a seed, and cells are
scheduled heaviest-first so big-``n`` stragglers cannot hold the tail. The
runner keeps each cell's (heuristic, size, pair, repetition) identity
beside the dispatch and turns every returned
:class:`~repro.baselines.base.MapperResult` into a :class:`RunRecord` in
the parent. Every result field except the measured ``mapping_time``
wall-clock is identical — record for record — to the serial loop for any
worker count.

Heuristics are addressed by solver name (:mod:`repro.runtime.registry`):
``mappers`` maps each heuristic's label to a picklable
:class:`~repro.runtime.registry.SolverSpec` (name + config params), and a
cell's mapper is rebuilt from it in the worker.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.exceptions import ConfigurationError
from repro.experiments.spec import ScaleProfile
from repro.experiments.suite import build_suite
from repro.runtime.cell import SolveCell, solve_cell
from repro.runtime.registry import SolverSpec
from repro.runstore import current_run
from repro.stats.comparison import SeriesBySize
from repro.utils.parallel import WorkerPool
from repro.utils.rng import RngStreams

__all__ = [
    "RunRecord",
    "CellFailureRecord",
    "ComparisonData",
    "run_comparison",
    "get_comparison",
    "default_mappers",
]


@dataclass(frozen=True)
class RunRecord:
    """One heuristic run on one suite instance."""

    heuristic: str
    size: int
    pair_index: int
    run_index: int
    execution_time: float
    mapping_time: float
    n_evaluations: int


@dataclass(frozen=True)
class CellFailureRecord:
    """A suite cell that permanently failed, mapped back to its identity.

    The execution fabric reports failures by dispatch index; this record
    translates them into experiment coordinates so a salvaged
    :class:`ComparisonData` names exactly which (heuristic, size, pair,
    repetition) runs are missing from its averages.
    """

    heuristic: str
    size: int
    pair_index: int
    run_index: int
    kind: str  # "exception" | "worker-death" | "timeout"
    attempts: int
    message: str


@dataclass
class ComparisonData:
    """Aggregated suite results: the source of Tables 1-2 and Figs 7-9."""

    profile_name: str
    seed: int
    sizes: tuple[int, ...]
    et_series: SeriesBySize
    mt_series: SeriesBySize
    records: list[RunRecord] = field(default_factory=list, repr=False)
    failures: tuple[CellFailureRecord, ...] = ()

    @property
    def complete(self) -> bool:
        """True when every dispatched cell produced a record."""
        return not self.failures

    def atn_series(self, *, seconds_per_unit: float = 1.0) -> SeriesBySize:
        """Fig. 9's ATN = ET·(s/unit) + MT series."""
        scaled_et = SeriesBySize(
            metric="ET(s)",
            sizes=self.et_series.sizes,
            values={
                k: tuple(v * seconds_per_unit for v in vals)
                for k, vals in self.et_series.values.items()
            },
        )
        return scaled_et.combined_with(self.mt_series, metric="ATN (s)")


def default_mappers(profile: ScaleProfile) -> dict[str, SolverSpec]:
    """The paper's two heuristics at the profile's parameters."""
    return {
        "MaTCH": SolverSpec.of("match", {"max_iterations": profile.match_max_iterations}),
        "FastMap-GA": SolverSpec.of(
            "fastmap-ga",
            {
                "population_size": profile.ga_population,
                "generations": profile.ga_generations,
            },
        ),
    }


def run_comparison(
    profile: ScaleProfile,
    *,
    seed: int = 2005,
    mappers: dict[str, SolverSpec] | None = None,
    progress: Callable[[str], None] | None = None,
    n_workers: int | None = None,
) -> ComparisonData:
    """Execute the full §5.3 measurement protocol.

    For every size, pair, heuristic and repetition: run, record ET/MT;
    report the mean over (pairs × repetitions) per size. ``mappers`` maps
    each heuristic's label to its :class:`SolverSpec` (default:
    :func:`default_mappers`); any other value is a
    :class:`ConfigurationError` before anything is dispatched. The whole
    protocol runs over one :class:`WorkerPool` lifetime
    (``n_workers=None`` picks the host default, ``<= 1`` runs serially):
    the suite is generated in-process, each cell carries its instance,
    and the cells are dispatched heaviest-first (longest-processing-time order) so the
    big-``n`` stragglers start early. Seeds are derived per cell up
    front, so the records — order included — are identical for every
    worker count, apart from the measured ``mapping_time`` wall-clock.
    ``progress`` messages are emitted as cells are *enqueued*, before any
    of them execute.

    Dispatch is fault tolerant: a cell whose worker dies is retried from
    its own ``(problem, spec, seed)`` cell (bit-identical by construction),
    and a cell that permanently fails — its retries exhausted, or its
    per-attempt deadline tripped — is recorded in
    :attr:`ComparisonData.failures` while the rest of the sweep completes.
    The retry policy is :meth:`repro.utils.parallel.RetryPolicy.default`
    (``REPRO_MAX_RETRIES`` / ``REPRO_CELL_TIMEOUT``), as for every other
    experiment; per-size means over partial data are ``nan`` when a
    (heuristic, size) selection lost every record.
    """
    mappers = mappers if mappers is not None else default_mappers(profile)
    for name, spec in mappers.items():
        if not isinstance(spec, SolverSpec):
            raise ConfigurationError(
                f"mapper {name!r} must be a SolverSpec, got {type(spec).__name__}"
            )
    streams = RngStreams(seed=seed)

    active = current_run()
    if active is not None:
        active.log_event(
            "comparison-started",
            profile=profile.name,
            seed=seed,
            heuristics=sorted(mappers),
            sizes=list(profile.sizes),
        )

    suite = build_suite(profile.sizes, profile.n_pairs, seed=seed)
    with WorkerPool(n_workers) as pool:
        # The cells carry only what a solve needs; ``runs`` names each one
        # as (heuristic, size, pair, repetition), position for position.
        runs: list[tuple[str, int, int, int]] = []
        cells: list[SolveCell] = []
        for size in profile.sizes:
            for instance in suite[size]:
                for name, spec in mappers.items():
                    for run in range(profile.runs_per_pair):
                        if progress is not None:
                            progress(
                                f"{name} size={size} pair={instance.pair_index} run={run}"
                            )
                        runs.append((name, size, instance.pair_index, run))
                        cells.append(
                            SolveCell(
                                instance.problem,
                                spec,
                                streams.seed_for(
                                    "run", heuristic=name, size=size,
                                    pair=instance.pair_index, rep=run,
                                ),
                            )
                        )
        # LPT weight: heuristic cost grows roughly cubically in instance size.
        report = pool.map_salvage(
            solve_cell, cells, weight=lambda cell: float(cell.problem.n_tasks) ** 3
        )

    records = [
        RunRecord(
            *runs[i],
            execution_time=result.execution_time,
            mapping_time=result.mapping_time,
            n_evaluations=result.n_evaluations,
        )
        for i, result in report.completed()
    ]
    failures = tuple(
        CellFailureRecord(
            *runs[f.index], kind=f.kind, attempts=f.attempts, message=f.message
        )
        for f in report.failures
    )
    if failures:
        named = ", ".join(
            f"{f.heuristic}/n={f.size}/pair={f.pair_index}/run={f.run_index}"
            f" ({f.kind} after {f.attempts} attempts)"
            for f in failures
        )
        warnings.warn(
            f"comparison salvaged with {len(failures)} failed cell(s): "
            f"{named}; reported means exclude them",
            RuntimeWarning,
            stacklevel=2,
        )

    def mean_series(metric: str, get: Callable[[RunRecord], float]) -> SeriesBySize:
        values: dict[str, tuple[float, ...]] = {}
        for name in mappers:
            per_size = []
            for size in profile.sizes:
                sel = [get(r) for r in records if r.heuristic == name and r.size == size]
                per_size.append(float(np.mean(sel)) if sel else math.nan)
            values[name] = tuple(per_size)
        return SeriesBySize(metric=metric, sizes=tuple(profile.sizes), values=values)

    data = ComparisonData(
        profile_name=profile.name,
        seed=seed,
        sizes=tuple(profile.sizes),
        et_series=mean_series("ET (units)", lambda r: r.execution_time),
        mt_series=mean_series("MT (s)", lambda r: r.mapping_time),
        records=records,
        failures=failures,
    )
    if active is not None:
        _record_comparison(active, data, n_cells=len(cells))
    return data


def _record_comparison(run: Any, data: ComparisonData, *, n_cells: int) -> None:
    """Log one finished §5.3 comparison into the active run.

    The aggregate series land in ``metrics.json`` (keyed by profile+seed so
    distinct comparisons inside one run never clobber each other) and the
    full per-record payload — everything ``load_comparison`` needs — goes
    to ``artifacts/``.
    """
    from repro.experiments.persistence import comparison_to_dict

    tag = f"{data.profile_name}-seed{data.seed}"
    run.record_metrics(
        f"comparison-{tag}",
        {
            "profile": data.profile_name,
            "seed": data.seed,
            "sizes": list(data.sizes),
            "cells": n_cells,
            "records": len(data.records),
            "failures": len(data.failures),
            "et_mean_by_size": {k: list(v) for k, v in data.et_series.values.items()},
            "mt_mean_by_size": {k: list(v) for k, v in data.mt_series.values.items()},
        },
    )
    run.add_artifact(f"comparison-{tag}.json", payload=comparison_to_dict(data))
    run.log_event(
        "comparison-finished",
        profile=data.profile_name,
        seed=data.seed,
        records=len(data.records),
        failures=len(data.failures),
    )


# -- memoized access (tables + figures share one computation) -------------------
_CACHE: dict[tuple[str, int], ComparisonData] = {}


def get_comparison(
    profile: ScaleProfile, *, seed: int = 2005, n_workers: int | None = None
) -> ComparisonData:
    """Memoized :func:`run_comparison` keyed on ``(profile.name, seed)``.

    ``n_workers`` only affects how a cache miss is computed — results are
    worker-count invariant, so it is deliberately not part of the memo key.
    """
    key = (profile.name, seed)
    if key not in _CACHE:
        _CACHE[key] = run_comparison(profile, seed=seed, n_workers=n_workers)
    return _CACHE[key]
