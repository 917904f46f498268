"""EXP-F3/F7/F8/F9 — the paper's figures as terminal-renderable artifacts.

* Figure 3: stochastic-matrix evolution of one tracked ``n = 10`` MaTCH
  run, rendered as ASCII heat-map frames (uniform → biased → degenerate);
* Figures 7/8: the ET and MT series of Tables 1-2 as ASCII bar charts;
* Figure 9: the application turnaround time ``ATN = ET + MT`` series.

Each ``compute_*`` returns the underlying data (so tests can assert on
shape properties); ``render_*`` produces the printable artifact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import MatchConfig
from repro.core.match import MatchMapper
from repro.core.trace import evolution_frames, render_matrix_ascii
from repro.experiments.runner import get_comparison
from repro.experiments.spec import ScaleProfile, active_profile
from repro.experiments.suite import build_suite
from repro.stats.comparison import SeriesBySize
from repro.utils.rng import RngStreams

__all__ = [
    "Fig3Result",
    "compute_fig3",
    "render_fig3",
    "compute_fig7",
    "compute_fig8",
    "compute_fig9",
    "render_series_chart",
]


# --------------------------------------------------------------------------- Fig 3
@dataclass
class Fig3Result:
    """A tracked MaTCH run's matrix evolution at n = 10."""

    size: int
    frames: list[dict]
    n_iterations: int
    final_degeneracy: float
    best_cost: float


def compute_fig3(
    *, size: int = 10, seed: int = 2005, n_frames: int = 4
) -> Fig3Result:
    """Run MaTCH with matrix tracking and extract evolution frames."""
    instance = build_suite((size,), 1, seed=seed)[size][0]
    mapper = MatchMapper(MatchConfig(track_matrices=True))
    run_seed = RngStreams(seed=seed).seed_for("fig3")
    mapper.map(instance.problem, run_seed)
    assert mapper.last_result is not None
    ce = mapper.last_result.ce_result
    frames = evolution_frames(ce, n_frames=n_frames)
    return Fig3Result(
        size=size,
        frames=frames,
        n_iterations=ce.n_iterations,
        final_degeneracy=frames[-1]["degeneracy"],
        best_cost=ce.best_cost,
    )


def render_fig3(result: Fig3Result) -> str:
    """ASCII rendition of the Fig. 3 panel sequence."""
    parts = [
        f"Figure 3 (measured): stochastic matrix evolution, "
        f"|V_r| = |V_t| = {result.size} "
        f"({result.n_iterations} iterations, best ET {result.best_cost:.0f})"
    ]
    for frame in result.frames:
        parts.append(
            f"\n-- snapshot {frame['snapshot_index']} | "
            f"degeneracy {frame['degeneracy']:.3f} | "
            f"entropy {frame['entropy']:.3f} | "
            f"committed rows {frame['committed_rows']}/{result.size} --"
        )
        parts.append(render_matrix_ascii(frame["matrix"]))
    return "\n".join(parts)


# ------------------------------------------------------------------- Figs 7, 8, 9
def compute_fig7(
    profile: ScaleProfile | None = None,
    *,
    seed: int = 2005,
    n_workers: int | None = None,
) -> SeriesBySize:
    """Figure 7's data: the ET series per heuristic.

    ``n_workers`` sizes the execution fabric on a comparison-cache miss;
    the series itself is worker-count invariant.
    """
    profile = profile if profile is not None else active_profile()
    return get_comparison(profile, seed=seed, n_workers=n_workers).et_series


def compute_fig8(
    profile: ScaleProfile | None = None,
    *,
    seed: int = 2005,
    n_workers: int | None = None,
) -> SeriesBySize:
    """Figure 8's data: the MT series per heuristic."""
    profile = profile if profile is not None else active_profile()
    return get_comparison(profile, seed=seed, n_workers=n_workers).mt_series


def compute_fig9(
    profile: ScaleProfile | None = None,
    *,
    seed: int = 2005,
    seconds_per_unit: float = 1.0,
    n_workers: int | None = None,
) -> SeriesBySize:
    """Figure 9's data: the ATN = ET + MT series per heuristic."""
    profile = profile if profile is not None else active_profile()
    return get_comparison(profile, seed=seed, n_workers=n_workers).atn_series(
        seconds_per_unit=seconds_per_unit
    )


def render_series_chart(series: SeriesBySize, *, title: str, width: int = 48) -> str:
    """Grouped horizontal ASCII bar chart of a :class:`SeriesBySize`.

    One group per size, one bar per heuristic, log-scaled lengths (the
    paper's figures span orders of magnitude).
    """
    all_vals = [v for vals in series.values.values() for v in vals if v > 0]
    if not all_vals:
        return f"{title}\n(no positive data)"
    lo = min(all_vals)
    hi = max(all_vals)
    span = np.log10(hi / lo) if hi > lo else 1.0
    name_w = max(len(n) for n in series.values)

    lines = [title, "=" * len(title)]
    for i, size in enumerate(series.sizes):
        lines.append(f"n = {size}")
        for name in sorted(series.values):
            v = series.values[name][i]
            if v <= 0:
                bar = ""
            else:
                frac = (np.log10(v / lo) / span) if span > 0 else 1.0
                bar = "#" * max(1, int(round(frac * width)))
            lines.append(f"  {name.ljust(name_w)} |{bar} {v:,.2f}")
    lines.append(f"(log scale, '#' spans {lo:,.2f} .. {hi:,.2f} {series.metric})")
    return "\n".join(lines)
