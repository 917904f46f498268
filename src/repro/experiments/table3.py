"""EXP-T3 — Table 3: the ANOVA significance study.

Protocol (§5.3): run MaTCH and two FastMap-GA configurations —
population/generations 100/10000 and 1000/1000 — thirty independent times
each on a ``|V_r| = |V_t| = 10`` instance; report mean, 95% CI, standard
deviation and median of the produced mappings' execution times, then a
one-way ANOVA on the three groups. The paper finds F = 1547, p < 0.0001;
the reproduced claim is the verdict (F ≫ 1, p ≪ 0.05), not the F value.

Execution: the thirty MaTCH repetitions run as ONE fused multi-chain CE
call (:meth:`MatchMapper.map_many` — seed-for-seed identical to a serial
repetition loop, several times faster); each GA group is a
``"fastmap-ga"`` :class:`~repro.runtime.registry.SolverSpec`, and its
repetitions are :class:`~repro.runtime.cell.SolveCell` solves dispatched
over one warm :class:`repro.utils.parallel.WorkerPool` shared by both GA
configurations, each cell carrying the n = 10 instance. The parent reads each repetition's ET from the
returned result. Every repetition's seed is derived statelessly from the
root seed, so the reported samples are bit-identical for any
``n_workers``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from repro.core.config import MatchConfig
from repro.core.match import MatchMapper
from repro.experiments import paper_data
from repro.experiments.spec import ScaleProfile, active_profile
from repro.experiments.suite import build_suite
from repro.runstore import current_run
from repro.runtime.cell import SolveCell, solve_cell
from repro.runtime.registry import SolverSpec
from repro.stats.anova import AnovaResult, one_way_anova
from repro.stats.descriptive import SampleSummary, summarize_sample
from repro.utils.parallel import CellFailure, WorkerPool
from repro.utils.rng import RngStreams
from repro.utils.tables import format_table, render_kv_block

__all__ = ["Table3Result", "compute_table3", "render_table3"]


@dataclass(frozen=True)
class Table3Result:
    """Measured Table 3: per-heuristic summaries plus the ANOVA verdict.

    ``failures`` lists ``(group label, cell failure)`` pairs for
    repetitions the fault-tolerant dispatch could not complete; the
    statistics are computed over the repetitions that did.
    """

    size: int
    runs: int
    summaries: tuple[SampleSummary, ...]
    anova: AnovaResult
    samples: dict[str, tuple[float, ...]]
    failures: tuple[tuple[str, CellFailure], ...] = ()


def compute_table3(
    profile: ScaleProfile | None = None,
    *,
    seed: int = 2005,
    n_workers: int | None = 1,
) -> Table3Result:
    """Run the three-heuristic ANOVA study at n = 10.

    The MaTCH group runs as one fused multi-chain call; both GA groups
    dispatch their per-repetition cells over one warm
    :class:`WorkerPool` (``n_workers=1`` — the default — runs serially),
    each cell carrying the instance. Seeds are per repetition, so the
    samples do not depend on the worker count.
    """
    profile = profile if profile is not None else active_profile()
    size = 10
    instance = build_suite((size,), 1, seed=seed)[size][0]
    streams = RngStreams(seed=seed)

    (pop_a, gen_a), (pop_b, gen_b) = profile.anova_ga_configs
    samples: dict[str, tuple[float, ...]] = {}

    match_seeds = [
        streams.seed_for("anova", heuristic="MaTCH", rep=rep)
        for rep in range(profile.anova_runs)
    ]
    match_mapper = MatchMapper(
        MatchConfig(max_iterations=profile.match_max_iterations)
    )
    samples["MaTCH"] = tuple(
        r.execution_time for r in match_mapper.map_many(instance.problem, match_seeds)
    )

    failures: list[tuple[str, CellFailure]] = []
    with WorkerPool(n_workers) as pool:
        for pop, gen in ((pop_a, gen_a), (pop_b, gen_b)):
            name = f"FastMap-GA {pop}/{gen}"
            spec = SolverSpec.of(
                "fastmap-ga", {"population_size": pop, "generations": gen}
            )
            cells = [
                SolveCell(
                    instance.problem, spec, streams.seed_for("anova", heuristic=name, rep=rep)
                )
                for rep in range(profile.anova_runs)
            ]
            report = pool.map_salvage(solve_cell, cells)
            samples[name] = tuple(r.execution_time for _, r in report.completed())
            failures.extend((name, f) for f in report.failures)

    if failures:
        named = ", ".join(
            f"{group} rep {f.index} ({f.kind} after {f.attempts} attempts)"
            for group, f in failures
        )
        warnings.warn(
            f"Table 3 salvaged with {len(failures)} failed replication(s): "
            f"{named}; the ANOVA runs on the surviving samples",
            RuntimeWarning,
            stacklevel=2,
        )

    summaries = tuple(
        summarize_sample(vals, label=name) for name, vals in samples.items()
    )
    anova = one_way_anova(list(samples.values()))
    result = Table3Result(
        size=size,
        runs=profile.anova_runs,
        summaries=summaries,
        anova=anova,
        samples=samples,
        failures=tuple(failures),
    )
    run = current_run()
    if run is not None:
        run.record_metrics(
            "table3",
            {
                "size": size,
                "runs": profile.anova_runs,
                "groups": {
                    s.label: {"mean": s.mean, "std": s.std, "median": s.median,
                              "ci_low": s.ci_low, "ci_high": s.ci_high}
                    for s in summaries
                },
                "anova": {"f_value": anova.f_value, "p_value": anova.p_value,
                          "df_between": anova.df_between, "df_within": anova.df_within},
                "failed_replications": len(failures),
            },
        )
    return result


def render_table3(result: Table3Result, *, include_paper: bool = True) -> str:
    """Paper-layout text rendering with the ANOVA block."""
    headers = ["Parameter", *[s.label for s in result.summaries]]
    rows: list[list] = [
        ["Absolute Mean of ET (units)", *[s.mean for s in result.summaries]],
        [
            "95% CI for Mean",
            *[f"{s.ci_low:.0f}-{s.ci_high:.0f}" for s in result.summaries],
        ],
        ["Standard Deviation", *[s.std for s in result.summaries]],
        ["Median", *[s.median for s in result.summaries]],
    ]
    out = format_table(
        headers,
        rows,
        title=(
            f"Table 3 (measured): ET statistics over {result.runs} runs, "
            f"|V_r| = |V_t| = {result.size}"
        ),
    )
    out += "\n\n" + render_kv_block(
        "ANOVA (measured)",
        {
            "F value": result.anova.f_value,
            "P value assuming null hypothesis": result.anova.p_value,
            "df (between, within)": f"({result.anova.df_between}, {result.anova.df_within})",
            "significant at alpha=0.0001": result.anova.p_value < 1e-4,
        },
    )
    if include_paper:
        paper_rows = [
            [param, *[paper_data.TABLE3[h][key] if key != "ci95"
                      else "{}-{}".format(*paper_data.TABLE3[h]["ci95"])
                      for h in paper_data.TABLE3]]
            for param, key in [
                ("Mean (paper)", "mean"),
                ("95% CI (paper)", "ci95"),
                ("Std (paper)", "std"),
                ("Median (paper)", "median"),
            ]
        ]
        out += "\n\n" + format_table(
            ["Parameter", *paper_data.TABLE3.keys()],
            paper_rows,
            title="Table 3 (published)",
        )
        out += "\n\n" + render_kv_block("ANOVA (published)", dict(paper_data.TABLE3_ANOVA))
    return out
