"""Shared configuration for the benchmark suite.

Every paper artifact (tables 1-3, figures 3 and 7-9) has one bench module
that regenerates it and prints the same rows/series the paper reports.
Benchmarks default to a scaled-down profile so the whole suite finishes in
a few minutes; set ``REPRO_FULL_SCALE=1`` (or ``REPRO_SCALE=paper``) to run
the paper's §5.2 parameters verbatim.

The regeneration benches run exactly once per session
(``benchmark.pedantic(rounds=1)``): the quantity of interest is the
artifact itself plus a wall-clock reading, not a statistical timing
distribution over repeated multi-minute sweeps.

Tables 1-2 and Figures 7-9 all derive from one §5.3 suite comparison; the
runner memoizes it per (profile, seed), so within a session the first
bench that needs it pays the full cost and the rest reuse the cached
series (their timer then measures only extraction/rendering).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.spec import PAPER_PROFILE, ScaleProfile

#: Scaled-down default profile for benchmark regeneration runs.
BENCH_PROFILE = ScaleProfile(
    name="bench",
    sizes=(10, 15, 20),
    n_pairs=2,
    runs_per_pair=2,
    ga_population=150,
    ga_generations=250,
    anova_runs=10,
    anova_ga_configs=((75, 500), (250, 150)),
    match_max_iterations=400,
)


def _full_scale() -> bool:
    return (
        os.environ.get("REPRO_FULL_SCALE", "") == "1"
        or os.environ.get("REPRO_SCALE", "").lower() == "paper"
    )


@pytest.fixture(scope="session")
def bench_profile() -> ScaleProfile:
    """The active benchmark profile (bench-scale unless full scale is set)."""
    return PAPER_PROFILE if _full_scale() else BENCH_PROFILE


@pytest.fixture(scope="session")
def bench_seed() -> int:
    """One root seed for the whole benchmark session."""
    return 2005


#: Wall-clock seconds per bench item, accumulated across the session and
#: folded into one run-store record at session end.
_SESSION_TIMINGS: dict[str, float] = {}


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under the benchmark timer and return it."""
    import time

    t0 = time.perf_counter()
    result = benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
    name = getattr(benchmark, "name", None) or fn.__name__
    _SESSION_TIMINGS[name] = time.perf_counter() - t0
    return result


def pytest_sessionfinish(session, exitstatus) -> None:
    """Record the whole pytest-bench session as one run-store run.

    The artifact benches print their tables/series rather than writing
    JSON; this hook is how their timings still land in ``runs/{run_id}/``
    like every other entry point. Recording is best-effort: a run-store
    problem must not turn a green bench session red.
    """
    timings = dict(_SESSION_TIMINGS)
    try:
        # Micro-benches (classic multi-round pytest-benchmark loops) never
        # pass through run_once; pick their best-of timing off the plugin.
        for bench in getattr(
            getattr(session.config, "_benchmarksession", None), "benchmarks", []
        ):
            if bench.name not in timings and bench.stats is not None:
                timings[bench.name] = float(bench.stats.min)
    except Exception:  # pragma: no cover - plugin internals may shift
        pass
    if not timings:
        return
    try:
        from repro.runstore import BenchResult

        BenchResult(
            "pytest_suite",
            smoke=not _full_scale(),
            groups={"timings": dict(sorted(timings.items()))},
        ).write()
    except Exception as exc:  # pragma: no cover - defensive
        print(f"warning: bench session run-store record failed: {exc}")


def pytest_collection_modifyitems(items) -> None:
    """Mark every bench as ``slow``.

    Belt and braces on top of the ``python_files`` exclusion in
    ``pyproject.toml``: even when the benches are collected explicitly
    (``pytest benchmarks -o python_files='bench_*.py'``), a tier-1 run
    filtering with ``-m 'not slow'`` still skips them.
    """
    for item in items:
        item.add_marker(pytest.mark.slow)
