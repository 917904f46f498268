"""Shared scale for the paper-artifact shape claims.

The tiny profiles of the individual test modules exercise every code
path in seconds, but at sizes too small to carry a trend. The shape
claims (a ratio that grows with n, an ATN ordering at the top size) are
checked at :data:`BENCH_SCALE`: three sizes, still only a few seconds.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import ComparisonData, get_comparison
from repro.experiments.spec import ScaleProfile

BENCH_SCALE = ScaleProfile(
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
BENCH_SEED = 2005


@pytest.fixture(scope="module")
def bench_comparison() -> ComparisonData:
    """The §5.3 comparison at :data:`BENCH_SCALE`.

    It goes through the memoized :func:`get_comparison`, so every module
    that asks for it, and every ``compute_*`` call at this scale, shares
    one run of the suite.
    """
    return get_comparison(BENCH_SCALE, seed=BENCH_SEED)
