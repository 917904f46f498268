"""Parallel dispatch must never change a reported number.

Every experiment entry point that accepts ``n_workers`` derives each
cell's seed up front, so results are pinned to be identical — record for
record — between serial and process-pool execution, and the fused
multi-chain MaTCH path must reproduce the per-run loop exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import MatchConfig
from repro.core.match import MatchMapper
from repro.experiments.runner import run_comparison
from repro.experiments.spec import ScaleProfile
from repro.experiments.suite import build_suite
from repro.experiments.table3 import compute_table3

TINY_PROFILE = ScaleProfile(
    name="tiny",
    sizes=(6, 8),
    n_pairs=2,
    runs_per_pair=2,
    ga_population=10,
    ga_generations=6,
    anova_runs=3,
    anova_ga_configs=((8, 6), (10, 4)),
    match_max_iterations=40,
)


def _comparable_records(data):
    """Records with the measured wall-clock zeroed (the one unpinned field)."""
    from dataclasses import replace

    return [replace(r, mapping_time=0.0) for r in data.records]


class TestRunComparisonParallel:
    def test_parallel_equals_serial(self):
        # Every field except mapping_time (measured wall-clock) is pinned.
        serial = run_comparison(TINY_PROFILE, seed=7, n_workers=1)
        pooled = run_comparison(TINY_PROFILE, seed=7, n_workers=2)
        assert _comparable_records(serial) == _comparable_records(pooled)
        assert serial.et_series == pooled.et_series

    def test_worker_count_invariance_1_2_4(self):
        """The fabric's core contract: 1, 2 and 4 workers are bit-identical.

        Every RunRecord field (assignments feed ET, so ET equality is
        value equality) and both aggregate series must match exactly —
        LPT scheduling, shared-plane attachment and warm-worker reuse may
        only change wall-clock, never a number.
        """
        runs = {
            n: run_comparison(TINY_PROFILE, seed=13, n_workers=n)
            for n in (1, 2, 4)
        }
        baseline = runs[1]
        for n in (2, 4):
            assert _comparable_records(runs[n]) == _comparable_records(baseline), n
            assert runs[n].et_series == baseline.et_series, n
            assert runs[n].mt_series.sizes == baseline.mt_series.sizes, n


class TestTable3Parallel:
    def test_parallel_equals_serial(self):
        serial = compute_table3(TINY_PROFILE, seed=9, n_workers=1)
        pooled = compute_table3(TINY_PROFILE, seed=9, n_workers=2)
        assert serial.samples == pooled.samples
        assert serial.anova == pooled.anova
        assert list(serial.samples) == ["MaTCH", "FastMap-GA 8/6", "FastMap-GA 10/4"]


class TestAblationsParallel:
    def test_sweep_parallel_equals_serial(self):
        from repro.experiments.ablations import rho_sweep

        serial = rho_sweep((0.05, 0.2), size=6, runs=2, seed=3, n_workers=1)
        pooled = rho_sweep((0.05, 0.2), size=6, runs=2, seed=3, n_workers=2)
        # mean_mt is measured wall-clock; every derived number is pinned.
        from dataclasses import replace

        assert [replace(p, mean_mt=0.0) for p in serial.points] == [
            replace(p, mean_mt=0.0) for p in pooled.points
        ]


class TestMapMany:
    @pytest.fixture(scope="class")
    def instance(self):
        return build_suite((8,), 1, seed=11)[8][0]

    def test_match_fused_equals_map_loop(self, instance):
        seeds = [5, 6, 7, 8]
        mapper = MatchMapper(MatchConfig(max_iterations=40))
        fused = mapper.map_many(instance.problem, seeds)
        for seed, res in zip(seeds, fused):
            single = mapper.map(instance.problem, seed)
            assert res.execution_time == single.execution_time
            assert np.array_equal(res.assignment, single.assignment)
            assert res.n_evaluations == single.n_evaluations
            assert res.extras["iterations"] == single.extras["iterations"]
            assert res.extras["stop_reason"] == single.extras["stop_reason"]
        assert fused[0].extras["joint_chains"] == len(seeds)

    def test_match_map_many_empty(self, instance):
        assert MatchMapper().map_many(instance.problem, []) == []
