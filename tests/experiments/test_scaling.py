"""Tests for the heterogeneity/CCR scaling extension studies."""

from __future__ import annotations

from repro.baselines import GAConfig
from repro.core import MatchConfig
from repro.experiments.scaling import ccr_sweep, heterogeneity_sweep
from tests.experiments.conftest import BENCH_SEED

FAST_GA = GAConfig(population_size=20, generations=15)
FAST_MATCH = MatchConfig(n_samples=50, max_iterations=40)


class TestHeterogeneitySweep:
    def test_structure(self):
        for spreads, kwargs in (
            ((1, 10), dict(size=8, runs=1, seed=3, ga_config=FAST_GA, match_config=FAST_MATCH)),
            ((1, 3, 5, 10, 20), dict(size=15, runs=2, seed=BENCH_SEED)),
        ):
            result = heterogeneity_sweep(spreads=spreads, **kwargs)
            assert result.knob == "proc weight spread"
            assert [p.knob_value for p in result.points] == [float(s) for s in spreads]
            for p in result.points:
                assert p.match_et > 0 and p.ga_et > 0
                assert p.improvement > 0

    def test_render(self):
        result = heterogeneity_sweep(
            spreads=(1,), size=6, runs=1, seed=3,
            ga_config=FAST_GA, match_config=FAST_MATCH,
        )
        out = result.render()
        assert "Scaling study" in out and "GA/MaTCH" in out

    def test_deterministic(self):
        kwargs = dict(spreads=(5,), size=6, runs=1, seed=7,
                      ga_config=FAST_GA, match_config=FAST_MATCH)
        a = heterogeneity_sweep(**kwargs)
        b = heterogeneity_sweep(**kwargs)
        assert a.points == b.points


class TestCcrSweep:
    def test_structure(self):
        for multipliers, kwargs in (
            ((0.5, 8.0), dict(size=8, runs=1, seed=3, ga_config=FAST_GA, match_config=FAST_MATCH)),
            ((0.25, 1.0, 4.0, 16.0), dict(size=15, runs=2, seed=BENCH_SEED)),
        ):
            result = ccr_sweep(multipliers=multipliers, **kwargs)
            assert result.knob == "CCR multiplier"
            assert len(result.points) == len(multipliers)
            for p in result.points:
                assert p.improvement > 0.5  # the GA never crushes MaTCH

    def test_compute_bound_regime_raises_cost(self):
        """With computation scaled far past the communication volume, the
        instance becomes compute-bound and absolute ET must rise."""
        result = ccr_sweep(
            multipliers=(0.25, 1000.0), size=8, runs=1, seed=5,
            ga_config=FAST_GA, match_config=FAST_MATCH,
        )
        assert result.points[1].match_et > result.points[0].match_et


class TestRegistryIntegration:
    def test_scaling_ids_registered(self):
        from repro.experiments.registry import experiment_ids

        ids = experiment_ids()
        assert "scaling-heterogeneity" in ids
        assert "scaling-ccr" in ids
