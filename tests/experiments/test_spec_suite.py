"""Tests for scale profiles and the §5.2 problem suite."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.spec import (
    PAPER_PROFILE,
    SMOKE_PROFILE,
    ScaleProfile,
    active_profile,
)
from repro.experiments.suite import build_suite, ccr_multipliers


class TestProfiles:
    def test_paper_profile_matches_section_5_2(self):
        assert PAPER_PROFILE.sizes == (10, 20, 30, 40, 50)
        assert PAPER_PROFILE.n_pairs == 5
        assert PAPER_PROFILE.runs_per_pair == 5
        assert PAPER_PROFILE.ga_population == 500
        assert PAPER_PROFILE.ga_generations == 1000
        assert PAPER_PROFILE.anova_runs == 30
        assert ((100, 10000), (1000, 1000)) == PAPER_PROFILE.anova_ga_configs

    def test_smoke_profile_is_smaller(self):
        assert max(SMOKE_PROFILE.sizes) <= max(PAPER_PROFILE.sizes)
        assert SMOKE_PROFILE.ga_generations < PAPER_PROFILE.ga_generations
        assert SMOKE_PROFILE.anova_runs < PAPER_PROFILE.anova_runs

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ScaleProfile(
                name="bad", sizes=(), n_pairs=1, runs_per_pair=1,
                ga_population=10, ga_generations=10, anova_runs=1,
                anova_ga_configs=((1, 1),), match_max_iterations=10,
            )
        with pytest.raises(ConfigurationError):
            ScaleProfile(
                name="bad", sizes=(1,), n_pairs=1, runs_per_pair=1,
                ga_population=10, ga_generations=10, anova_runs=1,
                anova_ga_configs=((1, 1),), match_max_iterations=10,
            )

    def test_active_profile_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert active_profile() is SMOKE_PROFILE
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert active_profile() is PAPER_PROFILE
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert active_profile() is SMOKE_PROFILE

    def test_active_profile_unknown(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "gigantic")
        with pytest.raises(ConfigurationError):
            active_profile()


class TestCcrMultipliers:
    def test_five_pairs_span_sixteen_x(self):
        m = ccr_multipliers(5)
        assert len(m) == 5
        assert m[2] == pytest.approx(1.0)
        assert m[-1] / m[0] == pytest.approx(16.0)

    def test_single_pair(self):
        assert ccr_multipliers(1) == (1.0,)

    def test_monotone(self):
        m = ccr_multipliers(7)
        assert all(b > a for a, b in zip(m, m[1:]))

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            ccr_multipliers(0)


class TestBuildSuite:
    def test_structure(self):
        suite = build_suite((6, 8), 3, seed=1)
        assert set(suite) == {6, 8}
        assert len(suite[6]) == 3
        inst = suite[6][0]
        assert inst.size == 6
        assert inst.problem.n_tasks == 6
        assert inst.problem.is_square

    def test_deterministic(self):
        a = build_suite((6,), 2, seed=5)
        b = build_suite((6,), 2, seed=5)
        assert a[6][0].graphs.tig == b[6][0].graphs.tig
        assert a[6][1].graphs.resources == b[6][1].graphs.resources

    def test_adding_sizes_keeps_existing_instances(self):
        """Stream derivation per (size, pair): growing the grid never
        reshuffles previously generated instances."""
        small = build_suite((6,), 2, seed=9)
        grown = build_suite((6, 8), 2, seed=9)
        assert small[6][0].graphs.tig == grown[6][0].graphs.tig

    def test_ccr_varies_across_pairs(self):
        suite = build_suite((8,), 3, seed=2)
        ccrs = [
            inst.graphs.tig.computation_to_communication_ratio()
            for inst in suite[8]
        ]
        assert ccrs[0] < ccrs[-1]  # low multiplier -> comm-bound first

    def test_different_seeds_different_graphs(self):
        a = build_suite((6,), 1, seed=1)[6][0]
        b = build_suite((6,), 1, seed=2)[6][0]
        assert a.graphs.tig != b.graphs.tig
