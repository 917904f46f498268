"""Solver table: names, specs, and experiment-layer integration."""

from __future__ import annotations

import pickle

import pytest

from repro.exceptions import ConfigurationError
from repro.runtime import SolverSpec, create_mapper, solver_names
from tests.runtime.conftest import SMALL_PARAMS

EXPECTED_SOLVERS = {"match", "fastmap-ga"}


class TestRegistry:
    def test_all_builtins_registered(self):
        assert set(solver_names()) == EXPECTED_SOLVERS

    @pytest.mark.parametrize("name", sorted(EXPECTED_SOLVERS))
    def test_create_mapper_matches_registry_identity(self, name):
        mapper = create_mapper(name, SMALL_PARAMS[name])
        # checkpoint_params() must round-trip through the table: the
        # resume path rebuilds the mapper with exactly these kwargs.
        clone = create_mapper(name, mapper.checkpoint_params())
        assert type(clone) is type(mapper)
        assert clone.config == mapper.config

    def test_unknown_solver_lists_known_names(self):
        with pytest.raises(ConfigurationError, match="registered solvers"):
            create_mapper("no-such-solver")


class TestSolverSpec:
    def test_spec_is_picklable_and_hashable(self):
        spec = SolverSpec.of("fastmap-ga", {"population_size": 30, "generations": 5})
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert hash(clone) == hash(spec)
        assert {spec: 1}[clone] == 1

    def test_of_canonicalizes_param_order(self):
        a = SolverSpec.of("fastmap-ga", {"a": 1, "b": 2})
        b = SolverSpec.of("fastmap-ga", {"b": 2, "a": 1})
        assert a == b
        assert a.params_dict() == {"a": 1, "b": 2}

    def test_build_creates_fresh_mappers(self):
        spec = SolverSpec.of("match")
        assert spec.build() is not spec.build()

    def test_str_shows_identity(self):
        assert str(SolverSpec.of("match", {"n_samples": 5})) == "match(n_samples=5)"


class TestExperimentsIntegration:
    def test_run_comparison_accepts_specs(self):
        from repro.experiments.runner import run_comparison
        from repro.experiments.spec import ScaleProfile

        profile = ScaleProfile(
            name="spec-tiny",
            sizes=(6,),
            n_pairs=1,
            runs_per_pair=1,
            ga_population=8,
            ga_generations=4,
            anova_runs=2,
            anova_ga_configs=((8, 4),),
            match_max_iterations=20,
        )
        data = run_comparison(
            profile,
            seed=5,
            mappers={
                "ga": SolverSpec.of("fastmap-ga", {"population_size": 8, "generations": 4}),
                "match": SolverSpec.of("match", {"max_iterations": 20}),
            },
            n_workers=1,
        )
        assert set(data.et_series.values) == {"ga", "match"}
        assert all(r.n_evaluations > 0 for r in data.records)

    def test_default_factories_resolve_through_registry(self):
        from repro.baselines.ga import FastMapGA
        from repro.core.match import MatchMapper
        from repro.experiments.runner import default_mappers
        from repro.experiments.spec import SMOKE_PROFILE

        specs = default_mappers(SMOKE_PROFILE)
        assert list(specs) == ["MaTCH", "FastMap-GA"]
        match = specs["MaTCH"].build()
        assert isinstance(match, MatchMapper)
        assert match.config.max_iterations == SMOKE_PROFILE.match_max_iterations
        ga = specs["FastMap-GA"].build()
        assert isinstance(ga, FastMapGA)
        assert ga.config.population_size == SMOKE_PROFILE.ga_population
        assert ga.config.generations == SMOKE_PROFILE.ga_generations

    def test_non_spec_mapper_rejected_before_dispatch(self, monkeypatch):
        from repro.experiments import runner
        from repro.experiments.spec import SMOKE_PROFILE

        def no_suite(*args, **kwargs):
            raise AssertionError("suite built for an invalid mappers dict")

        monkeypatch.setattr(runner, "build_suite", no_suite)
        with pytest.raises(ConfigurationError, match="'ga' must be a SolverSpec"):
            runner.run_comparison(
                SMOKE_PROFILE, mappers={"ga": create_mapper("fastmap-ga")}, n_workers=1
            )
