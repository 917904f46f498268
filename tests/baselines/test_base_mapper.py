"""Tests for the Mapper base class and MapperResult plumbing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.base import Mapper, MapperSolver
from repro.mapping import Mapping
from repro.runtime.solver import SolveOutput, StepReport


class _OneStepSolver(MapperSolver):
    """Test double: one step that returns ``assignment_for(problem)``."""

    def __init__(self, assignment_for, n_evaluations, extras):
        super().__init__()
        self.assignment_for = assignment_for
        self.n_evaluations = n_evaluations
        self.extras = extras

    def start(self, problem, seed):
        self.problem = problem

    @property
    def finished(self):
        return self._iteration > 0

    def step(self):
        self._iteration += 1
        return StepReport(iteration=0)

    def finalize(self):
        return SolveOutput(
            self.assignment_for(self.problem), self.n_evaluations, self.extras
        )


class _FixedMapper(Mapper):
    """Test double: always returns the identity mapping."""

    name = "Fixed"

    def _make_solver(self):
        return _OneStepSolver(lambda p: np.arange(p.n_tasks), 7, {"note": "fixed"})


class _InvalidMapper(Mapper):
    """Test double: returns an out-of-range assignment."""

    name = "Broken"

    def _make_solver(self):
        return _OneStepSolver(
            lambda p: np.full(p.n_tasks, p.n_resources + 5), 0, {}
        )


class TestMapperBase:
    def test_map_times_and_scores(self, small_problem, small_model):
        result = _FixedMapper().map(small_problem, 0)
        assert result.mapper_name == "Fixed"
        assert result.mapping_time >= 0
        assert result.n_evaluations == 7
        assert result.extras == {"note": "fixed"}
        assert result.execution_time == pytest.approx(
            small_model.evaluate(np.arange(12))
        )

    def test_invalid_solution_rejected(self, small_problem):
        from repro.exceptions import MappingError

        with pytest.raises(MappingError):
            _InvalidMapper().map(small_problem, 0)

    def test_base_solve_abstract(self, small_problem):
        with pytest.raises(NotImplementedError):
            Mapper().map(small_problem, 0)

    def test_repr(self):
        assert "Fixed" in repr(_FixedMapper())


class TestMapperResult:
    def test_mapping_object(self, small_problem):
        result = _FixedMapper().map(small_problem, 0)
        mapping = result.mapping(small_problem)
        assert isinstance(mapping, Mapping)
        np.testing.assert_array_equal(mapping.assignment, np.arange(12))

    def test_turnaround_record(self, small_problem):
        result = _FixedMapper().map(small_problem, 0)
        atn = result.turnaround()
        assert atn.heuristic == "Fixed"
        assert atn.turnaround == pytest.approx(
            result.execution_time + result.mapping_time
        )

    def test_turnaround_unit_bridge(self, small_problem):
        result = _FixedMapper().map(small_problem, 0)
        atn = result.turnaround(seconds_per_unit=0.5)
        assert atn.turnaround == pytest.approx(
            0.5 * result.execution_time + result.mapping_time
        )
