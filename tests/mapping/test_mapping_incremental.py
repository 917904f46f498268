"""Tests for Mapping objects and turnaround records."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import MappingError
from repro.mapping import CostModel, Mapping, TurnaroundRecord


class TestMapping:
    def test_cost_cached_and_correct(self, small_problem, small_model):
        x = np.random.default_rng(0).permutation(12)
        m = Mapping(small_problem, x)
        assert m.cost(small_model) == small_model.evaluate(x)
        assert m.cost() == m.cost(small_model)  # cached

    def test_assignment_read_only(self, small_problem):
        m = Mapping(small_problem, np.arange(12))
        with pytest.raises(ValueError):
            m.assignment[0] = 5

    def test_source_mutation_does_not_leak(self, small_problem):
        x = np.arange(12)
        m = Mapping(small_problem, x)
        x[0] = 7
        assert m.assignment[0] == 0

    def test_resource_of_and_tasks_on(self, small_problem):
        x = np.arange(12)[::-1].copy()
        m = Mapping(small_problem, x)
        assert m.resource_of(0) == 11
        np.testing.assert_array_equal(m.tasks_on(11), [0])

    def test_bounds_checked(self, small_problem):
        m = Mapping(small_problem, np.arange(12))
        with pytest.raises(MappingError):
            m.resource_of(99)
        with pytest.raises(MappingError):
            m.tasks_on(-1)

    def test_one_to_one(self, small_problem):
        assert Mapping(small_problem, np.arange(12)).is_one_to_one()
        x = np.zeros(12, dtype=np.int64)
        assert not Mapping(small_problem, x).is_one_to_one()

    def test_equality_and_hash(self, small_problem):
        a = Mapping(small_problem, np.arange(12))
        b = Mapping(small_problem, np.arange(12))
        assert a == b and hash(a) == hash(b)
        c = Mapping(small_problem, np.arange(12)[::-1].copy())
        assert a != c

    def test_wrong_model_rejected(self, small_problem, known_problem):
        m = Mapping(small_problem, np.arange(12))
        with pytest.raises(MappingError, match="different problem"):
            m.cost(CostModel(known_problem))

    def test_repr_includes_cost_after_eval(self, small_problem):
        m = Mapping(small_problem, np.arange(12))
        assert "cost" not in repr(m)
        m.cost()
        assert "cost" in repr(m)


class TestTurnaround:
    def test_atn_sum(self):
        rec = TurnaroundRecord(heuristic="x", execution_time=100.0, mapping_time=5.0)
        assert rec.turnaround == 105.0

    def test_unit_bridge(self):
        rec = TurnaroundRecord(
            heuristic="x", execution_time=100.0, mapping_time=5.0, seconds_per_unit=0.1
        )
        assert rec.turnaround == pytest.approx(15.0)

    def test_speedup(self):
        fast = TurnaroundRecord(heuristic="a", execution_time=10.0, mapping_time=0.0)
        slow = TurnaroundRecord(heuristic="b", execution_time=100.0, mapping_time=0.0)
        assert fast.speedup_over(slow) == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TurnaroundRecord(heuristic="x", execution_time=-1.0, mapping_time=0.0)
        with pytest.raises(ValueError):
            TurnaroundRecord(
                heuristic="x", execution_time=1.0, mapping_time=0.0, seconds_per_unit=0
            )

    def test_speedup_zero_over_zero_is_one(self):
        """Two zero-turnaround records are equally fast, not infinitely so."""
        a = TurnaroundRecord(heuristic="a", execution_time=0.0, mapping_time=0.0)
        b = TurnaroundRecord(heuristic="b", execution_time=0.0, mapping_time=0.0)
        assert a.speedup_over(b) == 1.0

    def test_speedup_zero_over_positive_is_inf(self):
        zero = TurnaroundRecord(heuristic="a", execution_time=0.0, mapping_time=0.0)
        slow = TurnaroundRecord(heuristic="b", execution_time=3.0, mapping_time=0.0)
        assert zero.speedup_over(slow) == float("inf")

    def test_speedup_positive_over_zero_is_zero(self):
        zero = TurnaroundRecord(heuristic="a", execution_time=0.0, mapping_time=0.0)
        slow = TurnaroundRecord(heuristic="b", execution_time=3.0, mapping_time=0.0)
        assert slow.speedup_over(zero) == 0.0
