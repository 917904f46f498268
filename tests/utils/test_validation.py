"""Tests for repro.utils.validation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ce.stochastic_matrix import StochasticMatrix
from repro.exceptions import ValidationError
from repro.utils.validation import (
    check_in_range,
    check_permutation,
    check_positive,
    check_probability,
    check_probability_matrix,
    is_permutation,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 1.5) == 1.5

    def test_rejects_zero_strict(self):
        with pytest.raises(ValidationError):
            check_positive("x", 0.0)

    def test_accepts_zero_non_strict(self):
        assert check_positive("x", 0.0, strict=False) == 0.0

    def test_rejects_negative_non_strict(self):
        with pytest.raises(ValidationError):
            check_positive("x", -1.0, strict=False)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError):
            check_positive("x", bad)

    def test_error_mentions_name(self):
        with pytest.raises(ValidationError, match="myparam"):
            check_positive("myparam", -1)


class TestCheckInRange:
    def test_inclusive_endpoints(self):
        assert check_in_range("x", 0.0, 0.0, 1.0) == 0.0
        assert check_in_range("x", 1.0, 0.0, 1.0) == 1.0

    def test_exclusive_endpoints(self):
        with pytest.raises(ValidationError):
            check_in_range("x", 0.0, 0.0, 1.0, inclusive=(False, True))
        with pytest.raises(ValidationError):
            check_in_range("x", 1.0, 0.0, 1.0, inclusive=(True, False))

    def test_inside(self):
        assert check_in_range("x", 0.5, 0.0, 1.0, inclusive=(False, False)) == 0.5

    def test_outside(self):
        with pytest.raises(ValidationError):
            check_in_range("x", 2.0, 0.0, 1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            check_in_range("x", float("nan"), 0.0, 1.0)


class TestCheckProbability:
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_valid(self, p):
        assert check_probability("p", p) == p

    @pytest.mark.parametrize("p", [-0.01, 1.01])
    def test_invalid(self, p):
        with pytest.raises(ValidationError):
            check_probability("p", p)


class TestCheckProbabilityMatrix:
    def test_uniform_ok(self):
        m = check_probability_matrix(np.full((3, 4), 0.25))
        assert m.dtype == np.float64

    def test_rows_must_sum_to_one(self):
        bad = np.full((2, 2), 0.4)
        with pytest.raises(ValidationError, match="sum"):
            check_probability_matrix(bad)

    def test_negative_entries_rejected(self):
        bad = np.array([[1.2, -0.2], [0.5, 0.5]])
        with pytest.raises(ValidationError, match="negative"):
            check_probability_matrix(bad)

    def test_1d_rejected(self):
        with pytest.raises(ValidationError):
            check_probability_matrix(np.ones(3) / 3)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            check_probability_matrix(np.empty((0, 3)))

    def test_tolerance_respected(self):
        m = np.array([[0.5 + 1e-10, 0.5]])
        check_probability_matrix(m)  # within the 1e-9 row-sum tolerance

    @pytest.mark.parametrize(
        "bad",
        [
            [[np.nan, 1.0], [0.5, 0.5]],
            [[1.0, -1e-12], [0.5, 0.5]],
            [[0.5 + 1e-8, 0.5], [0.5, 0.5]],
        ],
        ids=["nan", "negative", "row-off-by-1e-8"],
    )
    def test_one_row_stochastic_rule(self, bad):
        """The constructor rule is the checkpoint and gossip rule: entries
        in [0, 1], rows summing to 1 within 1e-9, no NaN."""
        with pytest.raises(ValidationError):
            check_probability_matrix(bad)
        with pytest.raises(ValidationError):
            StochasticMatrix(np.array(bad))


class TestIsPermutation:
    def test_identity(self):
        assert is_permutation([0, 1, 2])

    def test_shuffled(self):
        assert is_permutation([2, 0, 1])

    def test_duplicate(self):
        assert not is_permutation([0, 0, 2])

    def test_out_of_range(self):
        assert not is_permutation([1, 2, 3])

    def test_length_check(self):
        assert is_permutation([0, 1], n=2)
        assert not is_permutation([0, 1], n=3)

    def test_empty(self):
        assert is_permutation([], n=0)
        assert not is_permutation([], n=1)

    def test_2d_rejected(self):
        assert not is_permutation([[0, 1], [1, 0]])

    def test_float_integral_values_ok(self):
        assert is_permutation([0.0, 2.0, 1.0])

    def test_float_fractional_rejected(self):
        assert not is_permutation([0.5, 1.5, 2.0])

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=2**31))
    def test_numpy_permutations_always_accepted(self, n, seed):
        perm = np.random.default_rng(seed).permutation(n)
        assert is_permutation(perm, n=n)


class TestCheckPermutation:
    def test_returns_int64(self):
        out = check_permutation("x", [1, 0, 2])
        assert out.dtype == np.int64

    def test_raises_with_name(self):
        with pytest.raises(ValidationError, match="mapping"):
            check_permutation("mapping", [0, 0, 1])
