"""The canonical problem digest (``repro.mapping.problem_key``).

The digest is the cache-key foundation for the serving gateway: two
processes that build the *same* problem must hash to the same 64-hex
string, regardless of dtype width, memory layout, or plane round-trips.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import generate_paper_pair
from repro.mapping import MappingProblem, problem_key
from repro.mapping.problem_key import canonical_array


def make_problem(n: int, seed: int) -> MappingProblem:
    pair = generate_paper_pair(n, seed)
    return MappingProblem(pair.tig, pair.resources, require_square=True)


class TestCanonicalArray:
    def test_float_widths_collapse(self):
        a32 = np.array([1.5, 2.25], dtype=np.float32)
        a64 = np.array([1.5, 2.25], dtype=np.float64)
        assert canonical_array(a32).tobytes() == canonical_array(a64).tobytes()
        assert canonical_array(a32).dtype == np.float64

    def test_int_widths_and_bool_collapse(self):
        i32 = np.array([0, 1, 2], dtype=np.int32)
        i64 = np.array([0, 1, 2], dtype=np.int64)
        assert canonical_array(i32).tobytes() == canonical_array(i64).tobytes()
        assert canonical_array(np.array([True, False])).dtype == np.int64

    def test_fortran_order_normalized(self):
        c = np.arange(6, dtype=np.float64).reshape(2, 3)
        f = np.asfortranarray(c)
        assert canonical_array(c).tobytes() == canonical_array(f).tobytes()

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(TypeError):
            canonical_array(np.array(["a", "b"]))


class TestProblemKey:
    def test_identical_builds_hash_identically(self):
        assert problem_key(make_problem(12, 7)) == problem_key(make_problem(12, 7))

    def test_distinct_problems_hash_differently(self):
        assert problem_key(make_problem(12, 7)) != problem_key(make_problem(12, 8))
        assert problem_key(make_problem(12, 7)) != problem_key(make_problem(10, 7))

    def test_digest_shape(self):
        digest = problem_key(make_problem(8, 3))
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")

    def test_plane_round_trip_preserves_key(self):
        problem = make_problem(12, 7)
        rebuilt = MappingProblem.from_plane_arrays(problem.plane_arrays())
        assert problem_key(rebuilt) == problem_key(problem)
