"""Shared fixtures for the cross-backend kernel parity matrix."""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.graphs import generate_paper_pair
from repro.mapping.problem import MappingProblem

#: Backends that load in this environment (numpy always; cext needs a C
#: compiler). Computed once at collection — the memoized loads make this
#: cheap for the tests proper.
AVAILABLE = [name for name, ok in kernels.available_backends().items() if ok]

#: Compiled backends only, for tests comparing against the numpy floor.
COMPILED = [name for name in AVAILABLE if name != "numpy"]


@pytest.fixture(params=AVAILABLE)
def backend(request):
    """Each available backend, pinned for the duration of the test."""
    with kernels.use_backend(request.param) as b:
        yield b


def make_problem(n: int, seed: int) -> MappingProblem:
    pair = generate_paper_pair(n, seed)
    return MappingProblem(pair.tig, pair.resources, require_square=True)


def random_batch(problem: MappingProblem, n_rows: int, seed: int) -> np.ndarray:
    gen = np.random.default_rng(seed)
    return gen.integers(
        0, problem.n_resources, size=(n_rows, problem.n_tasks), dtype=np.int64
    )
