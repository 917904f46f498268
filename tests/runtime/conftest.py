"""Shared fixtures for the solver-runtime tests.

``golden_problem`` is the same deterministic n=10 suite instance the
golden fixtures were recorded on; ``SMALL_PARAMS`` gives every registry
solver a configuration small enough for fast per-test runs but large
enough that its real code paths execute.
"""

from __future__ import annotations

import pytest

from repro.experiments.suite import build_suite

#: Fast-but-structured params for each registry solver.
SMALL_PARAMS = {
    "match": {"max_iterations": 30},
    "fastmap-ga": {"population_size": 12, "generations": 8},
}


@pytest.fixture(scope="session")
def golden_problem():
    """First n=10 pair of the seed-2005 suite (the golden-fixture instance)."""
    return build_suite((10,), 1, seed=2005)[10][0].problem
