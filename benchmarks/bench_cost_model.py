"""MICRO — cost-model and sampler micro-benchmarks.

These are classic pytest-benchmark timing loops (many rounds) over the two
hot paths of the library: batched Eq. (1)/(2) evaluation and GenPerm
sampling. They document the speedup of the vectorized evaluator over the
reference loops — the engineering that makes paper-scale CE iterations
(5 000 evaluations each at n = 50) affordable in Python.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ce.genperm import sample_permutations
from repro.ce.stochastic_matrix import StochasticMatrix
from repro.graphs import generate_paper_pair
from repro.mapping import CostModel, MappingProblem, evaluate_reference

N = 30  # instance size for the micro benches
BATCH = 512


@pytest.fixture(scope="module")
def instance():
    pair = generate_paper_pair(N, 77)
    problem = MappingProblem(pair.tig, pair.resources, require_square=True)
    model = CostModel(problem)
    rng = np.random.default_rng(0)
    batch = np.stack([rng.permutation(N) for _ in range(BATCH)])
    return problem, model, batch


def test_reference_single_eval(benchmark, instance):
    problem, _, batch = instance
    result = benchmark(evaluate_reference, problem, batch[0])
    assert result > 0


def test_vectorized_single_eval(benchmark, instance):
    _, model, batch = instance
    result = benchmark(model.evaluate, batch[0])
    assert result > 0


def test_vectorized_batch_eval(benchmark, instance):
    """The CE hot path: 512 mappings per call."""
    _, model, batch = instance
    costs = benchmark(model.evaluate_batch, batch)
    assert costs.shape == (BATCH,)


def test_batch_eval_agrees_with_reference(instance):
    problem, model, batch = instance
    sample = batch[:16]
    expected = [evaluate_reference(problem, x) for x in sample]
    np.testing.assert_allclose(model.evaluate_batch(sample), expected)


def test_genperm_batch_sampling(benchmark):
    """Batched GenPerm at paper scale: N = 2n² samples at n = 30."""
    P = StochasticMatrix.uniform(N, N).values
    X = benchmark(sample_permutations, P, 2 * N * N, 7)
    assert X.shape == (2 * N * N, N)


def test_incremental_swap_probe(benchmark, instance):
    """The refine-sweep hot path: one O(deg) swap probe."""
    from repro.mapping import IncrementalEvaluator

    _, model, batch = instance
    inc = IncrementalEvaluator(model, batch[0])
    cost = benchmark(inc.swap_cost, 3, 17)
    assert cost > 0
