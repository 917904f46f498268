"""Cross-cutting property-based tests: system-level invariants.

Each property here spans at least two subsystems (generator → cost model →
optimizer), complementing the per-module property tests. All
are hypothesis-driven over random instances.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ce import sample_permutations
from repro.ce.stochastic_matrix import StochasticMatrix
from repro.core import MatchConfig, MatchMapper
from repro.graphs import generate_paper_pair
from repro.mapping import CostModel, MappingProblem, evaluate_reference

sizes = st.integers(min_value=2, max_value=12)
seeds = st.integers(min_value=0, max_value=10**6)


def make_problem(n: int, seed: int) -> MappingProblem:
    pair = generate_paper_pair(n, seed)
    return MappingProblem(pair.tig, pair.resources, require_square=True)


@settings(max_examples=15, deadline=None)
@given(n=sizes, seed=seeds)
def test_cost_invariant_under_resource_relabeling(n, seed):
    """Permuting resource identities (and the mapping accordingly) leaves
    the cost unchanged — Eq. (1) depends only on the induced loads."""
    from repro.graphs import ResourceGraph, TaskInteractionGraph

    problem = make_problem(n, seed)
    rng = np.random.default_rng(seed)
    x = rng.permutation(n)
    base = CostModel(problem).evaluate(x)

    sigma = rng.permutation(n)  # resource relabeling: old r -> sigma[r]
    inv = np.argsort(sigma)
    res = problem.resources
    new_weights = res.node_weights[inv]
    adj = res.adjacency_matrix()[np.ix_(inv, inv)]
    relabeled = ResourceGraph.from_adjacency(new_weights, adj)
    relabeled_problem = MappingProblem(
        TaskInteractionGraph(
            problem.tig.node_weights, problem.tig.edges, problem.tig.edge_weights
        ),
        relabeled,
    )
    assert CostModel(relabeled_problem).evaluate(sigma[x]) == pytest.approx(
        base, rel=1e-12
    )


@settings(max_examples=10, deadline=None)
@given(n=sizes, seed=seeds, scale=st.floats(min_value=0.1, max_value=50.0))
def test_cost_scales_linearly_with_weights(n, seed, scale):
    """Multiplying all TIG weights by c multiplies every mapping's cost by c
    (Eq. (1) is linear in W and C)."""
    from repro.graphs import TaskInteractionGraph

    pair = generate_paper_pair(n, seed)
    problem = MappingProblem(pair.tig, pair.resources)
    scaled_tig = TaskInteractionGraph(
        pair.tig.node_weights * scale, pair.tig.edges, pair.tig.edge_weights * scale
    )
    scaled_problem = MappingProblem(scaled_tig, pair.resources)
    x = np.random.default_rng(seed).permutation(n)
    assert CostModel(scaled_problem).evaluate(x) == pytest.approx(
        scale * CostModel(problem).evaluate(x), rel=1e-12
    )


@settings(max_examples=10, deadline=None)
@given(n=st.integers(min_value=3, max_value=10), seed=seeds)
def test_optimizer_simulator_bound_chain(n, seed):
    """End-to-end invariant chain: MaTCH's output is a valid one-to-one
    mapping whose reported cost equals the reference evaluation."""
    problem = make_problem(n, seed)
    result = MatchMapper(MatchConfig(n_samples=60, max_iterations=25)).map(
        problem, seed
    )
    x = result.assignment
    assert problem.is_one_to_one(x)
    ref = evaluate_reference(problem, x)
    assert result.execution_time == pytest.approx(ref, rel=1e-12)


@settings(max_examples=10, deadline=None)
@given(n=sizes, seed=seeds, zeta=st.floats(min_value=0.05, max_value=1.0))
def test_ce_update_contracts_towards_elites(n, seed, zeta):
    """After updating on a single elite mapping, the matrix assigns that
    mapping strictly more probability mass (per Eq. (13) the update is a
    contraction towards the elite's degenerate matrix)."""
    rng = np.random.default_rng(seed)
    m = StochasticMatrix.uniform(n, n)
    elite = rng.permutation(n)
    before = m.values[np.arange(n), elite].sum()
    m.update_from_elites(elite[np.newaxis, :], zeta=zeta)
    after = m.values[np.arange(n), elite].sum()
    assert after > before - 1e-12


@settings(max_examples=10, deadline=None)
@given(n=st.integers(min_value=2, max_value=10), seed=seeds)
def test_genperm_samples_always_evaluable(n, seed):
    """Anything GenPerm emits, the cost model accepts and prices finitely."""
    problem = make_problem(n, seed)
    model = CostModel(problem)
    P = StochasticMatrix.uniform(n, n).values
    X = sample_permutations(P, 32, seed)
    costs = model.evaluate_batch(X)
    assert np.all(np.isfinite(costs)) and np.all(costs > 0)
