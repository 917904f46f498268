"""Tests for the multi-chain CE engine.

The load-bearing property is seed-for-seed parity: chain ``r`` of a joint
:class:`MultiChainCE` run must be field-for-field identical — histories
and final matrix included — to a standalone
:class:`CrossEntropyOptimizer` run seeded with ``seeds[r]``. The
experiment layer swaps its serial repetition loops for the joint engine on
the strength of this property, so it is pinned exactly (no tolerances).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ce.multichain import MultiChainCE, MultiChainResult
from repro.ce.optimizer import CEConfig, CEResult, CrossEntropyOptimizer
from repro.ce.stopping import StopKind
from repro.exceptions import ConfigurationError
from repro.graphs import generate_paper_pair
from repro.mapping import CostModel, MappingProblem

SEEDS = [101, 202, 303]


@pytest.fixture(scope="module")
def problem() -> MappingProblem:
    pair = generate_paper_pair(8, 777)
    return MappingProblem(pair.tig, pair.resources, require_square=True)


@pytest.fixture(scope="module")
def model(problem) -> CostModel:
    return CostModel(problem)


def config(**overrides) -> CEConfig:
    base = dict(n_samples=128, max_iterations=60)
    base.update(overrides)
    return CEConfig(**base)


def run_sequential(model, problem, cfg, seed) -> CEResult:
    return CrossEntropyOptimizer(
        model.evaluate_batch,
        problem.n_tasks,
        problem.n_resources,
        cfg,
        rng=seed,
    ).run()


def run_joint(model, problem, cfg, seeds) -> MultiChainResult:
    return MultiChainCE(
        model.evaluate_batch,
        problem.n_tasks,
        problem.n_resources,
        cfg,
        seeds=seeds,
    ).run()


def assert_chain_equals_sequential(chain: CEResult, seq: CEResult) -> None:
    assert chain.best_cost == seq.best_cost
    assert np.array_equal(chain.best_assignment, seq.best_assignment)
    assert chain.n_iterations == seq.n_iterations
    assert chain.n_evaluations == seq.n_evaluations
    assert chain.stop_reason == seq.stop_reason
    assert chain.stop_kind == seq.stop_kind
    assert chain.gamma_history == seq.gamma_history
    assert chain.best_cost_history == seq.best_cost_history
    assert chain.degeneracy_history == seq.degeneracy_history
    assert chain.entropy_history == seq.entropy_history
    assert chain.final_matrix is not None and seq.final_matrix is not None
    assert np.array_equal(chain.final_matrix, seq.final_matrix)


#: One config per stop kind the fused tracker must reproduce; each makes
#: its kind fire on at least one of the three chains.
STOP_CONFIGS = {
    StopKind.BUDGET: dict(max_iterations=5),
    StopKind.ROW_MAXIMA_STABLE: dict(
        gamma_window=0, stability_window=3, stability_tol=0.05
    ),
    StopKind.GAMMA_STAGNATION: dict(),
    StopKind.DEGENERATE: dict(stability_window=0, gamma_window=0, zeta=1.0),
}
STOP_IDS = {
    StopKind.BUDGET: "budget",
    StopKind.ROW_MAXIMA_STABLE: "rowmax",
    StopKind.GAMMA_STAGNATION: "gamma",
    StopKind.DEGENERATE: "degen",
}


class TestSeedForSeedParity:
    @pytest.mark.parametrize("kind", list(STOP_CONFIGS), ids=STOP_IDS.get)
    def test_three_chains_reproduce_sequential_runs(self, model, problem, kind):
        cfg = config(**STOP_CONFIGS[kind])
        joint = run_joint(model, problem, cfg, SEEDS)
        assert joint.n_chains == len(SEEDS)
        for seed, chain in zip(SEEDS, joint.chains):
            seq = run_sequential(model, problem, cfg, seed)
            assert_chain_equals_sequential(chain, seq)
        assert kind in {chain.stop_kind for chain in joint.chains}

    def test_stop_configs_cover_every_stop_kind(self, model, problem):
        # Every rule of the optimizer's criterion set has a parity case.
        seq = CrossEntropyOptimizer(
            model.evaluate_batch, problem.n_tasks, problem.n_resources, config()
        )
        assert set(STOP_CONFIGS) == {c.kind for c in seq.stopping.criteria}

    def test_single_chain(self, model, problem):
        cfg = config()
        joint = run_joint(model, problem, cfg, [SEEDS[0]])
        assert_chain_equals_sequential(
            joint.chains[0], run_sequential(model, problem, cfg, SEEDS[0])
        )

    def test_parity_survives_budget_stops(self, model, problem):
        # A budget so tight some chains cannot converge adaptively.
        cfg = config(max_iterations=5)
        joint = run_joint(model, problem, cfg, SEEDS)
        for seed, chain in zip(SEEDS, joint.chains):
            seq = run_sequential(model, problem, cfg, seed)
            assert_chain_equals_sequential(chain, seq)
            assert chain.stop_kind == StopKind.BUDGET
            assert not chain.converged


class TestDedup:
    def test_dedup_matches_plain_exactly(self, model, problem):
        on = run_joint(model, problem, config(dedup=True), SEEDS)
        off = run_joint(model, problem, config(dedup=False), SEEDS)
        for a, b in zip(on.chains, off.chains):
            assert_chain_equals_sequential(a, b)

    def test_joint_diagnostics(self, model, problem):
        joint = run_joint(model, problem, config(dedup=True), SEEDS)
        assert 0 < joint.n_unique_evaluations <= joint.n_evaluations
        assert joint.n_evaluations == sum(c.n_evaluations for c in joint.chains)
        assert 0.0 <= joint.dedup_collapse_rate < 1.0
        assert joint.dedup_rate_history
        assert all(0.0 <= r <= 1.0 for r in joint.dedup_rate_history)
        # CE commits over time, so late joint batches collapse harder.
        assert joint.dedup_rate_history[-1] > joint.dedup_rate_history[0]

    def test_dedup_off_scores_every_row(self, model, problem):
        joint = run_joint(model, problem, config(dedup=False), SEEDS)
        assert joint.n_unique_evaluations == joint.n_evaluations
        assert joint.dedup_collapse_rate == 0.0

    def test_memo_never_changes_costs(self, problem):
        # The cross-iteration memo must hand back exactly the float the
        # objective produced: count objective calls and re-verify each
        # returned row against a fresh model.
        fresh = CostModel(problem)
        seen_rows: list[np.ndarray] = []

        def spying_objective(X: np.ndarray) -> np.ndarray:
            seen_rows.append(X.copy())
            return fresh.evaluate_batch(X)

        cfg = config()
        joint = MultiChainCE(
            spying_objective,
            problem.n_tasks,
            problem.n_resources,
            cfg,
            seeds=SEEDS,
        ).run()
        n_scored = sum(x.shape[0] for x in seen_rows)
        assert n_scored == joint.n_unique_evaluations
        reference = run_joint(fresh, problem, cfg, SEEDS)
        for a, b in zip(joint.chains, reference.chains):
            assert_chain_equals_sequential(a, b)


class TestResultSurface:
    def test_best_properties(self, model, problem):
        joint = run_joint(model, problem, config(), SEEDS)
        costs = [c.best_cost for c in joint.chains]
        assert joint.best_index == int(np.argmin(costs))
        assert joint.best is joint.chains[joint.best_index]
        assert joint.n_joint_iterations == max(c.n_iterations for c in joint.chains)

    def test_validation(self, model, problem):
        with pytest.raises(ConfigurationError):
            MultiChainCE(
                model.evaluate_batch, 4, 4, config(), seeds=[]
            )
        with pytest.raises(ConfigurationError):
            MultiChainCE(
                model.evaluate_batch, 5, 4, config(), seeds=[1]
            )
