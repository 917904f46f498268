"""Tests for the multi-chain CE engine.

The load-bearing property is seed-for-seed parity: chain ``r`` of a joint
:class:`MultiChainCE` run over ``R`` chains must be field-for-field
identical — histories and final matrix included — to a one-chain
:class:`CrossEntropyOptimizer` run seeded with ``seeds[r]``. The
experiment layer swaps its serial repetition loops for the joint engine on
the strength of this property, so it is pinned exactly (no tolerances).
The one-chain runs themselves are pinned to recorded numbers by
``test_golden_ce_engine.py``.
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
from repro.runtime.budget import EvaluationBudget

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
        # Every rule the engine can fire has a parity case: all kinds but
        # "not run" and the external (loop-driven) stop.
        fired_by_rules = set(StopKind) - {StopKind.NOT_RUN, StopKind.EXTERNAL}
        assert set(STOP_CONFIGS) == fired_by_rules

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


class TestScoring:
    def test_objective_sees_every_sampled_row(self, problem):
        # No duplicate collapse: the one objective call per joint
        # iteration scores every sampled row of every live chain, and the
        # chains still match their sequential runs.
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
        assert len(seen_rows) == joint.n_joint_iterations
        assert sum(x.shape[0] for x in seen_rows) == joint.n_evaluations
        assert joint.n_evaluations == sum(c.n_evaluations for c in joint.chains)
        for seed, chain in zip(SEEDS, joint.chains):
            seq = run_sequential(fresh, problem, cfg, seed)
            assert_chain_equals_sequential(chain, seq)


def run_capped(model, problem, cfg, seeds, cap) -> tuple[MultiChainResult, EvaluationBudget]:
    """Drive the engine as the search loop does: check the cap between steps."""
    budget = EvaluationBudget(max_evaluations=cap)
    engine = MultiChainCE(
        model.evaluate_batch, problem.n_tasks, problem.n_resources, cfg, seeds=seeds
    )
    engine.bind_budget(budget)
    engine.start()
    while not engine.finished:
        tripped = budget.exhausted()
        if tripped is not None:
            engine.note_external_stop(tripped[1])
            break
        engine.step()
    return engine.finalize(), budget


class TestBudgetEdge:
    """A joint step draws only the rows the budget can pay for, in chain order."""

    N = 128

    @pytest.mark.parametrize(
        "cap", [1, 2 * N + 50, 3 * N - 1, 3 * N, 3 * N + 1, (5 * 3 * N) // 2]
    )
    def test_each_chain_equals_a_one_chain_run_capped_at_its_rows(self, model, problem, cap):
        cfg = config()
        joint, budget = run_capped(model, problem, cfg, SEEDS, cap)
        assert budget.used == cap
        assert sum(c.n_evaluations for c in joint.chains) == budget.used
        assert joint.n_evaluations == budget.used
        for seed, chain in zip(SEEDS, joint.chains):
            if chain.n_evaluations == 0:
                # Allotted no row: stopped before drawing, nothing to report.
                assert chain.stop_kind == StopKind.EXTERNAL
                assert chain.n_iterations == 0
                continue
            # Its rows are N per step, then what was left: exactly what a
            # one-chain run capped at its total would draw and score.
            alone, alone_budget = run_capped(model, problem, cfg, [seed], chain.n_evaluations)
            seq = alone.chains[0]
            assert alone_budget.used == chain.n_evaluations
            assert chain.stop_kind == seq.stop_kind == StopKind.EXTERNAL
            seq.stop_reason = chain.stop_reason
            assert_chain_equals_sequential(chain, seq)
            assert problem.is_one_to_one(chain.best_assignment)
            assert chain.best_cost == model.evaluate(chain.best_assignment)

    def test_rows_go_to_chains_in_order(self, model, problem):
        # 2.5 joint batches: two full steps, then N, N/2 and 0 rows.
        joint, _ = run_capped(model, problem, config(), SEEDS, (5 * 3 * self.N) // 2)
        assert [c.n_evaluations for c in joint.chains] == [
            3 * self.N, 2 * self.N + self.N // 2, 2 * self.N
        ]
        assert [c.n_iterations for c in joint.chains] == [3, 3, 2]
        assert joint.chains[2].stop_reason == "evaluation budget exhausted before sampling"


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
