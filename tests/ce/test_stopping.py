"""The CE engine's stop rules (Eq. (12), Fig. 2 step 4, budgets).

The rules live inside the engine as per-chain counters, so they are
tested through it. Two kinds of drive:

* a *scripted* objective on a 2×2 problem, whose costs pin the elite set
  and so the matrix: "keep" steps make both permutations elite (the
  matrix stays exactly uniform and ``γ`` stays 0), a "commit" step makes
  one permutation elite (with ζ = 1 the matrix turns degenerate). Every
  rule then fires on a step known in advance;
* real runs with every matrix snapshot recorded, checked against a
  reference reading of the rules written out below.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ce.optimizer import CEConfig, CEResult, CrossEntropyOptimizer
from repro.ce.stopping import StopKind
from repro.exceptions import ConfigurationError
from repro.graphs import generate_paper_pair
from repro.mapping import CostModel, MappingProblem

IDENTITY = np.array([0, 1])


def scripted(commit_at: int | None = None, gamma_of=lambda k: 0.0):
    """Objective over 2-task batches, driven by its call count ``k``.

    Before ``commit_at`` the first row of each permutation costs
    ``γ(k)`` and every other row ``γ(k) + 1``: the two elites are the two
    permutations, so the matrix stays uniform. From ``commit_at`` on only
    identity rows cost ``γ(k)``: the elites are identities and (ζ = 1) the
    matrix degenerates.
    """
    calls = [0]

    def objective(X: np.ndarray) -> np.ndarray:
        calls[0] += 1
        k = calls[0]
        ident = (X == IDENTITY).all(axis=1)
        if commit_at is not None and k >= commit_at:
            assert ident.sum() >= 2
            low = ident
        else:
            assert ident.any() and not ident.all()
            low = np.zeros(len(X), dtype=bool)
            low[np.argmax(ident)] = low[np.argmax(~ident)] = True
        return np.where(low, 0.0, 1.0) + gamma_of(k)

    return objective


def cfg(**overrides) -> CEConfig:
    """Two elites of ten samples, unsmoothed; every rule off unless asked."""
    base = dict(
        n_samples=10,
        rho=0.15,
        zeta=1.0,
        stability_window=0,
        gamma_window=0,
        max_iterations=50,
    )
    base.update(overrides)
    return CEConfig(**base)


def run(objective, config: CEConfig, seed: int = 0) -> CEResult:
    return CrossEntropyOptimizer(objective, 2, 2, config, rng=seed).run()


# -- real runs against a reference reading of the rules ------------------------

SEEDS = (101, 202, 303)
#: One config per rule; each fires its rule on at least one seed.
REAL_CONFIGS = {
    StopKind.BUDGET: dict(max_iterations=5),
    StopKind.ROW_MAXIMA_STABLE: dict(gamma_window=0, stability_window=3, stability_tol=0.05),
    StopKind.GAMMA_STAGNATION: dict(),
    StopKind.DEGENERATE: dict(stability_window=0, gamma_window=0, zeta=1.0),
}


@pytest.fixture(scope="module")
def real() -> tuple[MappingProblem, CostModel]:
    pair = generate_paper_pair(8, 777)
    problem = MappingProblem(pair.tig, pair.resources, require_square=True)
    return problem, CostModel(problem)


def snap(**overrides) -> CEConfig:
    """A real-run config recording the matrix after every iteration."""
    base = dict(n_samples=128, max_iterations=60, track_matrices=True, matrix_snapshot_every=1)
    base.update(overrides)
    return CEConfig(**base)


def real_run(real, config: CEConfig, seed: int) -> CEResult:
    problem, model = real
    return CrossEntropyOptimizer(
        model.evaluate_batch, problem.n_tasks, problem.n_resources, config, rng=seed
    ).run()


def _rowmax_counts(res: CEResult, config: CEConfig) -> list[int]:
    """Eq. (12)'s consecutive-stable count after each iteration."""
    counts, stable, prev = [], 0, None
    for P in res.matrix_history:
        mu = P.max(axis=1)
        close = prev is not None and bool(np.all(np.abs(mu - prev) <= config.stability_tol))
        stable = stable + 1 if close else 0
        counts.append(stable)
        prev = mu
    return counts


def rowmax_resets(res: CEResult, config: CEConfig) -> int:
    counts = _rowmax_counts(res, config)
    return sum(1 for a, b in zip(counts, counts[1:]) if a > 0 and b == 0)


def expected_stop(res: CEResult, config: CEConfig) -> tuple[StopKind, int]:
    """(kind, iteration) at which the rules, read from the run's own
    snapshots and γ history, say the run must stop."""
    rm = _rowmax_counts(res, config)
    g_stable = 0
    for k, P in enumerate(res.matrix_history, start=1):
        if k > 1:
            same = abs(res.gamma_history[k - 1] - res.gamma_history[k - 2]) <= 1e-9
            g_stable = g_stable + 1 if same else 0
        if k >= config.max_iterations:
            return StopKind.BUDGET, k
        if config.stability_window and rm[k - 1] >= config.stability_window:
            return StopKind.ROW_MAXIMA_STABLE, k
        if config.gamma_window and g_stable >= config.gamma_window:
            return StopKind.GAMMA_STAGNATION, k
        if bool(np.all(P.max(axis=1) >= 1.0 - 1e-6)):
            return StopKind.DEGENERATE, k
    raise AssertionError("the run stopped before any rule fired")


#: Configs under which every rule fires on step 4 of a scripted run that
#: commits on step 4; the first of budget > Eq. (12) > γ > degeneracy wins.
PRIORITY = {
    StopKind.BUDGET: dict(
        max_iterations=4, stability_window=3, stability_tol=1.0, gamma_window=3
    ),
    StopKind.ROW_MAXIMA_STABLE: dict(stability_window=3, stability_tol=1.0, gamma_window=3),
    StopKind.GAMMA_STAGNATION: dict(gamma_window=3),
    StopKind.DEGENERATE: dict(),
}
REASONS = {
    StopKind.BUDGET: "iteration budget of 4 exhausted",
    StopKind.ROW_MAXIMA_STABLE: "row maxima stable for 3 iterations (Eq. 12)",
    StopKind.GAMMA_STAGNATION: "elite threshold gamma stagnant for 3 iterations",
    StopKind.DEGENERATE: "stochastic matrix degenerate",
}


class TestFiringPriority:
    @pytest.mark.parametrize("kind", list(PRIORITY), ids=lambda k: k.value)
    def test_first_rule_in_priority_order_names_the_stop(self, kind):
        res = run(scripted(commit_at=4), cfg(**PRIORITY[kind]))
        assert res.n_iterations == 4
        assert res.stop_kind == kind
        assert res.stop_reason == REASONS[kind]


class TestRowMaximaStable:
    def test_fires_after_c_stable_iterations(self):
        # The first step has no history; stability counts from the second.
        res = run(scripted(), cfg(stability_window=3, stability_tol=0.0))
        assert res.n_iterations == 4
        assert res.stop_kind == StopKind.ROW_MAXIMA_STABLE

    def test_counter_resets_on_change(self, real):
        fired = resets = 0
        for seed in SEEDS:
            config = snap(gamma_window=0, stability_window=3, stability_tol=0.05)
            res = real_run(real, config, seed)
            assert (res.stop_kind, res.n_iterations) == expected_stop(res, config)
            fired += res.stop_kind == StopKind.ROW_MAXIMA_STABLE
            resets += rowmax_resets(res, config)
        assert fired and resets  # the runs exercise both a reset and a stop

    def test_tolerance(self, real):
        stops = {}
        for tol in (0.05, 0.01, 1e-6):
            config = snap(gamma_window=0, stability_window=3, stability_tol=tol)
            res = real_run(real, config, SEEDS[0])
            assert (res.stop_kind, res.n_iterations) == expected_stop(res, config)
            stops[tol] = res.n_iterations
        # A looser tolerance can only call the row maxima stable sooner.
        assert stops[0.05] <= stops[0.01] <= stops[1e-6]
        assert stops[0.05] < stops[1e-6]

    def test_reset(self):
        opt = CrossEntropyOptimizer(scripted(), 2, 2, cfg(stability_window=3), rng=0)
        opt.run()
        opt.start()
        members = opt.export_state()["stopping"]["members"]
        assert members[1] == {"prev": None, "stable": 0}
        assert not opt.finished and opt.iteration == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CEConfig(n_samples=10, stability_window=-1)
        with pytest.raises(ConfigurationError):
            CEConfig(n_samples=10, stability_tol=-1)

    def test_reason(self):
        res = run(scripted(), cfg(stability_window=5))
        assert "Eq. 12" in res.stop_reason


class TestGammaStagnation:
    def test_fires_on_constant_gamma(self):
        res = run(scripted(), cfg(gamma_window=3))
        assert res.n_iterations == 4
        assert res.stop_kind == StopKind.GAMMA_STAGNATION
        assert res.gamma_history == [0.0] * 4

    def test_resets_on_progress(self):
        # γ = 5, 5, 4, 4, 4: the drop on step 3 resets the counter.
        res = run(scripted(gamma_of=lambda k: 5.0 if k < 3 else 4.0), cfg(gamma_window=2))
        assert res.gamma_history == [5.0, 5.0, 4.0, 4.0, 4.0]
        assert res.n_iterations == 5
        assert res.stop_kind == StopKind.GAMMA_STAGNATION

    @pytest.mark.parametrize(("wobble", "stops"), [(1e-10, True), (1e-6, False)])
    def test_tolerance(self, wobble, stops):
        res = run(
            scripted(gamma_of=lambda k: 5.0 + wobble * (k % 2)),
            cfg(gamma_window=3, max_iterations=8),
        )
        if stops:
            assert (res.stop_kind, res.n_iterations) == (StopKind.GAMMA_STAGNATION, 4)
        else:
            assert (res.stop_kind, res.n_iterations) == (StopKind.BUDGET, 8)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CEConfig(n_samples=10, gamma_window=-1)


class TestMaxIterations:
    def test_budget(self):
        res = run(scripted(), cfg(max_iterations=3))
        assert (res.stop_kind, res.n_iterations) == (StopKind.BUDGET, 3)
        assert not res.converged

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CEConfig(n_samples=10, max_iterations=0)


class TestDegenerateMatrix:
    def test_fires_only_when_degenerate(self):
        res = run(scripted(commit_at=3), cfg())
        assert (res.stop_kind, res.n_iterations) == (StopKind.DEGENERATE, 3)
        assert res.degeneracy_history == [0.5, 0.5, 1.0]


class TestAnyOf:
    """The rules act as one set: reports, warm counters, reset, never empty."""

    def test_reports_firing_member(self):
        res = run(scripted(), cfg(max_iterations=2, gamma_window=50))
        assert "budget" in res.stop_reason

    def test_all_members_updated_each_round(self):
        opt = CrossEntropyOptimizer(
            scripted(), 2, 2, cfg(stability_window=50, gamma_window=50), rng=0
        )
        opt.start()
        for _ in range(3):
            opt.step()
        members = opt.export_state()["stopping"]["members"]
        assert [m.get("stable") for m in members] == [None, 2, 2, None]

    def test_empty_rejected(self):
        # Every adaptive rule off: the iteration budget still ends the run.
        res = run(scripted(), cfg(max_iterations=7))
        assert (res.stop_kind, res.n_iterations) == (StopKind.BUDGET, 7)

    def test_reset_propagates(self):
        opt = CrossEntropyOptimizer(
            scripted(), 2, 2, cfg(stability_window=3, gamma_window=3), rng=0
        )
        first = opt.run()
        assert first.stop_kind == StopKind.ROW_MAXIMA_STABLE
        opt.start()
        state = opt.export_state()
        assert [m.get("stable") for m in state["stopping"]["members"]] == [None, 0, 0, None]
        assert state["result"]["stop_kind"] == StopKind.NOT_RUN.value


class TestStopKind:
    def test_builtin_criteria_report_their_kind(self, real):
        # A real run per rule, its stop checked against the reference.
        for kind, overrides in REAL_CONFIGS.items():
            config = snap(**overrides)
            kinds = set()
            for seed in SEEDS:
                res = real_run(real, config, seed)
                assert (res.stop_kind, res.n_iterations) == expected_stop(res, config)
                kinds.add(res.stop_kind)
            assert kind in kinds

    def test_anyof_kind_tracks_firing_member(self):
        opt = CrossEntropyOptimizer(scripted(commit_at=4), 2, 2, cfg(gamma_window=3), rng=0)
        opt.start()
        for _ in range(3):
            opt.step()
            assert opt.export_state()["result"]["stop_kind"] == StopKind.NOT_RUN.value
        opt.step()
        state = opt.export_state()
        assert state["finished"]
        assert state["result"]["stop_kind"] == StopKind.GAMMA_STAGNATION.value

    def test_optimizer_budget_stop_is_not_converged(self):
        result = CrossEntropyOptimizer(
            lambda X: X.sum(axis=1).astype(float),
            3,
            3,
            CEConfig(n_samples=20, max_iterations=2, stability_window=50),
            rng=0,
        ).run()
        assert result.stop_kind == StopKind.BUDGET
        assert not result.converged

    def test_optimizer_adaptive_stop_is_converged(self):
        result = CrossEntropyOptimizer(
            lambda X: X.sum(axis=1).astype(float),
            3,
            3,
            CEConfig(n_samples=60, max_iterations=200),
            rng=0,
        ).run()
        assert result.stop_kind in (
            StopKind.ROW_MAXIMA_STABLE,
            StopKind.GAMMA_STAGNATION,
            StopKind.DEGENERATE,
        )
        assert result.converged


class TestCheckpointState:
    def test_restore_rejects_mismatched_stopping_state(self):
        opt = CrossEntropyOptimizer(
            scripted(), 2, 2, cfg(stability_window=50, gamma_window=50), rng=0
        )
        opt.start()
        opt.step()
        state = opt.export_state()
        other = CrossEntropyOptimizer(scripted(), 2, 2, cfg(gamma_window=50), rng=0)
        with pytest.raises(ConfigurationError, match="config mismatch"):
            other.restore_state(state)

    def test_restore_resumes_counters(self):
        config = cfg(stability_window=3, gamma_window=3)
        objective = scripted()
        opt = CrossEntropyOptimizer(objective, 2, 2, config, rng=0)
        opt.start()
        opt.step()
        opt.step()
        resumed = CrossEntropyOptimizer(objective, 2, 2, config)
        resumed.restore_state(opt.export_state())
        res = _finish(resumed)
        assert (res.stop_kind, res.n_iterations) == (StopKind.ROW_MAXIMA_STABLE, 4)


def _finish(opt: CrossEntropyOptimizer) -> CEResult:
    while not opt.finished:
        opt.step()
    return opt.finalize()
