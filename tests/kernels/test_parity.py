"""Cross-backend bit-parity matrix.

Every available backend (numpy always; cext when a C compiler exists)
must produce *bit-identical* floats to the numpy reference on every
kernel — scoring, GenPerm sampling, and the O(deg) probes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.ce.genperm import sample_permutations, sample_permutations_stacked
from repro.kernels import build_pack, impl_numpy
from repro.mapping import CostModel
from repro.mapping.incremental import IncrementalEvaluator

from tests.kernels.conftest import AVAILABLE, make_problem, random_batch

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def genperm_inputs(n_tasks, n_res, n_samples, seed, *, degenerate=False):
    gen = np.random.default_rng(seed)
    if degenerate:
        # One-hot rows all preferring resource 0: exercises the dead-mass
        # uniform-over-unused fallback on nearly every draw.
        P = np.zeros((n_tasks, n_res))
        P[:, 0] = 1.0
    else:
        P = gen.random((n_tasks, n_res))
    task_orders = np.argsort(gen.random((n_samples, n_tasks)), axis=1)
    rand_pos = gen.random((n_tasks, n_samples))
    return np.ascontiguousarray(P), task_orders, rand_pos


class TestScoringParity:
    @pytest.mark.parametrize("n,seed,rows", [(6, 0, 17), (12, 777, 64), (20, 3, 33)])
    def test_times_batch_bit_identical(self, backend, n, seed, rows):
        problem = make_problem(n, seed)
        pack = build_pack(problem)
        X = random_batch(problem, rows, seed + 1)
        assert np.array_equal(
            backend.times_batch(pack, X), impl_numpy.times_batch(pack, X)
        )

    def test_eval_batch_bit_identical(self, backend):
        problem = make_problem(12, 777)
        pack = build_pack(problem)
        X = random_batch(problem, 50, 9)
        assert np.array_equal(
            backend.eval_batch(pack, X), impl_numpy.eval_batch(pack, X)
        )

    def test_cost_model_dispatches_backend(self, backend):
        problem = make_problem(12, 777)
        model = CostModel(problem)
        assert model.kernel_name == backend.name
        X = random_batch(problem, 30, 4)
        with kernels.use_backend("numpy"):
            expected = CostModel(problem).evaluate_batch(X)
        assert np.array_equal(model.evaluate_batch(X), expected)


class TestGenPermParity:
    @pytest.mark.parametrize("degenerate", [False, True])
    @pytest.mark.parametrize("n,seed", [(3, 0), (6, 5), (12, 11)])
    def test_single_matrix(self, backend, n, seed, degenerate):
        P, orders, pos = genperm_inputs(n, n, 25, seed, degenerate=degenerate)
        got = backend.genperm(P, None, orders, pos, n)
        ref = impl_numpy.genperm(P, None, orders, pos, n)
        assert np.array_equal(got, ref)
        # valid one-to-one mappings
        assert all(len(set(row)) == n for row in got.tolist())

    def test_rectangular(self, backend):
        P, orders, pos = genperm_inputs(5, 8, 20, 2)
        got = backend.genperm(P, None, orders, pos, 8)
        assert np.array_equal(got, impl_numpy.genperm(P, None, orders, pos, 8))

    def test_stacked_offsets(self, backend):
        R, n, N = 3, 6, 15
        gen = np.random.default_rng(42)
        P_stack = gen.random((R, n, n))
        rand_orders = gen.random((R, N, n))
        rand_pos = gen.random((R, n, N))
        got = sample_permutations_stacked(P_stack, rand_orders, rand_pos)
        with kernels.use_backend("numpy"):
            ref = sample_permutations_stacked(P_stack, rand_orders, rand_pos)
        assert np.array_equal(got, ref)

    def test_sampler_rng_stream_backend_invariant(self, backend):
        # Same seed, different backend: identical batch — the uniforms are
        # drawn outside the kernel, so the stream position cannot diverge.
        P = np.random.default_rng(7).random((10, 10))
        got = sample_permutations(P, 40, rng=123)
        with kernels.use_backend("numpy"):
            ref = sample_permutations(P, 40, rng=123)
        assert np.array_equal(got, ref)


class TestProbeParity:
    def _setup(self, n=12, seed=777):
        problem = make_problem(n, seed)
        model = CostModel(problem)
        gen = np.random.default_rng(seed)
        x = gen.permutation(n).astype(np.int64)
        return problem, model, x

    def test_move_cost_matches_full_eval(self, backend):
        problem, model, x = self._setup()
        pack = model.pack
        exec_s = model.per_resource_times(x).astype(np.float64)
        for task in range(problem.n_tasks):
            for dest in range(problem.n_resources):
                probe = backend.move_cost(pack, exec_s, x, task, dest)
                y = x.copy()
                y[task] = dest
                ref = impl_numpy.move_cost(pack, exec_s, x, task, dest)
                assert probe == ref
                np.testing.assert_allclose(
                    probe, float(model.per_resource_times(y).max()), rtol=1e-9
                )

    def test_swap_costs_batch_matches_scalar(self, backend):
        problem, model, x = self._setup()
        inc = IncrementalEvaluator(model, x)
        n = problem.n_tasks
        pairs = np.array(
            [(a, b) for a in range(n) for b in range(n) if a != b], dtype=np.int64
        )
        batch = inc.swap_costs(pairs)
        for p, (t1, t2) in enumerate(pairs.tolist()):
            assert batch[p] == inc.swap_cost(t1, t2)

    def test_probes_bit_identical_to_numpy(self, backend):
        problem, model, x = self._setup(n=9, seed=31)
        inc = IncrementalEvaluator(model, x)
        with kernels.use_backend("numpy"):
            ref = IncrementalEvaluator(CostModel(problem), x)
        for t1 in range(problem.n_tasks):
            for t2 in range(problem.n_tasks):
                assert inc.swap_cost(t1, t2) == ref.swap_cost(t1, t2)


@pytest.mark.parametrize("name", AVAILABLE)
def test_incremental_property_under_backend(name):
    """Mixed move/swap sequences keep exec_s on Eq. (1) under every backend."""
    with kernels.use_backend(name):
        problem = make_problem(10, 19, square=False)
        model = CostModel(problem)
        rng = np.random.default_rng(19)
        inc = IncrementalEvaluator(model, rng.integers(0, 10, size=10))
        for _ in range(80):
            if rng.random() < 0.5:
                inc.apply_swap(int(rng.integers(0, 10)), int(rng.integers(0, 10)))
            else:
                inc.apply_move(int(rng.integers(0, 10)), int(rng.integers(0, 10)))
            probe = inc.swap_cost(0, 1)
            assert probe == inc.swap_cost(0, 1)  # probes are pure
        np.testing.assert_allclose(
            inc.per_resource_times,
            model.per_resource_times(inc.assignment),
            rtol=1e-9,
            atol=1e-9,
        )
