"""Cross-backend bit-parity matrix.

Every available backend (numpy always; cext when a C compiler exists)
must produce *bit-identical* floats to the numpy reference on every
kernel — scoring, GenPerm sampling, and the O(deg) probes.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import kernels
from repro.ce.genperm import sample_permutations, sample_permutations_stacked
from repro.kernels import build_pack, impl_cext, impl_numpy
from repro.mapping import CostModel
from repro.mapping.incremental import IncrementalEvaluator
from repro.utils.parallel import WorkerPool

from tests.kernels.conftest import AVAILABLE, COMPILED, make_problem, random_batch

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
    def test_eval_batch_bit_identical(self, backend):
        # (n, problem seed, rows, batch seed)
        cases = [(12, 777, 50, 9), (6, 0, 17, 1), (12, 777, 64, 778), (20, 3, 33, 4)]
        for n, seed, rows, batch_seed in cases:
            problem = make_problem(n, seed)
            pack = build_pack(problem)
            X = random_batch(problem, rows, batch_seed)
            assert np.array_equal(
                backend.eval_batch(pack, X), impl_numpy.eval_batch(pack, X)
            ), (n, seed, rows)

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


def _task_count() -> int:
    return len(os.listdir("/proc/self/task"))


def _kernel_thread_budget(_: int) -> int:
    return impl_cext._thread_budget


@pytest.mark.skipif("cext" not in COMPILED, reason="needs a C compiler")
class TestThreadSplit:
    """The compiled batch kernels cut a batch into row ranges, one thread
    each; every output row depends on its own inputs only, so any split is
    bit-identical to the numpy reference."""

    @pytest.fixture
    def cext(self):
        with kernels.use_backend("cext") as b:
            yield b

    @pytest.fixture(params=[1, 2, 3, 7])
    def threads(self, request, monkeypatch):
        monkeypatch.setattr(impl_cext, "_n_threads", lambda work: request.param)
        return request.param

    @pytest.mark.parametrize("degenerate", [False, True])
    @pytest.mark.parametrize("B", [1, 2, 5, 23])
    def test_genperm_single(self, cext, threads, B, degenerate):
        P, orders, pos = genperm_inputs(9, 9, B, B, degenerate=degenerate)
        got = cext.genperm(P, None, orders, pos, 9)
        assert np.array_equal(got, impl_numpy.genperm(P, None, orders, pos, 9))

    @pytest.mark.parametrize("B", [1, 5, 23])
    def test_genperm_rectangular(self, cext, threads, B):
        P, orders, pos = genperm_inputs(5, 8, B, 3)
        got = cext.genperm(P, None, orders, pos, 8)
        assert np.array_equal(got, impl_numpy.genperm(P, None, orders, pos, 8))

    @pytest.mark.parametrize("B", [2, 5, 23])
    def test_genperm_stacked(self, cext, threads, B):
        R, n = 3, 6
        gen = np.random.default_rng(B)
        P_rows = gen.random((R * n, n))
        P_rows[n:2 * n] = 0.0  # chain 1 is all dead rows
        offsets = gen.integers(0, R, size=B) * n
        orders = np.argsort(gen.random((B, n)), axis=1)
        pos = gen.random((n, B))
        got = cext.genperm(P_rows, offsets, orders, pos, n)
        assert np.array_equal(got, impl_numpy.genperm(P_rows, offsets, orders, pos, n))

    @pytest.mark.parametrize("B", [1, 2, 5, 23])
    def test_scoring(self, cext, threads, B):
        problem = make_problem(12, 777)
        pack = build_pack(problem)
        X = random_batch(problem, B, B)
        assert np.array_equal(cext.eval_batch(pack, X), impl_numpy.eval_batch(pack, X))

    def test_no_thread_outlives_a_call(self, cext, monkeypatch):
        monkeypatch.setattr(impl_cext, "_n_threads", lambda work: 7)
        P, orders, pos = genperm_inputs(12, 12, 400, 1)
        pack = build_pack(make_problem(12, 777))
        before = _task_count()
        X = cext.genperm(P, None, orders, pos, 12)
        cext.eval_batch(pack, X)
        assert _task_count() == before

    def test_thread_count_follows_work(self):
        assert impl_cext._n_threads(0) == 1
        assert impl_cext._n_threads(2 * impl_cext.MIN_WORK_PER_THREAD - 1) == 1
        assert impl_cext._n_threads(10**12) == impl_cext._thread_budget


def test_pool_workers_run_kernels_single_threaded():
    # The pool already spreads cells across the cores.
    with WorkerPool(2) as pool:
        assert pool.map_salvage(_kernel_thread_budget, range(4)).results == [1, 1, 1, 1]
