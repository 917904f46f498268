"""Cross-backend bit-parity matrix.

Every available backend (numpy always; cext when a C compiler exists)
must produce *bit-identical* floats to the numpy reference on every
kernel — scoring and GenPerm sampling.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import kernels
from repro.ce.genperm import sample_permutations, sample_permutations_stacked
from repro.kernels import build_pack, impl_cext, impl_numpy
from repro.mapping import CostModel
from repro.utils.parallel import WorkerPool

from tests.kernels.conftest import AVAILABLE, COMPILED, make_problem, random_batch

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def genperm_inputs(n_tasks, n_res, n_samples, seed, *, degenerate=False, R=1):
    """A ``(R, n_tasks, n_res)`` stack and its order and roulette uniforms."""
    gen = np.random.default_rng(seed)
    if degenerate:
        # One-hot rows all preferring resource 0: exercises the dead-mass
        # uniform-over-unused fallback on nearly every draw.
        P = np.zeros((R, n_tasks, n_res))
        P[:, :, 0] = 1.0
    else:
        P = gen.random((R, n_tasks, n_res))
    rand_orders = gen.random((R, n_samples, n_tasks))
    rand_pos = gen.random((R, n_tasks, n_samples))
    return P, rand_orders, rand_pos


def stable_ranks(rand_orders):
    """Tie-free uniforms whose argsort is ``argsort(kind="stable")`` of
    ``rand_orders``: each entry's rank in the stable order, scaled into
    [0, 1)."""
    order = np.argsort(rand_orders, axis=-1, kind="stable")
    ranks = np.argsort(order, axis=-1, kind="stable")
    return (ranks + 0.5) / rand_orders.shape[-1]


def assert_one_to_one(X, n_res):
    rows = X.reshape(-1, X.shape[-1])
    assert rows.min() >= 0 and rows.max() < n_res
    assert all(len(set(row)) == len(row) for row in rows.tolist())


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
        got = backend.genperm(P, orders, pos)
        ref = impl_numpy.genperm(P, orders, pos)
        assert np.array_equal(got, ref)
        assert_one_to_one(got, n)

    def test_rectangular(self, backend):
        P, orders, pos = genperm_inputs(5, 8, 20, 2)
        got = backend.genperm(P, orders, pos)
        assert np.array_equal(got, impl_numpy.genperm(P, orders, pos))

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


class TestGenPermTieRule:
    """A sample's visit order is the stable argsort of its order uniforms:
    equal uniforms keep index order on every backend. numpy's default
    (unstable) argsort may order ties by the host's SIMD path, so the
    rule is pinned here, not left to the generator's luck."""

    @staticmethod
    def tied_orders(R, N, n, seed):
        gen = np.random.default_rng(seed)
        u = np.floor(gen.random((R, N, n)) * 3) / 3  # three values per row
        u[:, 0] = 0.25  # a whole row of equal values
        specials = np.array([np.inf, -np.inf, 2.0, -1.0, 1e300, -0.0, 0.0, 1.0])
        hit = gen.random((R, N, n)) < 0.2
        u[hit] = gen.choice(specials, size=int(hit.sum()))
        return u

    @pytest.mark.parametrize("R,N,n,n_res", [(1, 40, 9, 9), (3, 7, 6, 8), (2, 60, 50, 50)])
    def test_ties_follow_stable_argsort(self, backend, R, N, n, n_res):
        P, _, pos = genperm_inputs(n, n_res, N, n, R=R)
        orders = self.tied_orders(R, N, n, n)
        got = backend.genperm(P, orders, pos)
        assert np.array_equal(got, impl_numpy.genperm(P, orders, pos))
        # ... and the order both used is argsort(kind="stable").
        assert np.array_equal(got, impl_numpy.genperm(P, stable_ranks(orders), pos))
        assert_one_to_one(got, n_res)

    def test_nan_orders_still_one_to_one(self, backend):
        # NaN carries no parity claim: only a valid mapping per row.
        P, orders, pos = genperm_inputs(12, 12, 50, 4, R=2)
        orders[:, ::3, ::2] = np.nan
        orders[1, 1] = np.nan
        assert_one_to_one(backend.genperm(P, orders, pos), 12)


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
        got = cext.genperm(P, orders, pos)
        assert np.array_equal(got, impl_numpy.genperm(P, orders, pos))

    @pytest.mark.parametrize("B", [1, 5, 23])
    def test_genperm_rectangular(self, cext, threads, B):
        P, orders, pos = genperm_inputs(5, 8, B, 3)
        got = cext.genperm(P, orders, pos)
        assert np.array_equal(got, impl_numpy.genperm(P, orders, pos))

    @pytest.mark.parametrize("B", [1, 2, 5, 23])
    def test_genperm_stacked(self, cext, threads, B):
        # R·B rows over 3 chains of B samples: at 2, 3 and 7 threads the
        # ranges cut chains in the middle (B = 5 at 2 threads: rows
        # [0, 7) and [7, 15)), and B = 1 gives one row per chain.
        P, orders, pos = genperm_inputs(6, 6, B, B, R=3)
        P[1] = 0.0  # chain 1 is all dead rows
        got = cext.genperm(P, orders, pos)
        assert np.array_equal(got, impl_numpy.genperm(P, orders, pos))

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
        X = cext.genperm(P, orders, pos)
        cext.eval_batch(pack, X[0])
        assert _task_count() == before

    def test_thread_count_follows_work(self):
        assert impl_cext._n_threads(0) == 1
        assert impl_cext._n_threads(2 * impl_cext.MIN_WORK_PER_THREAD - 1) == 1
        assert impl_cext._n_threads(10**12) == impl_cext._thread_budget


def test_pool_workers_run_kernels_single_threaded():
    # The pool already spreads cells across the cores.
    with WorkerPool(2) as pool:
        assert pool.map_salvage(_kernel_thread_budget, range(4)).results == [1, 1, 1, 1]
