"""Tests for the persistent execution fabric (:class:`WorkerPool`).

Covers the pool's guarantees: the ``REPRO_WORKERS`` override, warm-pool
reuse across many ``map_salvage`` calls, LPT scheduling returning
input-order results, closed-pool discipline, and a pool that stays usable
and closeable after a raising cell or a dead worker.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.exceptions import ConfigurationError, WorkerPoolError
from repro.utils.parallel import RetryPolicy, WorkerPool, default_worker_count


def square(x: int) -> int:
    return x * x


def get_pid(x: int) -> int:
    return os.getpid()


def failing(x: int) -> int:
    if x == 3:
        raise RuntimeError("boom")
    return x


def kill_self(x: int) -> int:
    if x == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return x


#: Fast-retry policy for tests: no multi-second backoff waits.
FAST = RetryPolicy(max_retries=2, backoff_base=0.01)


def results(pool: WorkerPool, fn, items, **kwargs) -> list:
    """``map_salvage`` results, asserting every cell completed."""
    report = pool.map_salvage(fn, items, policy=FAST, **kwargs)
    assert report.ok, report.failures
    return report.results


class TestDefaultWorkerCount:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_worker_count() == 3

    def test_env_override_strips_whitespace(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", " 2 ")
        assert default_worker_count() == 2

    def test_env_override_non_integer(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ConfigurationError, match="positive integer"):
            default_worker_count()

    def test_env_override_below_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ConfigurationError, match=">= 1"):
            default_worker_count()

    def test_pool_picks_up_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        pool = WorkerPool()
        try:
            assert pool.n_workers == 2
        finally:
            pool.close()


class TestWorkerPoolSerial:
    def test_serial_map_in_process(self):
        with WorkerPool(1) as pool:
            assert not pool.is_parallel
            assert results(pool, square, range(5)) == [0, 1, 4, 9, 16]
            assert results(pool, get_pid, [0, 1]) == [os.getpid()] * 2
            assert pool.worker_pids() == []

    def test_serial_publish_is_passthrough(self):
        sentinel = object()
        with WorkerPool(1) as pool:
            assert pool.publish_problem(sentinel) is sentinel

    def test_serial_weight_does_not_reorder_results(self):
        with WorkerPool(1) as pool:
            out = results(pool, square, range(6), weight=lambda x: -x)  # repro: noqa[parallel-safety] -- serial pool never forks
        assert out == [x * x for x in range(6)]


class TestWorkerPoolWarm:
    def test_many_map_calls_reuse_workers(self):
        # Four dispatches over a 2-worker pool must be served by at most
        # two distinct processes total — a cold pool per call would keep
        # minting fresh pids. (Workers spawn lazily, so we assert on the
        # union rather than call-to-call equality.)
        seen: set[int] = set()
        with WorkerPool(2) as pool:
            for _ in range(4):
                seen |= set(results(pool, get_pid, range(4)))
            pids = set(pool.worker_pids())
            third = set(results(pool, square, range(4)))
        assert seen and len(seen) <= 2
        assert seen <= pids
        assert os.getpid() not in seen
        assert third == {0, 1, 4, 9}

    def test_lpt_results_in_input_order(self):
        items = list(range(16))
        with WorkerPool(2) as pool:
            fifo = results(pool, square, items)
            lpt = results(pool, square, items, weight=float)
            lpt_rev = results(pool, square, items, weight=lambda x: -float(x))  # repro: noqa[parallel-safety] -- weight runs in the parent, never pickled
        assert fifo == lpt == lpt_rev == [x * x for x in items]

    def test_exception_propagates_and_pool_survives(self):
        """A raising cell's exception reaches the caller as a manifest entry,
        and the pool stays usable for the next dispatch."""
        with WorkerPool(2) as pool:
            for weight in (None, float):
                report = pool.map_salvage(
                    failing, [1, 2, 3, 4], weight=weight, policy=FAST
                )
                (failure,) = report.failures
                assert failure.index == 2 and failure.kind == "exception"
                assert "RuntimeError: boom" in failure.message
                assert report.results == [1, 2, None, 4]
            assert results(pool, square, range(4)) == [0, 1, 4, 9]

    def test_repr_states(self):
        pool = WorkerPool(2)
        assert "cold" in repr(pool)
        results(pool, square, range(3))
        assert "warm" in repr(pool)
        pool.close()
        assert "closed" in repr(pool)


class TestWorkerPoolClosed:
    def test_map_on_closed_pool(self):
        pool = WorkerPool(2)
        pool.close()
        with pytest.raises(WorkerPoolError, match="closed"):
            pool.map_salvage(square, [1, 2])

    def test_publish_on_closed_pool(self):
        pool = WorkerPool(2)
        pool.close()
        with pytest.raises(WorkerPoolError, match="closed"):
            pool.publish_problem(object())

    def test_close_is_idempotent(self):
        pool = WorkerPool(2)
        results(pool, square, range(3))
        pool.close()
        pool.close()
        assert pool.closed


class TestKillThePool:
    def test_pool_closes_cleanly_after_worker_death(self):
        """A cell that kills its worker every attempt is a ``worker-death``
        failure, never a hang, and the pool still closes."""
        pool = WorkerPool(2)
        report = pool.map_salvage(kill_self, range(8), policy=FAST)
        assert any(f.index == 2 and f.kind == "worker-death" for f in report.failures)
        pool.close()
        assert pool.closed
