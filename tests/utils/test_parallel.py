"""Map semantics of :meth:`WorkerPool.map_salvage`: ordering, serial path,
and a raising cell's exception reaching the caller through the report."""

from __future__ import annotations

import os

from repro.utils.parallel import RetryPolicy, WorkerPool, default_worker_count


def square(x: int) -> int:
    return x * x


def failing(x: int) -> int:
    if x == 3:
        raise RuntimeError("boom")
    return x


def pool_map(fn, items, n_workers=None, **kwargs):
    with WorkerPool(n_workers) as pool:
        report = pool.map_salvage(fn, items, **kwargs)
    assert report.ok, report.failures
    return report.results


class TestParallelMap:
    def test_serial_path(self):
        assert pool_map(square, range(6), n_workers=1) == [0, 1, 4, 9, 16, 25]

    def test_serial_accepts_lambdas(self):
        # the serial path has no pickling requirement
        with WorkerPool(1) as pool:
            report = pool.map_salvage(lambda x: x + 1, [1, 2])  # repro: noqa[parallel-safety] -- n_workers=1 never forks, so no pickling
        assert report.results == [2, 3]

    def test_parallel_path_ordered(self):
        result = pool_map(square, range(8), n_workers=2)
        assert result == [x * x for x in range(8)]

    def test_parallel_equals_serial(self):
        items = list(range(12))
        assert pool_map(square, items, n_workers=2) == pool_map(
            square, items, n_workers=1
        )

    def test_empty_items(self):
        assert pool_map(square, [], n_workers=2) == []

    def test_exception_propagates_serial(self):
        # In-process, one attempt: retrying a pure cell cannot change it.
        with WorkerPool(1) as pool:
            report = pool.map_salvage(failing, [1, 2, 3])
        (failure,) = report.failures
        assert (failure.index, failure.kind, failure.attempts) == (2, "exception", 1)
        assert failure.message == "RuntimeError: boom"
        assert report.results == [1, 2, None]

    def test_exception_propagates_parallel(self):
        policy = RetryPolicy(max_retries=1, backoff_base=0.01)
        with WorkerPool(2) as pool:
            report = pool.map_salvage(failing, [1, 2, 3, 4], policy=policy)
        (failure,) = report.failures
        assert (failure.index, failure.kind, failure.attempts) == (2, "exception", 2)
        assert failure.message == "RuntimeError: boom"
        assert report.results == [1, 2, None, 4]

    def test_default_worker_count_positive(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert default_worker_count() >= 1
        assert default_worker_count() <= max(1, (os.cpu_count() or 1))
