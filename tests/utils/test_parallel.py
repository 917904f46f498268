"""Map semantics of :meth:`WorkerPool.map`: ordering, serial fallback, errors."""

from __future__ import annotations

import os

import pytest

from repro.exceptions import ValidationError
from repro.utils.parallel import WorkerPool, default_worker_count


def square(x: int) -> int:
    return x * x


def failing(x: int) -> int:
    if x == 3:
        raise RuntimeError("boom")
    return x


def pool_map(fn, items, n_workers=None, **kwargs):
    with WorkerPool(n_workers) as pool:
        return pool.map(fn, items, **kwargs)


class TestParallelMap:
    def test_serial_path(self):
        assert pool_map(square, range(6), n_workers=1) == [0, 1, 4, 9, 16, 25]

    def test_serial_accepts_lambdas(self):
        # the serial path has no pickling requirement
        with WorkerPool(1) as pool:
            assert pool.map(lambda x: x + 1, [1, 2]) == [2, 3]  # repro: noqa[parallel-safety] -- n_workers=1 never forks, so no pickling

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

    def test_single_item_stays_serial(self):
        assert pool_map(square, [5], n_workers=4) == [25]

    def test_exception_propagates_serial(self):
        with pytest.raises(RuntimeError, match="boom"):
            pool_map(failing, [1, 2, 3], n_workers=1)

    def test_exception_propagates_parallel(self):
        with pytest.raises(RuntimeError, match="boom"):
            pool_map(failing, [1, 2, 3, 4], n_workers=2)

    def test_chunksize_validation(self):
        with pytest.raises(ValidationError):
            pool_map(square, [1], chunksize=0)

    def test_default_worker_count_positive(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert default_worker_count() >= 1
        assert default_worker_count() <= max(1, (os.cpu_count() or 1))
