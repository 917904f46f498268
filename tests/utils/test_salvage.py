"""Tests for fault-tolerant dispatch: WorkerPool.map_salvage and friends.

The contract under test: worker deaths, hangs and cell exceptions cost
*cells* (and only after bounded, bit-identical retries), never the sweep;
the dispatcher heals the pool instead of aborting; and everything that
could not be completed is named in the salvage manifest.
"""

from __future__ import annotations

import glob
import os
import sys
import threading
from multiprocessing import shared_memory

import pytest

from repro.exceptions import ConfigurationError
from repro.utils.faults import FAULTS_ENV
from repro.utils.parallel import (
    CellFailure,
    RetryPolicy,
    SalvageReport,
    WorkerPool,
)
from repro.utils.shared_plane import HeartbeatBoard


def square(x: int) -> int:
    return x * x


def worker_pid(_: int) -> int:
    return os.getpid()


def failing_on_7(x: int) -> int:
    if x == 7:
        raise ValueError("cell 7 always fails")
    return x * x


def shm_segments() -> frozenset[str]:
    """The shared-memory segments on this host that the fabric could own."""
    return frozenset(glob.glob("/dev/shm/repro_*") + glob.glob("/dev/shm/psm_*"))


def pid_and_segments(_: int) -> tuple[int, frozenset[str]]:
    return os.getpid(), shm_segments()


#: Fast-retry policy for tests: no multi-second backoff waits.
FAST = RetryPolicy(max_retries=2, backoff_base=0.01)


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_retries == 2
        assert policy.cell_timeout is None
        assert policy.respawn_cap == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"max_retries": 1.5},
            {"max_retries": True},
            {"cell_timeout": 0.0},
            {"cell_timeout": -2.0},
            {"backoff_base": -0.1},
            {"respawn_cap": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "5")
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "12.5")
        policy = RetryPolicy.default()
        assert policy.max_retries == 5
        assert policy.cell_timeout == 12.5

    def test_env_garbage_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "lots")
        with pytest.raises(ConfigurationError):
            RetryPolicy.default()


class TestSerialSalvage:
    def test_all_complete(self):
        with WorkerPool(1) as pool:
            report = pool.map_salvage(square, [1, 2, 3])
        assert isinstance(report, SalvageReport)
        assert report.ok
        assert report.results == [1, 4, 9]
        assert report.completed() == [(0, 1), (1, 4), (2, 9)]

    def test_failure_manifest(self):
        with WorkerPool(1) as pool:
            report = pool.map_salvage(failing_on_7, [6, 7, 8])
        assert not report.ok
        assert report.results == [36, None, 64]
        (failure,) = report.failures
        assert failure == CellFailure(
            index=1,
            kind="exception",
            attempts=1,
            message="ValueError: cell 7 always fails",
        )

    def test_empty_items(self):
        with WorkerPool(1) as pool:
            report = pool.map_salvage(square, [])
        assert report.ok and report.results == []

    def test_closed_pool_raises(self):
        pool = WorkerPool(1)
        pool.close()
        with pytest.raises(Exception, match="closed"):
            pool.map_salvage(square, [1])

    def test_runs_in_caller_without_board_or_segment(self, monkeypatch):
        """The serial pool is a plain loop in the caller: no heartbeat
        board, no dispatcher and no shared-memory segment."""
        import repro.utils.parallel as parallel

        def refuse(*args, **kwargs):
            raise AssertionError("serial dispatch built a board or a dispatcher")

        monkeypatch.setattr(parallel.HeartbeatBoard, "create", refuse)
        monkeypatch.setattr(parallel, "_ResilientDispatch", refuse)
        before = shm_segments()
        with WorkerPool(1) as pool:
            report = pool.map_salvage(pid_and_segments, [0, 1, 2], weight=float)
        assert report.ok, report.failures
        assert [pid for pid, _ in report.results] == [os.getpid()] * 3
        assert all(seen == before for _, seen in report.results)
        assert shm_segments() == before


class TestParallelSalvage:
    def test_matches_serial_results(self):
        with WorkerPool(2) as pool:
            report = pool.map_salvage(square, list(range(6)), policy=FAST)
        assert report.ok
        assert report.results == [x * x for x in range(6)]

    def test_single_item_runs_on_a_worker(self):
        with WorkerPool(2) as pool:
            report = pool.map_salvage(worker_pid, [0], policy=FAST)
        assert report.ok
        assert report.results[0] != os.getpid()

    def test_empty_items(self):
        with WorkerPool(2) as pool:
            report = pool.map_salvage(square, [], policy=FAST)
            assert pool.worker_pids() == []  # nothing to dispatch, no fork
        assert report.ok and report.results == []

    @staticmethod
    def _concurrent_calls(
        pool: WorkerPool, n_calls: int, policy: RetryPolicy = FAST
    ) -> list:
        """One single-cell ``map_salvage`` per thread (the service gateway's
        shape), with a short switch interval to provoke races."""
        reports: list = [None] * n_calls

        def call(k: int) -> None:
            reports[k] = pool.map_salvage(square, [k], policy=policy)

        threads = [threading.Thread(target=call, args=(k,)) for k in range(n_calls)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        return reports

    def test_concurrent_calls_share_one_executor(self, monkeypatch):
        import repro.utils.parallel as parallel

        created: list = []

        class CountingExecutor(parallel.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                created.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", CountingExecutor)
        with WorkerPool(2) as pool:
            reports = self._concurrent_calls(pool, 8)
        assert len(created) == 1
        assert [r.results for r in reports] == [[k * k] for k in range(8)]

    def test_concurrent_calls_heal_a_shared_pool_death(self, monkeypatch):
        """Every first attempt kills its worker, under calls that share the
        executor: each call still gets its exact result. A kill breaks the
        executor under every call's running cell, so one cell can lose an
        attempt to each of the 4 kills; 4 retries cover that."""
        monkeypatch.setenv(FAULTS_ENV, "kill@0")
        policy = RetryPolicy(max_retries=4, backoff_base=0.01)
        with WorkerPool(2) as pool:
            reports = self._concurrent_calls(pool, 4, policy)
        assert all(r.ok for r in reports), [r.failures for r in reports]
        assert [r.results for r in reports] == [[k * k] for k in range(4)]

    def test_weighted_dispatch_keeps_input_order(self):
        with WorkerPool(2) as pool:
            report = pool.map_salvage(
                square, list(range(6)), weight=float, policy=FAST
            )
        assert report.results == [x * x for x in range(6)]

    def test_deterministic_exception_exhausts_retries(self):
        with WorkerPool(2) as pool:
            report = pool.map_salvage(
                failing_on_7, [5, 6, 7, 8], policy=FAST
            )
        (failure,) = report.failures
        assert failure.index == 2
        assert failure.kind == "exception"
        assert failure.attempts == FAST.max_retries + 1
        assert report.n_retries == FAST.max_retries
        assert report.results == [25, 36, None, 64]


class TestInjectedFaults:
    def test_killed_cell_is_retried_bit_identical(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "kill@3")
        with WorkerPool(2) as pool:
            report = pool.map_salvage(square, list(range(6)), policy=FAST)
        assert report.ok, report.failures
        assert report.results == [x * x for x in range(6)]
        assert report.n_respawns >= 1
        assert report.n_retries >= 1

    def test_raise_fault_is_retried_clean(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "raise@1*1")
        with WorkerPool(2) as pool:
            report = pool.map_salvage(square, list(range(4)), policy=FAST)
        assert report.ok, report.failures
        assert report.results == [0, 1, 4, 9]
        assert report.n_retries >= 1

    def test_persistent_kill_exhausts_as_worker_death(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "kill@0*99")
        with WorkerPool(2) as pool:
            report = pool.map_salvage(
                square,
                list(range(4)),
                policy=RetryPolicy(max_retries=1, backoff_base=0.01),
            )
        failure = next(f for f in report.failures if f.index == 0)
        assert failure.kind == "worker-death"
        assert failure.attempts == 2
        # every other cell was salvaged
        assert report.results[1:] == [1, 4, 9]

    def test_hung_cell_trips_deadline_and_retries(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "hang@1*1")
        with WorkerPool(2) as pool:
            report = pool.map_salvage(
                square,
                list(range(4)),
                policy=RetryPolicy(
                    max_retries=2, cell_timeout=1.0, backoff_base=0.01
                ),
            )
        assert report.ok, report.failures
        assert report.results == [0, 1, 4, 9]

    def test_permanent_hang_recorded_as_timeout(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "hang@1*99")
        with WorkerPool(2) as pool:
            report = pool.map_salvage(
                square,
                list(range(3)),
                policy=RetryPolicy(
                    max_retries=1, cell_timeout=0.5, backoff_base=0.01
                ),
            )
        failure = next(f for f in report.failures if f.index == 1)
        assert failure.kind == "timeout"
        assert "deadline" in failure.message
        assert report.results[0] == 0 and report.results[2] == 4

    def test_degradation_ladder_reaches_serial_tail(self, monkeypatch):
        """Persistent worker deaths halve the pool, then finish in-process.

        The serial tail runs in the parent, where the harness never fires,
        so even a kill-every-attempt plan ends with complete results.
        """
        monkeypatch.setenv(FAULTS_ENV, "kill@0*99")
        with WorkerPool(2) as pool:
            report = pool.map_salvage(
                square,
                list(range(4)),
                policy=RetryPolicy(
                    max_retries=99, respawn_cap=2, backoff_base=0.01
                ),
            )
        assert report.degraded_to_serial
        assert report.ok, report.failures
        assert report.results == [0, 1, 4, 9]
        assert report.n_respawns >= 3


class TestHeartbeatBoard:
    def test_mark_and_read_round_trip(self):
        board = HeartbeatBoard.create(4)
        try:
            assert board.started_at(2, 0) == 0.0
            board.mark(2, 0)
            assert board.started_at(2, 0) > 0.0
            assert board.pid(2) > 0
        finally:
            board.close()

    def test_stale_attempt_reads_as_unstarted(self):
        board = HeartbeatBoard.create(2)
        try:
            board.mark(0, 0)
            assert board.started_at(0, 0) > 0.0
            # the parent asks about attempt 1: the attempt-0 stamp is stale
            assert board.started_at(0, 1) == 0.0
        finally:
            board.close()

    def test_attach_sees_owner_writes(self):
        owner = HeartbeatBoard.create(3)
        try:
            reader = HeartbeatBoard.attach(owner.name, 3)
            owner.mark(1, 0)
            assert reader.started_at(1, 0) > 0.0
            reader.close()
        finally:
            owner.close()

    def test_close_unlinks_segment(self):
        board = HeartbeatBoard.create(2)
        name = board.name
        board.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name) 

    def test_close_is_idempotent(self):
        board = HeartbeatBoard.create(2)
        board.close()
        board.close()


def test_owner_self_attach_keeps_tracker_entry(monkeypatch):
    """Attaching a segment this process *owns* must not unregister it.

    The serial tail of a degraded dispatch makes the owner re-attach its
    own plane segments by name; stripping the tracker entry there would
    make the final ``unlink`` double-unregister (tracker KeyError noise).
    """
    from multiprocessing import resource_tracker

    unregistered: list[str] = []
    real_unregister = resource_tracker.unregister

    def recording_unregister(name, rtype):
        unregistered.append(name)
        real_unregister(name, rtype)

    monkeypatch.setattr(resource_tracker, "unregister", recording_unregister)
    board = HeartbeatBoard.create(2)
    try:
        peer = HeartbeatBoard.attach(board.name, 2)
        peer.close()
        assert not any(board.name in n for n in unregistered)
    finally:
        board.close()


def test_no_segment_leak_after_faulted_dispatch(monkeypatch):
    """A kill mid-dispatch must not leak the heartbeat segment."""
    created: list[str] = []
    original_create = HeartbeatBoard.create.__func__

    def recording_create(cls, n_cells):
        board = original_create(cls, n_cells)
        created.append(board.name)
        return board

    monkeypatch.setattr(
        HeartbeatBoard, "create", classmethod(recording_create)
    )
    monkeypatch.setenv(FAULTS_ENV, "kill@2")
    with WorkerPool(2) as pool:
        report = pool.map_salvage(square, list(range(5)), policy=FAST)
        assert report.ok
    assert created, "dispatch should have allocated a heartbeat board"
    for name in created:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name) 


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_worker_fds_stay_bounded_across_dispatches():
    """Every dispatch creates its own heartbeat board; a worker keeps only
    the last one it stamped, so its open fds do not grow per dispatch."""

    def open_fds(pool: WorkerPool) -> dict[int, int]:
        return {pid: len(os.listdir(f"/proc/{pid}/fd")) for pid in pool.worker_pids()}

    with WorkerPool(2) as pool:
        pool.map_salvage(square, [1, 2], policy=FAST)
        before = open_fds(pool)
        for i in range(200):
            pool.map_salvage(square, [i, i + 1], policy=FAST)
        after = open_fds(pool)
    assert before and set(after) == set(before)
    for pid, count in before.items():
        assert after[pid] <= count + 2, (pid, count, after[pid])
