"""Tests for the fabric's shared-memory segments.

Round-trip fidelity of :class:`ProblemPlane` (published arrays == attached
arrays, bit for bit) and the lifecycle guarantees the module docstring
promises: no segment survives a normal close, an exception unwind, a dead
worker pool or the owning process's exit; pool workers attach the
heartbeat board without tracker noise; and the heartbeat's clock domain.
"""

from __future__ import annotations

import os
import subprocess
import sys
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.exceptions import ValidationError, WorkerPoolError
from repro.experiments.suite import build_suite
from repro.mapping.cost_model import CostModel
from repro.mapping.problem import MappingProblem
from repro.utils import shared_plane
from repro.utils.faults import FAULTS_ENV
from repro.utils.parallel import RetryPolicy, WorkerPool
from repro.utils.shared_plane import ProblemPlane, SharedProblemHandle


def make_problem(size: int = 8, seed: int = 11):
    return build_suite((size,), 1, seed=seed)[size][0].problem


def segment_exists(shm_name: str) -> bool:
    """True iff a shared-memory segment with this OS name still exists."""
    try:
        shm = shared_memory.SharedMemory(name=shm_name)
    except FileNotFoundError:
        return False
    shm.close()
    return True


def attach_problem(handle: SharedProblemHandle):
    """Rebuild the problem behind ``handle`` from its segment.

    Returns the attachment with the problem; the caller closes it once the
    problem's zero-copy views are no longer used.
    """
    shm = shared_plane._attach_segment(handle.shm_name)
    arrays = {
        name: np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=offset)
        for name, dtype, shape, offset in handle.fields
    }
    problem = MappingProblem.from_plane_arrays(
        arrays, tig_name=handle.tig_name, res_name=handle.res_name
    )
    return shm, problem


def board_name(_: object) -> str:
    """Worker: the name of the heartbeat board this cell was stamped on."""
    return shared_plane._HB_ATTACHED.name


class TestRoundTrip:
    def test_publish_then_resolve_is_bit_identical(self):
        problem = make_problem()
        with ProblemPlane() as plane:
            shm, rebuilt = attach_problem(plane.publish(problem))
            for name, arr in problem.plane_arrays().items():
                np.testing.assert_array_equal(
                    arr, rebuilt.plane_arrays()[name], err_msg=name
                )
            assert rebuilt.tig.name == problem.tig.name
            assert rebuilt.resources.name == problem.resources.name
            del rebuilt
            shm.close()

    def test_cost_model_identical_on_rebuilt_problem(self):
        problem = make_problem()
        assignment = np.arange(problem.n_tasks, dtype=np.int64)
        with ProblemPlane() as plane:
            shm, rebuilt = attach_problem(plane.publish(problem))
            assert CostModel(problem).evaluate(assignment) == CostModel(
                rebuilt
            ).evaluate(assignment)
            del rebuilt
            shm.close()

    def test_publish_is_idempotent_per_problem(self):
        problem = make_problem()
        with ProblemPlane() as plane:
            h1 = plane.publish(problem)
            h2 = plane.publish(problem)
            assert h1 is h2
            assert plane.n_published == 1

    def test_distinct_problems_get_distinct_segments(self):
        with ProblemPlane() as plane:
            h1 = plane.publish(make_problem(seed=1))
            h2 = plane.publish(make_problem(seed=2))
            assert h1.key != h2.key
            assert plane.n_published == 2

    def test_handle_is_small_on_the_wire(self):
        import pickle

        problem = make_problem(size=10)
        with ProblemPlane() as plane:
            handle = plane.publish(problem)
            assert len(pickle.dumps(handle)) < len(pickle.dumps(problem)) / 2


class TestLifecycle:
    def test_segments_unlinked_on_normal_close(self):
        problem = make_problem()
        plane = ProblemPlane()
        handle = plane.publish(problem)
        assert segment_exists(handle.shm_name)
        plane.close()
        assert not segment_exists(handle.shm_name)
        with pytest.raises(ValidationError, match="closed"):
            plane.publish(problem)

    def test_segments_unlinked_when_with_block_raises(self):
        problem = make_problem()
        handle = None
        with pytest.raises(RuntimeError, match="mid-suite failure"):
            with ProblemPlane() as plane:
                handle = plane.publish(problem)
                assert segment_exists(handle.shm_name)
                raise RuntimeError("mid-suite failure")
        assert handle is not None and not segment_exists(handle.shm_name)

    def test_worker_pool_exit_unlinks_after_raising_cell(self, monkeypatch):
        """A worker dies on a cell and the caller's ``with`` block raises
        over the partial report: the dispatch's heartbeat board unlinks."""
        monkeypatch.setenv(FAULTS_ENV, "kill@2*99")
        names: set[str] = set()
        with pytest.raises(WorkerPoolError, match="worker-death"):
            with WorkerPool(2) as pool:
                report = pool.map_salvage(
                    board_name,
                    range(4),
                    policy=RetryPolicy(max_retries=0, backoff_base=0.01),
                )
                names = {name for _, name in report.completed()}
                failure = next(f for f in report.failures if f.index == 2)
                raise WorkerPoolError(f"cell 2 lost: {failure.kind}")
        assert names
        assert not any(segment_exists(name) for name in names)

    def test_worker_pool_normal_exit_unlinks(self):
        with WorkerPool(2) as pool:
            report = pool.map_salvage(board_name, range(4))
        assert report.ok, report.failures
        assert len(set(report.results)) == 1
        assert not segment_exists(report.results[0])

    def test_no_tracker_noise_when_pool_warms_before_publish(self):
        """Workers forked by a first dispatch share the parent tracker.

        The first dispatch warms (forks) the workers; every later dispatch
        publishes a fresh heartbeat board that those warmed workers attach.
        A worker forked without an inherited tracker fd would start a
        private tracker on attach, never hear the parent's unlink, and warn
        of "leaked shared_memory" at shutdown, so the run's stderr must stay
        silent.
        """
        src_root = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        script = (
            "from repro.utils.parallel import WorkerPool\n"
            "with WorkerPool(2) as pool:\n"
            "    for _ in range(3):\n"
            "        assert pool.map_salvage(abs, range(-4, 4)).ok\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src_root)
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
            check=True,
        )
        assert "resource_tracker" not in out.stderr, out.stderr
        assert "leaked" not in out.stderr, out.stderr

    def test_no_segment_survives_process_exit(self, tmp_path):
        """A child that publishes and exits without closing leaks nothing."""
        src_root = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        script = (
            "from repro.experiments.suite import build_suite\n"
            "from repro.utils.shared_plane import ProblemPlane\n"
            "problem = build_suite((6,), 1, seed=3)[6][0].problem\n"
            "plane = ProblemPlane()\n"
            "handle = plane.publish(problem)\n"
            "print(handle.shm_name)\n"
            # no close(): the finalize guard must clean up at interpreter exit
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src_root)
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
            check=True,
        )
        shm_name = out.stdout.strip().splitlines()[-1]
        assert shm_name
        assert not segment_exists(shm_name)


class TestTrackerUnregister:
    """The standalone-attacher unregister must hit the tracker's real key.

    On POSIX the tracker registers the slash-prefixed OS name while the
    public ``shm.name`` strips the slash; unregistering the stripped form
    is a silent set-discard miss, resurrecting bpo-39959 (a short-lived
    attacher's tracker unlinks the owner's live segment at exit). On
    3.13+ the ``track=False`` constructor makes the whole dance moot —
    the test asserts whichever branch this interpreter actually runs.
    """

    def _supports_track_kwarg(self) -> bool:
        import inspect

        params = inspect.signature(shared_memory.SharedMemory.__init__).parameters
        return "track" in params

    def test_tracker_name_restores_posix_slash(self):
        from repro.utils.shared_plane import _tracker_name

        plane = ProblemPlane()
        try:
            handle = plane.publish(make_problem())
            shm = shared_memory.SharedMemory(name=handle.shm_name)
            try:
                derived = _tracker_name(shm)
                if os.name == "posix":
                    assert derived.startswith("/")
                    assert derived == "/" + shm.name
                    # The registered key is the private _name; the public
                    # derivation must agree with it exactly.
                    assert derived == shm._name
                else:  # pragma: no cover - windows
                    assert derived == shm.name
            finally:
                shm.close()
        finally:
            plane.close()

    def test_attach_branch_matches_interpreter(self, monkeypatch):
        """<3.13: a standalone attach unregisters under the tracker's own
        key. 3.13+: ``track=False`` is used and no unregister happens."""
        import repro.utils.shared_plane as sp
        from multiprocessing import resource_tracker

        calls: list[tuple[str, str]] = []
        real_unregister = resource_tracker.unregister

        def spy(name: str, rtype: str) -> None:
            calls.append((name, rtype))
            real_unregister(name, rtype)

        monkeypatch.setattr(resource_tracker, "unregister", spy)

        plane = ProblemPlane()
        try:
            handle = plane.publish(make_problem())
            # The test process owns the plane's segment; hide that ownership
            # (after publish, which registers it) so the attach takes the
            # standalone-attacher path under test.
            monkeypatch.setattr(sp, "_OWNED_NAMES", set())
            shm = sp._attach_segment(handle.shm_name)
            try:
                assert bytes(shm.buf[:1])  # segment is readable
                if self._supports_track_kwarg():
                    assert calls == []  # track=False: nothing to undo
                else:
                    assert len(calls) == 1
                    name, rtype = calls[0]
                    assert rtype == "shared_memory"
                    assert name == sp._tracker_name(shm)
                    if os.name == "posix":
                        assert name.startswith("/")
            finally:
                shm.close()
        finally:
            # Restore the tracker entry the spied unregister removed, so the
            # plane's final unlink stays warning-free on <3.13.
            if calls and not self._supports_track_kwarg():
                try:
                    resource_tracker.register(calls[0][0], "shared_memory")
                except Exception:
                    pass
            plane.close()


class TestHeartbeatClockDomain:
    """Liveness stamps and deadline math live on CLOCK_MONOTONIC: a wall
    clock stepped by NTP (or an operator) must not move any deadline."""

    def test_wall_clock_jump_cannot_age_a_heartbeat(self, monkeypatch):
        import time as time_module

        from repro.utils.shared_plane import HeartbeatBoard

        board = HeartbeatBoard.create(2)
        try:
            board.mark(0, attempt=0)
            stamped = board.started_at(0, attempt=0)
            assert stamped > 0.0
            # Step the wall clock a year into the future.
            real_time = time_module.time
            monkeypatch.setattr(
                time_module, "time", lambda: real_time() + 365 * 86400.0
            )
            # The stamp is monotonic: elapsed time stays sub-second, so no
            # deadline monitor computing now - started_at() can fire early.
            now = time_module.monotonic()  # repro: noqa[wallclock] -- asserting the stamp's clock domain
            assert board.started_at(0, attempt=0) == stamped
            assert 0.0 <= now - stamped < 60.0
        finally:
            board.close()

    def test_salvage_deadlines_survive_wall_clock_jump(self, monkeypatch):
        """End-to-end: a dispatch with a cell timeout under a stepped wall
        clock neither kills workers nor burns retries."""
        import time as time_module

        real_time = time_module.time
        monkeypatch.setattr(time_module, "time", lambda: real_time() + 1e9)
        with WorkerPool(2) as pool:
            report = pool.map_salvage(
                _double, list(range(6)), policy=_fast_timeout_policy()
            )
        assert report.ok
        assert report.results == [0, 2, 4, 6, 8, 10]
        assert report.n_retries == 0  # no spurious deadline expiry


def _double(x: int) -> int:
    return 2 * x


def _fast_timeout_policy():
    from repro.utils.parallel import RetryPolicy

    return RetryPolicy(max_retries=1, cell_timeout=30.0, backoff_base=0.01)
