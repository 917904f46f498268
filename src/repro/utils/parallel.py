"""The persistent execution fabric for embarrassingly parallel sweeps.

Suite runs (sizes × pairs × heuristics × repetitions) are independent of
each other, so they parallelise trivially across processes.
:class:`WorkerPool` is a warm, reusable pool: its workers fork once and
serve every later dispatch, and it schedules straggler-prone cells first
(cost-weighted longest-processing-time-first with per-cell futures).
Cells cross the pipe by pickle, problem included: pickling a paper
instance costs about 0.1 ms against a solve of 20 ms or more (DESIGN §9).
:meth:`WorkerPool.map_salvage` is its one dispatch method: failures cost
cells, never the sweep (DESIGN §10).

Tasks must be picklable top-level callables; per-task arguments should
carry their own seeds (see :class:`repro.utils.rng.RngStreams`) so results
are identical regardless of worker count — a property the tests assert.
This module is the only place in the library allowed to construct a raw
``ProcessPoolExecutor`` (the ``parallel-safety`` lint rule enforces it).
"""

from __future__ import annotations

import os
import signal
import threading
import time
import weakref
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro.exceptions import ConfigurationError, WorkerPoolError
from repro.utils.faults import inject_fault
from repro.utils.shared_plane import HeartbeatBoard, mark_heartbeat

__all__ = [
    "WorkerPool",
    "default_worker_count",
    "RetryPolicy",
    "CellFailure",
    "SalvageReport",
]

T = TypeVar("T")
R = TypeVar("R")


def default_worker_count() -> int:
    """The fabric-wide worker count: ``REPRO_WORKERS`` if set, else CPUs - 1.

    The environment override lets one shell line repin every sweep in a
    session (CI pins ``REPRO_WORKERS=2`` for determinism-under-parallelism
    tests; a dedicated box can claim every core). Always at least 1.
    """
    raw = os.environ.get("REPRO_WORKERS", "").strip()
    if raw:
        try:
            value = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"REPRO_WORKERS must be a positive integer, got {raw!r}"
            ) from None
        if value < 1:
            raise ConfigurationError(f"REPRO_WORKERS must be >= 1, got {value}")
        return value
    return max(1, (os.cpu_count() or 1) - 1)


def _init_worker() -> None:
    """Worker start-up: kernel calls run on one thread, because the pool
    already spreads its work across the cores."""
    from repro.kernels.impl_cext import use_one_thread

    use_one_thread()


def _shutdown_executor(executor: ProcessPoolExecutor | None) -> None:
    """Module-level shutdown helper usable by a ``weakref.finalize`` guard."""
    if executor is not None:
        executor.shutdown(wait=True, cancel_futures=True)


# -- fault tolerance ---------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """How :meth:`WorkerPool.map_salvage` survives failing cells and workers.

    ``max_retries`` bounds the re-dispatches of any one cell beyond its
    first attempt — cells are pure ``(problem, spec, seed)`` functions, so a
    replay after a worker death is bit-identical to the lost attempt.
    ``cell_timeout`` is a per-attempt deadline in seconds (``None`` means no
    deadline): a cell whose heartbeat says it started more than this long
    ago gets its worker SIGKILLed and is treated as a consumed attempt.
    ``backoff_base`` seconds doubles per failed attempt before a retry is
    resubmitted. ``respawn_cap`` bounds executor rebuilds per pool size
    before the dispatcher degrades: halve the worker count, and below two
    workers finish the remaining cells serially in-process.
    """

    max_retries: int = 2
    cell_timeout: float | None = None
    backoff_base: float = 0.05
    respawn_cap: int = 3

    def __post_init__(self) -> None:
        if isinstance(self.max_retries, bool) or not isinstance(self.max_retries, int):
            raise ConfigurationError(
                f"max_retries must be an integer >= 0, got {self.max_retries!r}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.cell_timeout is not None and not self.cell_timeout > 0:
            raise ConfigurationError(
                f"cell_timeout must be > 0 seconds or None, got {self.cell_timeout}"
            )
        if self.backoff_base < 0:
            raise ConfigurationError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )
        if self.respawn_cap < 1:
            raise ConfigurationError(f"respawn_cap must be >= 1, got {self.respawn_cap}")

    @classmethod
    def default(cls) -> "RetryPolicy":
        """The built-in policy, with ``REPRO_MAX_RETRIES`` / ``REPRO_CELL_TIMEOUT``
        environment overrides applied when set."""
        kwargs: dict[str, Any] = {}
        raw = os.environ.get("REPRO_MAX_RETRIES", "").strip()
        if raw:
            try:
                kwargs["max_retries"] = int(raw)
            except ValueError:
                raise ConfigurationError(
                    f"REPRO_MAX_RETRIES must be an integer, got {raw!r}"
                ) from None
        raw = os.environ.get("REPRO_CELL_TIMEOUT", "").strip()
        if raw:
            try:
                kwargs["cell_timeout"] = float(raw)
            except ValueError:
                raise ConfigurationError(
                    f"REPRO_CELL_TIMEOUT must be a number of seconds, got {raw!r}"
                ) from None
        return cls(**kwargs)


@dataclass(frozen=True)
class CellFailure:
    """One cell the dispatcher could not complete, after all retries.

    ``kind`` is ``"exception"`` (the cell function raised), ``"worker-death"``
    (the worker died mid-cell, e.g. OOM-killed) or ``"timeout"`` (the cell
    ran past :attr:`RetryPolicy.cell_timeout` and its worker was killed).
    ``attempts`` counts attempts that actually started.
    """

    index: int
    kind: str
    attempts: int
    message: str


@dataclass
class SalvageReport:
    """Everything :meth:`WorkerPool.map_salvage` managed to complete.

    ``results[i]`` holds cell ``i``'s result, or ``None`` for the indices
    named in ``failures`` — the structured manifest callers attach to their
    experiment artifacts so a partially-failed sweep is still a usable,
    honestly-labelled dataset instead of a crash.
    """

    results: list
    failures: tuple[CellFailure, ...] = ()
    n_retries: int = 0
    n_respawns: int = 0
    final_workers: int = 1
    degraded_to_serial: bool = False

    @property
    def ok(self) -> bool:
        """True when every cell completed."""
        return not self.failures

    def completed(self) -> "list[tuple[int, Any]]":
        """``(index, result)`` pairs for the cells that did complete."""
        failed = {f.index for f in self.failures}
        return [(i, r) for i, r in enumerate(self.results) if i not in failed]


def _resilient_cell(task: tuple) -> Any:
    """Worker-side envelope for fault-tolerant dispatch.

    Stamps the heartbeat board (so the parent can tell started-and-died
    from never-started after a pool death, and can enforce deadlines), then
    fires any configured injected fault, then runs the real cell.
    """
    fn, item, index, attempt, board_name, n_cells = task
    mark_heartbeat(board_name, n_cells, index, attempt)
    inject_fault(index, attempt)
    return fn(item)


def _run_in_process(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    pending: Iterable[int],
    attempts: list[int],
    results: list,
    failures: dict[int, CellFailure],
) -> None:
    """One attempt per ``pending`` cell, in this process, in the given order.

    This is the whole dispatch of a serial pool and the last rung of the
    degradation ladder. A raising cell becomes an ``"exception"`` failure
    at once: retrying a pure function in the same process cannot change
    its outcome, so retries would only hide nondeterminism. No fault
    injection fires here (the harness is worker-only), so a chaos plan
    cannot livelock the parent, and pure cells produce exactly the results
    their worker attempts would have.
    """
    for i in pending:
        attempts[i] += 1
        try:
            results[i] = fn(items[i])
        except Exception as exc:
            failures[i] = CellFailure(
                index=i,
                kind="exception",
                attempts=attempts[i],
                message=f"{type(exc).__name__}: {exc}",
            )


class WorkerPool:
    """A warm, reusable process pool with fault-tolerant dispatch.

    One pool serves arbitrarily many :meth:`map_salvage` calls; workers
    fork once and stay warm, so successive dispatches pay queue latency
    instead of executor construction. ``n_workers <= 1`` turns every
    operation into its in-process serial equivalent — no forks, no
    pickling, no shared memory — which keeps single-CPU hosts and debug
    sessions exactly as deterministic and steppable as before.

    Use as a context manager (or call :meth:`close`); either way the
    workers are shut down on normal exit, on exceptions and on SIGINT, and
    a ``weakref.finalize`` guard covers pools abandoned without closing.

    :meth:`map_salvage` may be called from several threads at once (the
    service gateway runs one call per in-flight request); they share the
    executor, and a pool death heals once for all of them.
    """

    def __init__(self, n_workers: int | None = None) -> None:
        self.n_workers = default_worker_count() if n_workers is None else int(n_workers)
        self._executor: ProcessPoolExecutor | None = None
        #: Held to swap the executor, to submit (a fork pool forks its
        #: workers in the first submit) and to create or close a heartbeat
        #: board. A fork copies every lock in the state another thread
        #: holds it; a board create or close holds the resource tracker's
        #: lock, which a worker then takes on its first board attach
        #: (Python < 3.13) and waits on forever.
        self._lock = threading.Lock()
        self._closed = False

    # -- introspection -----------------------------------------------------
    @property
    def is_parallel(self) -> bool:
        """True when dispatches actually cross process boundaries."""
        return self.n_workers > 1

    @property
    def closed(self) -> bool:
        return self._closed

    def worker_pids(self) -> list[int]:
        """PIDs of live worker processes (empty before the first dispatch)."""
        if self._executor is None:
            return []
        return list(self._executor._processes)

    # -- dispatch ----------------------------------------------------------
    def map_salvage(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        *,
        weight: Callable[[T], float] | None = None,
        policy: RetryPolicy | None = None,
    ) -> SalvageReport:
        """Map ``fn`` over ``items``; failures cost cells, not the sweep.

        Every cell gets bounded retries with exponential backoff (cells are
        pure functions of their task tuple, so a replay is bit-identical to
        the attempt that was lost); a dead worker pool is respawned instead
        of aborting the call, degrading to fewer workers and finally to
        serial in-process execution if deaths persist; a cell that runs past
        ``policy.cell_timeout`` has its worker killed and its deadline
        recorded rather than hanging the sweep. The returned
        :class:`SalvageReport` carries completed results in input order plus
        a manifest of the cells that permanently failed.

        ``policy=None`` uses :meth:`RetryPolicy.default` (environment
        overrides included). With ``weight`` the cells are submitted
        heaviest-first (longest-processing-time order, input index as the
        tie-break), so the stragglers of a mixed-size sweep start at once;
        results stay in input order, so a weight cannot influence any value.

        A parallel pool dispatches even a single item, so one cell gets
        the same worker isolation, retries and deadline as many. A serial
        pool (``n_workers <= 1``) runs the cells in this process, in input
        order, one attempt each, with no heartbeat board and no dispatcher.
        """
        if self._closed:
            raise WorkerPoolError("cannot map on a closed WorkerPool")
        resolved = policy if policy is not None else RetryPolicy.default()
        item_list: Sequence[T] = list(items)
        n = len(item_list)
        if not self.is_parallel:
            results: list = [None] * n
            failures: dict[int, CellFailure] = {}
            _run_in_process(fn, item_list, range(n), [0] * n, results, failures)
            return SalvageReport(
                results=results,
                failures=tuple(failures.values()),
                final_workers=self.n_workers,
            )
        if not item_list:
            return SalvageReport(results=[], final_workers=self.n_workers)
        return _ResilientDispatch(self, fn, item_list, weight, resolved).run()

    # -- lifecycle ---------------------------------------------------------
    def _discard_executor(self, executor: ProcessPoolExecutor) -> None:
        """Drop a (typically broken) executor so the next dispatch forks fresh.

        A no-op unless ``executor`` is still the current one: of several
        concurrent dispatches that saw the same executor die, the first
        replaces it and the others must not discard the replacement. The
        finalizer guard is detached first — it references the old executor
        and would otherwise block interpreter exit waiting on processes
        that are already gone.
        """
        with self._lock:
            if self._executor is not executor:
                return
            finalizer = getattr(self, "_exec_finalizer", None)
            if finalizer is not None:
                finalizer.detach()
            executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def _ensure_executor(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._executor is None:
                # Start the parent's resource tracker *before* forking
                # workers. Workers must inherit its fd: a worker whose first
                # heartbeat-board attach finds no tracker spawns a private
                # one that never hears the parent's unlink and cries
                # "leaked" at shutdown.
                try:
                    from multiprocessing import resource_tracker

                    resource_tracker.ensure_running()
                except Exception:  # pragma: no cover - platform-specific
                    pass
                self._executor = ProcessPoolExecutor(
                    max_workers=self.n_workers, initializer=_init_worker
                )
                self._exec_finalizer = weakref.finalize(
                    self, _shutdown_executor, self._executor
                )
            return self._executor

    def close(self) -> None:
        """Shut the workers down. Idempotent."""
        if self._closed:
            return
        self._closed = True
        try:
            _shutdown_executor(self._executor)
        finally:
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "warm" if self._executor else "cold"
        return f"WorkerPool(n_workers={self.n_workers}, {state})"


class _ResilientDispatch:
    """One :meth:`WorkerPool.map_salvage` call: submit, monitor, retry, heal.

    The dispatcher drives *generations* of a process pool. Within a
    generation it submits unresolved cells (heaviest first when weighted),
    gathers completions, schedules bounded backoff retries for cells that
    raised, and SIGKILLs workers whose cells overran their deadline. When
    the pool itself breaks — an injected kill, an OOM, a deadline kill —
    it classifies every in-flight cell through the heartbeat board
    (started-and-died consumes an attempt; still-queued does not), then
    heals: respawn the executor up to ``respawn_cap`` times per size, halve
    the worker count when a size keeps dying, and finish the tail serially
    in-process once fewer than two workers remain. Failure is per-cell and
    recorded, never an aborted sweep.
    """

    def __init__(
        self,
        pool: WorkerPool,
        fn: Callable[..., Any],
        items: Sequence[Any],
        weight: Callable[[Any], float] | None,
        policy: RetryPolicy,
    ) -> None:
        self.pool = pool
        self.fn = fn
        self.items = items
        self.policy = policy
        n = len(items)
        self.n = n
        if weight is None:
            self.order = list(range(n))
        else:
            self.order = sorted(range(n), key=lambda i: (-float(weight(items[i])), i))
        with pool._lock:
            self.board = HeartbeatBoard.create(n)
        self.executor: ProcessPoolExecutor | None = None  # the generation being driven
        self.results: list = [None] * n
        self.done = [False] * n
        self.attempts = [0] * n  # attempts that actually started, per cell
        self.failures: dict[int, CellFailure] = {}
        self.timed_out: set[int] = set()  # cells whose current attempt we killed
        self.inflight: dict[Future, int] = {}
        self.n_retries = 0
        self.n_respawns = 0
        self.respawns_at_size = 0
        self.degraded_to_serial = False

    # -- top level ---------------------------------------------------------
    def run(self) -> SalvageReport:
        try:
            while not self._resolved_all():
                try:
                    self._drive_generation()
                except BrokenProcessPool:
                    self._classify_after_death()
                    if self._resolved_all():
                        break
                    if not self._heal():
                        self._serial_tail()
        finally:
            with self.pool._lock:
                self.board.close()
        return SalvageReport(
            results=self.results,
            failures=tuple(self.failures[i] for i in sorted(self.failures)),
            n_retries=self.n_retries,
            n_respawns=self.n_respawns,
            final_workers=self.pool.n_workers,
            degraded_to_serial=self.degraded_to_serial,
        )

    def _resolved_all(self) -> bool:
        return all(self.done[i] or i in self.failures for i in range(self.n))

    def _unresolved(self) -> list[int]:
        """Unresolved cells in submission (LPT) order."""
        return [i for i in self.order if not self.done[i] and i not in self.failures]

    # -- one executor generation -------------------------------------------
    def _submit(self, executor: ProcessPoolExecutor, i: int) -> None:
        task = (self.fn, self.items[i], i, self.attempts[i], self.board.name, self.n)
        with self.pool._lock:
            future = executor.submit(_resilient_cell, task)
        self.inflight[future] = i

    def _drive_generation(self) -> None:
        """Dispatch every unresolved cell on a fresh/healthy executor.

        Returns when all are resolved; raises ``BrokenProcessPool`` when the
        executor dies, leaving ``self.inflight`` populated for
        classification.
        """
        executor = self.executor = self.pool._ensure_executor()
        self.inflight = {}
        for i in self._unresolved():
            self._submit(executor, i)
        retry_due: dict[int, float] = {}  # cell -> monotonic resubmission time
        while self.inflight or retry_due:
            now = time.monotonic()  # repro: noqa[wallclock] -- retry/deadline scheduling only
            for i in sorted(retry_due):
                if now >= retry_due[i]:
                    del retry_due[i]
                    self._submit(executor, i)
            done, _ = wait(
                list(self.inflight),
                timeout=self._poll_timeout(retry_due),
                return_when=FIRST_COMPLETED,
            )
            for fut in done:
                i = self.inflight[fut]
                try:
                    result = fut.result()
                except BrokenProcessPool:
                    raise  # inflight still holds every unprocessed future
                except Exception as exc:
                    del self.inflight[fut]
                    self._attempt_failed(
                        i, "exception", f"{type(exc).__name__}: {exc}", retry_due
                    )
                else:
                    del self.inflight[fut]
                    self._attempt_succeeded(i, result)
            self._enforce_deadlines()

    def _attempt_succeeded(self, i: int, result: Any) -> None:
        self.results[i] = result
        self.done[i] = True
        self.attempts[i] += 1
        self.timed_out.discard(i)

    def _attempt_failed(
        self, i: int, kind: str, message: str, retry_due: dict[int, float] | None
    ) -> None:
        """Consume one attempt; queue a backoff retry or record the failure."""
        self.attempts[i] += 1
        self.timed_out.discard(i)
        if self.attempts[i] <= self.policy.max_retries:
            self.n_retries += 1
            if retry_due is not None:
                delay = self.policy.backoff_base * (2 ** (self.attempts[i] - 1))
                retry_due[i] = time.monotonic() + delay  # repro: noqa[wallclock] -- backoff scheduling only
        else:
            self.failures[i] = CellFailure(
                index=i, kind=kind, attempts=self.attempts[i], message=message
            )

    def _poll_timeout(self, retry_due: dict[int, float]) -> float | None:
        """How long to block in ``wait``: forever when nothing needs polling."""
        candidates: list[float] = []
        if self.policy.cell_timeout is not None and self.inflight:
            candidates.append(max(0.05, min(1.0, self.policy.cell_timeout / 4.0)))
        if retry_due:
            now = time.monotonic()  # repro: noqa[wallclock] -- backoff scheduling only
            candidates.append(max(0.01, min(retry_due.values()) - now))
        return min(candidates) if candidates else None

    def _enforce_deadlines(self) -> None:
        """SIGKILL the worker of any cell past its per-attempt deadline.

        The kill breaks the pool (fork workers share a result queue), which
        routes the cell through the death-classification path as a consumed
        ``"timeout"`` attempt.
        """
        deadline = self.policy.cell_timeout
        if deadline is None:
            return
        now = time.monotonic()  # repro: noqa[wallclock] -- deadline enforcement only
        for fut, i in list(self.inflight.items()):
            if fut.done() or i in self.timed_out:
                continue
            started = self.board.started_at(i, self.attempts[i])
            if started and now - started > deadline:
                self.timed_out.add(i)
                pid = self.board.pid(i)
                if pid > 0:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except (ProcessLookupError, PermissionError):  # pragma: no cover
                        pass

    # -- pool death and healing --------------------------------------------
    def _classify_after_death(self) -> None:
        """Settle every in-flight future of a dead pool via the heartbeat.

        A future may hold a real result or a real cell exception delivered
        before the break — honour those. Otherwise the heartbeat decides:
        a row stamped with the current attempt means the cell started and
        died with its worker (a consumed ``"worker-death"`` — or
        ``"timeout"`` if we killed it — attempt); an unstamped cell was
        still queued and is resubmitted for free.
        """
        inflight, self.inflight = self.inflight, {}
        for fut, i in inflight.items():
            if self.done[i] or i in self.failures:
                continue
            try:
                result = fut.result(timeout=0)
            except FutureTimeoutError:  # pragma: no cover - defensive
                continue  # never started; resubmit without consuming an attempt
            except BrokenProcessPool as exc:
                # still queued when the pool died: free resubmit
                if self.board.started_at(i, self.attempts[i]) == 0.0:  # repro: noqa[float-equality] -- 0.0 is the board's exact "never stamped" sentinel
                    continue
                if i in self.timed_out:
                    kind = "timeout"
                    message = (
                        f"cell exceeded its {self.policy.cell_timeout}s deadline "
                        f"and its worker was killed"
                    )
                else:
                    kind = "worker-death"
                    message = f"worker died mid-cell: {exc}"
                self._attempt_failed(i, kind, message, None)
            except Exception as exc:
                self._attempt_failed(
                    i, "exception", f"{type(exc).__name__}: {exc}", None
                )
            else:
                self._attempt_succeeded(i, result)

    def _heal(self) -> bool:
        """Rebuild the executor; ``False`` means go serial instead.

        Up to ``respawn_cap`` respawns at the current size; past that the
        size is halved (deaths at a size are evidence the host cannot
        sustain it — e.g. the OOM killer culling the largest cohort), and
        below two workers parallelism has nothing left to offer.
        """
        if self.executor is not None:
            self.pool._discard_executor(self.executor)
        self.n_respawns += 1
        self.respawns_at_size += 1
        if self.respawns_at_size > self.policy.respawn_cap:
            smaller = self.pool.n_workers // 2
            if smaller < 2:
                return False
            self.pool.n_workers = smaller
            self.respawns_at_size = 0
        return True

    def _serial_tail(self) -> None:
        """Finish unresolved cells in-process: the final degradation rung."""
        self.degraded_to_serial = True
        pending = sorted(self._unresolved())
        _run_in_process(
            self.fn, self.items, pending, self.attempts, self.results, self.failures
        )
        for i in pending:
            self.done[i] = i not in self.failures
