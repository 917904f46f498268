"""The mapping gateway: cache, dedup, admit, dispatch.

:class:`MappingService` is the serving layer over the execution fabric
(DESIGN.md §14). One long-lived :class:`~repro.utils.parallel.WorkerPool`
serves every request the process accepts; each admitted cache miss is its
own fault-tolerant :meth:`~repro.utils.parallel.WorkerPool.map_salvage`
call, and up to ``pool.n_workers`` of them run at once, one per worker.
The request path:

1. **cache** — the canonical key (:func:`repro.runstore.cache.cache_key`
   over the :func:`~repro.mapping.problem_key.problem_key` digest, solver
   spec, seed and evaluation cap) is checked first. Solves are pure
   functions of those inputs and kernel backends are bit-identical, so a
   hit is *exact* and is served without touching quota or workers.
2. **single-flight** — a request whose key is already being solved
   attaches to the in-flight future instead of dispatching a duplicate;
   the solve runs once and fans out.
3. **admission** — per-client :class:`~repro.runtime.budget.EvaluationBudget`
   quotas are charged *before* work is dispatched; an over-quota request
   gets a structured rejection immediately, never a timeout.
4. **dispatch** — the miss waits for a free worker slot, then ships to a
   pool worker as one :class:`~repro.runtime.cell.SolveCell` carrying the
   problem itself; the gateway turns the returned result into the cached
   payload.

Every accepted request, hit, rejection and dispatch streams into the run
store's ``events.jsonl`` when the service is given a run handle, so a
service process is a recorded run like any experiment.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.exceptions import ConfigurationError
from repro.mapping.problem import MappingProblem
from repro.mapping.problem_key import problem_key
from repro.runstore.cache import ResultCache, cache_key
from repro.runstore.store import RunHandle
from repro.runtime.budget import EvaluationBudget
from repro.runtime.cell import SolveCell, solve_cell
from repro.runtime.registry import SolverSpec
from repro.utils.parallel import SalvageReport, WorkerPool
from repro.utils.timing import Stopwatch

__all__ = [
    "ServiceConfig",
    "MappingRequest",
    "MappingResponse",
    "QuotaLedger",
    "MappingService",
]


@dataclass(frozen=True)
class ServiceConfig:
    """Gateway tuning knobs; the defaults serve a small local deployment."""

    #: Worker processes for the shared pool (None = host default); also
    #: the number of solves in flight at once.
    n_workers: int | None = None
    #: In-memory LRU entries in the result cache.
    cache_capacity: int = 1024
    #: Optional write-through persistence directory for the cache
    #: (conventionally ``<runs_dir>/service-cache``).
    cache_dir: str | Path | None = None
    #: Per-client evaluation quota (None = unlimited admission).
    client_quota: int | None = None
    #: Evaluations charged for a request that sets no ``max_evaluations``
    #: of its own — the admission-time estimate of an uncapped solve.
    default_charge: int = 25_000

    def __post_init__(self) -> None:
        if self.default_charge < 1:
            raise ConfigurationError(
                f"default_charge must be >= 1, got {self.default_charge}"
            )


@dataclass(frozen=True)
class MappingRequest:
    """One client request: solve ``problem`` with ``solver`` under ``seed``."""

    problem: MappingProblem
    solver: SolverSpec
    seed: int
    client: str = "anonymous"
    #: Optional evaluation cap for this solve; also the quota charge.
    max_evaluations: int | None = None


@dataclass
class MappingResponse:
    """The gateway's answer; ``result`` is bit-identical to a direct solve."""

    status: str  # "ok" | "rejected" | "failed"
    key: str
    cached: bool = False
    #: True when this request attached to an identical in-flight solve.
    coalesced: bool = False
    result: dict[str, Any] | None = None
    error: dict[str, Any] | None = None
    #: Evaluations charged against the client's quota (0 for hits/dedups).
    charged: int = 0
    latency_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_wire(self) -> dict[str, Any]:
        """JSON-able payload for the HTTP layer and trace replays."""
        return {
            "status": self.status,
            "key": self.key,
            "cached": self.cached,
            "coalesced": self.coalesced,
            "result": self.result,
            "error": self.error,
            "charged": self.charged,
            "latency_s": self.latency_s,
        }


class QuotaLedger:
    """Per-client admission quotas as :class:`EvaluationBudget` instances.

    The budget object is the library's one effort currency; reusing it here
    means admission, solver charging and experiment accounting all count
    the same unit (Eq. (2) evaluations).
    """

    def __init__(self, quota: int | None) -> None:
        self.quota = quota
        self._budgets: dict[str, EvaluationBudget] = {}

    def budget_for(self, client: str) -> EvaluationBudget:
        budget = self._budgets.get(client)
        if budget is None:
            budget = EvaluationBudget(max_evaluations=self.quota)
            self._budgets[client] = budget
        return budget

    def admit(self, client: str, charge: int) -> dict[str, Any] | None:
        """Charge ``charge`` to ``client``; a structured rejection if over.

        Admission is charge-before-dispatch: the quota is debited here,
        before the request waits for a worker, so an over-quota client is
        told immediately (kind ``over-quota``) instead of timing out.
        """
        budget = self.budget_for(client)
        remaining = budget.evaluations_remaining()
        if remaining < charge:
            return {
                "kind": "over-quota",
                "client": client,
                "requested": charge,
                "remaining": None if math.isinf(remaining) else int(remaining),
                "quota": self.quota,
            }
        budget.charge(charge)
        return None

    def refund(self, client: str, n: int) -> int:
        """Return ``n`` admission-charged evaluations to ``client``'s quota.

        The inverse of :meth:`admit`, for requests that were charged but
        never produced a result (worker death after salvage exhaustion,
        dispatch failure). :meth:`EvaluationBudget.charge` deliberately
        rejects non-positive charges so *solver* accounting can never run
        backwards; admission refunds are a ledger-level correction instead,
        clamped so a client can never end up below zero used. Returns the
        amount actually refunded.
        """
        budget = self.budget_for(client)
        refunded = min(int(n), budget.used)
        if refunded > 0:
            budget.used -= refunded
        return refunded

    def used(self, client: str) -> int:
        return self.budget_for(client).used

    def snapshot(self) -> dict[str, Any]:
        return {
            "quota": self.quota,
            "clients": {name: b.used for name, b in sorted(self._budgets.items())},
        }


@dataclass
class _Work:
    """One admitted, non-duplicate solve."""

    key: str
    request: MappingRequest
    future: "asyncio.Future[dict[str, Any]]"
    #: Evaluations charged at admission; refunded if no result is produced.
    charged: int = 0
    #: Runs from admission to dispatch; the queue-wait metric.
    waited: Stopwatch = field(default_factory=lambda: Stopwatch().start())


class MappingService:
    """The cache-fronted mapping gateway: one pool dispatch per cache miss.

    Use as an async context manager (or call :meth:`start`/:meth:`close`)
    inside a running event loop::

        async with MappingService(ServiceConfig(n_workers=4)) as svc:
            response = await svc.submit(MappingRequest(problem, spec, seed))
    """

    def __init__(
        self, config: ServiceConfig = ServiceConfig(), *, run: RunHandle | None = None
    ) -> None:
        self.config = config
        self.run = run
        self.cache = ResultCache(config.cache_capacity, persist_dir=config.cache_dir)
        self.quotas = QuotaLedger(config.client_quota)
        self._pool: WorkerPool | None = None
        #: One slot per pool worker: at most that many solves run at once.
        self._slots: asyncio.Semaphore | None = None
        #: Admitted dispatches not yet finished; None when not accepting.
        self._dispatches: set["asyncio.Task[None]"] | None = None
        self._inflight: dict[str, "asyncio.Future[dict[str, Any]]"] = {}
        self._counters: dict[str, int] = {
            "requests": 0,
            "cache_hits": 0,
            "coalesced_dedup": 0,
            "rejected": 0,
            "failed": 0,
            "batches": 0,
            "refunded_evaluations": 0,
        }

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> "MappingService":
        if self._pool is not None:
            raise ConfigurationError("MappingService is already started")
        self._pool = WorkerPool(self.config.n_workers)
        self._slots = asyncio.Semaphore(max(1, self._pool.n_workers))
        self._dispatches = set()
        self._event(
            "service-started",
            workers=self._pool.n_workers,
            cache_capacity=self.config.cache_capacity,
            cache_persistent=self.config.cache_dir is not None,
            client_quota=self.config.client_quota,
        )
        return self

    async def close(self) -> None:
        """Stop admitting, answer every admitted dispatch, release the pool."""
        dispatches, self._dispatches = self._dispatches, None
        if dispatches:
            await asyncio.gather(*dispatches)
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self._event("service-stopped", **self._counters)
        if self.run is not None:
            self.run.record_metrics("service", self.stats())

    async def __aenter__(self) -> "MappingService":
        return await self.start()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    # -- request path ------------------------------------------------------
    async def submit(self, request: MappingRequest) -> MappingResponse:
        """Serve one request: cache, dedup, admit, or dispatch to a worker."""
        dispatches = self._dispatches
        if dispatches is None:
            raise ConfigurationError(
                "MappingService is not running: submit only between start() and close()"
            )
        watch = Stopwatch().start()
        digest = problem_key(request.problem)
        key = cache_key(
            digest,
            request.solver.name,
            request.solver.params_dict(),
            request.seed,
            max_evaluations=request.max_evaluations,
        )
        self._counters["requests"] += 1
        self._event(
            "request",
            key=key,
            client=request.client,
            solver=str(request.solver),
            n_tasks=request.problem.n_tasks,
            in_flight=len(self._inflight),
        )

        hit = self.cache.get(key)
        if hit is not None:
            self._counters["cache_hits"] += 1
            latency = watch.stop()
            self._event("cache-hit", key=key, client=request.client, latency_s=latency)
            return MappingResponse(
                status="ok", key=key, cached=True, result=hit, latency_s=latency
            )

        future = self._inflight.get(key)
        coalesced = future is not None
        charged = 0
        if future is None:
            charge = (
                request.max_evaluations
                if request.max_evaluations is not None
                else self.config.default_charge
            )
            rejection = self.quotas.admit(request.client, charge)
            if rejection is not None:
                self._counters["rejected"] += 1
                latency = watch.stop()
                # The rejection dict already names the client.
                self._event("quota-rejected", key=key, **rejection)
                return MappingResponse(
                    status="rejected", key=key, error=rejection, latency_s=latency
                )
            charged = charge
            future = asyncio.get_running_loop().create_future()
            self._inflight[key] = future
            task = asyncio.create_task(
                self._dispatch(_Work(key, request, future, charged=charge))
            )
            dispatches.add(task)
            task.add_done_callback(dispatches.discard)
        else:
            self._counters["coalesced_dedup"] += 1

        payload = await future
        latency = watch.stop()
        if "error" in payload:
            self._counters["failed"] += 1
            # A failed dispatch refunds its admission charge (the request
            # never produced a result), so the net charge reported is 0 for
            # the admitting submitter too — see ``_run_batch``.
            refunded = int(payload["error"].get("refunded", 0))
            return MappingResponse(
                status="failed",
                key=key,
                coalesced=coalesced,
                error=payload["error"],
                charged=max(0, charged - refunded),
                latency_s=latency,
            )
        return MappingResponse(
            status="ok",
            key=key,
            coalesced=coalesced,
            result=payload,
            charged=charged,
            latency_s=latency,
        )

    # -- dispatch ----------------------------------------------------------
    async def _dispatch(self, work: _Work) -> None:
        # The slot is taken before ``_run_batch`` starts, so the queue wait
        # it records includes the wait for a free worker.
        assert self._slots is not None
        async with self._slots:
            await self._run_batch([work])

    async def _run_batch(self, batch: list[_Work]) -> None:
        """Solve one admitted request on a pool worker and fan out its answer.

        Always called with a one-item list: perfbench's traced run wraps
        this method by name and reads each item's queue wait.
        """
        assert self._pool is not None
        (work,) = batch
        pool = self._pool
        self._counters["batches"] += 1
        request = work.request
        cell = SolveCell(
            request.problem, request.solver, request.seed, request.max_evaluations
        )
        self._event("batch-dispatched", key=work.key, queue_wait_s=work.waited.stop())
        solve_watch = Stopwatch().start()
        report: SalvageReport | None = None
        error: dict[str, Any] | None = None
        try:
            # A parallel pool always dispatches, so the solve runs on a
            # worker; this thread only waits for it.
            report = await asyncio.get_running_loop().run_in_executor(
                None, lambda: pool.map_salvage(solve_cell, [cell])
            )
        except Exception as exc:
            # The dispatch itself died (pool closed under us, executor
            # unusable): no result, same refund as a failed cell.
            error = {
                "kind": "dispatch-error",
                "attempts": 0,
                "message": f"{type(exc).__name__}: {exc}",
            }
        else:
            if report.failures:
                failure = report.failures[0]
                error = {
                    "kind": failure.kind,
                    "attempts": failure.attempts,
                    "message": failure.message,
                }
        solve_s = solve_watch.stop()

        if error is None:
            assert report is not None
            result = report.results[0]
            payload: dict[str, Any] = {
                "mapper_name": result.mapper_name,
                "assignment": [int(x) for x in result.assignment],
                "execution_time": float(result.execution_time),
                "mapping_time": float(result.mapping_time),
                "n_evaluations": int(result.n_evaluations),
            }
            self.cache.put(work.key, payload)
        else:
            # The request never produced a result: return its admission
            # charge so a failed dispatch can't leak quota forever.
            refunded = self.quotas.refund(request.client, work.charged)
            if refunded:
                self._counters["refunded_evaluations"] += refunded
                self._event(
                    "quota-refunded",
                    key=work.key,
                    client=request.client,
                    refunded=refunded,
                    kind=error["kind"],
                )
            payload = {"error": {**error, "refunded": refunded}}
        self._inflight.pop(work.key, None)
        if not work.future.done():
            work.future.set_result(payload)
        if report is None:
            self._event(
                "batch-failed", key=work.key, solve_s=solve_s, message=error["message"]
            )
        else:
            self._event(
                "batch-completed",
                key=work.key,
                solve_s=solve_s,
                failures=len(report.failures),
                retries=report.n_retries,
            )

    # -- observability -----------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Counters for ``/stats`` and the run metrics."""
        return {
            **self._counters,
            "cache": self.cache.stats(),
            "quotas": self.quotas.snapshot(),
            "workers": self._pool.n_workers if self._pool is not None else None,
        }

    def _event(self, event: str, **fields: Any) -> None:
        if self.run is not None:
            self.run.log_event(event, **fields)
