"""The mapping gateway: coalesce, dedup, cache, admit, dispatch.

:class:`MappingService` is the serving layer over the execution fabric
(DESIGN.md §14). One long-lived :class:`~repro.utils.parallel.WorkerPool`
and one shared-memory problem plane serve every request the process
accepts; an asyncio dispatcher coalesces concurrent requests into batches
that go through :meth:`~repro.utils.parallel.WorkerPool.map_salvage` with
LPT ordering, exactly like an experiment sweep. The request path is the
same shape that makes inference servers fast:

1. **cache** — the canonical key (:func:`repro.runstore.cache.cache_key`
   over the :func:`~repro.mapping.problem_key.problem_key` digest, solver
   spec, seed and evaluation cap) is checked first. Solves are pure
   functions of those inputs and kernel backends are bit-identical, so a
   hit is *exact* and is served without touching quota or workers.
2. **single-flight** — a request whose key is already being solved
   attaches to the in-flight future instead of queueing a duplicate; the
   solve runs once and fans out.
3. **admission** — per-client :class:`~repro.runtime.budget.EvaluationBudget`
   quotas are charged *before* work is queued; an over-quota request gets
   a structured rejection immediately, never a timeout.
4. **coalesce + dispatch** — queued requests are collected up to
   ``max_batch`` within ``coalesce_window`` seconds, their problems are
   published once onto the shared plane, and the batch is dispatched as
   one fault-tolerant ``map_salvage`` call (heaviest problems first).

Every accepted request, hit, rejection and batch streams into the run
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
from repro.runtime.registry import SolverSpec
from repro.utils.parallel import WorkerPool
from repro.utils.shared_plane import resolve_problem
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

    #: Worker processes for the shared pool (None = host default).
    n_workers: int | None = None
    #: Maximum requests dispatched as one ``map_salvage`` batch.
    max_batch: int = 16
    #: Seconds the dispatcher waits for more requests to coalesce after
    #: the first one arrives. Zero still coalesces whatever is already
    #: queued (the drain is opportunistic, the wait is not).
    coalesce_window: float = 0.01
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
        if self.max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.coalesce_window < 0:
            raise ConfigurationError(
                f"coalesce_window must be >= 0, got {self.coalesce_window}"
            )
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

        Admission is charge-before-queue: the quota is debited here, before
        the request touches the dispatch queue, so an over-quota client is
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
        dispatcher failure). :meth:`EvaluationBudget.charge` deliberately
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


@dataclass(frozen=True)
class _ServiceCell:
    """The picklable work unit one batch slot ships to a pool worker."""

    problem_ref: Any
    solver: SolverSpec
    seed: int
    max_evaluations: int | None
    n_tasks: int


def _solve_cell(cell: _ServiceCell) -> dict[str, Any]:
    """Top-level (picklable, pure) worker: one cached-format solve result.

    Pure in the cell: the problem comes off the shared plane, the mapper is
    rebuilt from the spec, and the seed drives all randomness — the same
    contract as the experiment runner's cells, so a replay (retry, other
    worker count, other kernel backend) is bit-identical.
    """
    problem = resolve_problem(cell.problem_ref)
    budget = (
        EvaluationBudget(max_evaluations=cell.max_evaluations)
        if cell.max_evaluations is not None
        else None
    )
    result = cell.solver.build().map(problem, cell.seed, budget=budget)
    return {
        "mapper_name": result.mapper_name,
        "assignment": [int(x) for x in result.assignment],
        "execution_time": float(result.execution_time),
        "mapping_time": float(result.mapping_time),
        "n_evaluations": int(result.n_evaluations),
    }


def _cell_weight(cell: _ServiceCell) -> float:
    """LPT weight: solve cost grows ~cubically with instance size."""
    return float(cell.n_tasks) ** 3


@dataclass
class _Work:
    """One queued (admitted, non-duplicate) solve."""

    key: str
    digest: str
    request: MappingRequest
    future: "asyncio.Future[dict[str, Any]]"
    #: Evaluations charged at admission; refunded if no result is produced.
    charged: int = 0
    #: Runs from enqueue to dispatch; the batch's queue-wait metric.
    waited: Stopwatch = field(default_factory=lambda: Stopwatch().start())


class MappingService:
    """The batch-coalescing, cache-fronted mapping gateway.

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
        self._queue: "asyncio.Queue[_Work | None]" | None = None
        self._dispatcher: asyncio.Task | None = None
        self._inflight: dict[str, "asyncio.Future[dict[str, Any]]"] = {}
        self._published: dict[str, Any] = {}
        self._counters: dict[str, int] = {
            "requests": 0,
            "cache_hits": 0,
            "coalesced_dedup": 0,
            "rejected": 0,
            "failed": 0,
            "batches": 0,
            "coalesced_batches": 0,
            "batched_requests": 0,
            "max_batch_width": 0,
            "worker_cells": 0,
            "refunded_evaluations": 0,
        }

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> "MappingService":
        if self._pool is not None:
            raise ConfigurationError("MappingService is already started")
        self._pool = WorkerPool(self.config.n_workers)
        self._queue = asyncio.Queue()
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        self._event(
            "service-started",
            workers=self._pool.n_workers,
            max_batch=self.config.max_batch,
            coalesce_window=self.config.coalesce_window,
            cache_capacity=self.config.cache_capacity,
            cache_persistent=self.config.cache_dir is not None,
            client_quota=self.config.client_quota,
        )
        return self

    async def close(self) -> None:
        """Drain the queue, stop the dispatcher, release the pool."""
        if self._queue is not None and self._dispatcher is not None:
            await self._queue.put(None)
            await self._dispatcher
            self._dispatcher = None
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self._published.clear()
        self._event("service-stopped", **self._counters)
        if self.run is not None:
            self.run.record_metrics("service", self.stats())

    async def __aenter__(self) -> "MappingService":
        return await self.start()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    # -- request path ------------------------------------------------------
    async def submit(self, request: MappingRequest) -> MappingResponse:
        """Serve one request: cache, dedup, admit, or queue for dispatch."""
        if self._queue is None:
            raise ConfigurationError("MappingService is not started")
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
        queue_depth = self._queue.qsize()
        self._event(
            "request",
            key=key,
            client=request.client,
            solver=str(request.solver),
            n_tasks=request.problem.n_tasks,
            queue_depth=queue_depth,
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
            await self._queue.put(_Work(key, digest, request, future, charged=charge))
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

    # -- dispatcher --------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        closing = False
        while not closing:
            item = await self._queue.get()
            if item is None:
                break
            batch = [item]
            deadline = loop.time() + self.config.coalesce_window
            while len(batch) < self.config.max_batch:
                try:
                    nxt = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        break
                    try:
                        nxt = await asyncio.wait_for(self._queue.get(), remaining)
                    except asyncio.TimeoutError:
                        break
                if nxt is None:
                    closing = True
                    break
                batch.append(nxt)
            await self._run_batch(batch)

    async def _run_batch(self, batch: list[_Work]) -> None:
        assert self._pool is not None and self._queue is not None
        width = len(batch)
        queue_depth = self._queue.qsize()
        self._counters["batches"] += 1
        self._counters["batched_requests"] += width
        self._counters["worker_cells"] += width
        self._counters["max_batch_width"] = max(
            self._counters["max_batch_width"], width
        )
        if width >= 2:
            self._counters["coalesced_batches"] += 1

        solve_watch = Stopwatch().start()
        pool = self._pool
        try:
            # Publish each distinct problem once; repeats reuse the handle.
            # Publication is inside the guarded region: a pool that died
            # under the dispatcher raises here first, and an escaped
            # exception would kill the dispatch loop and strand every
            # queued future unresolved.
            fresh = 0
            for work in batch:
                if work.digest not in self._published:
                    self._published[work.digest] = pool.publish_problem(
                        work.request.problem
                    )
                    fresh += 1
            cells = [
                _ServiceCell(
                    problem_ref=self._published[work.digest],
                    solver=work.request.solver,
                    seed=work.request.seed,
                    max_evaluations=work.request.max_evaluations,
                    n_tasks=work.request.problem.n_tasks,
                )
                for work in batch
            ]
            queue_wait = max(w.waited.stop() for w in batch)
            self._event(
                "batch-dispatched",
                width=width,
                queue_depth=queue_depth,
                problems_published=fresh,
                max_queue_wait_s=queue_wait,
            )
            report = await asyncio.get_running_loop().run_in_executor(
                None, lambda: pool.map_salvage(_solve_cell, cells, weight=_cell_weight)
            )
        except Exception as exc:
            # The dispatch itself died (pool closed under us, publication
            # failed, executor unusable). No request in this batch produced
            # a result, so every admission charge is refunded before the
            # error fans out.
            solve_s = solve_watch.stop()
            for work in batch:
                refunded = self.quotas.refund(work.request.client, work.charged)
                if refunded:
                    self._counters["refunded_evaluations"] += refunded
                    self._event(
                        "quota-refunded",
                        key=work.key,
                        client=work.request.client,
                        refunded=refunded,
                        kind="dispatch-error",
                    )
                self._inflight.pop(work.key, None)
                if not work.future.done():
                    work.future.set_result(
                        {
                            "error": {
                                "kind": "dispatch-error",
                                "attempts": 0,
                                "message": f"{type(exc).__name__}: {exc}",
                                "refunded": refunded,
                            }
                        }
                    )
            self._event(
                "batch-failed", width=width, solve_s=solve_s, message=str(exc)
            )
            return
        solve_s = solve_watch.stop()

        failed = {f.index: f for f in report.failures}
        for index, work in enumerate(batch):
            failure = failed.get(index)
            if failure is not None:
                # The request never produced a result: return its admission
                # charge so a failed dispatch can't leak quota forever.
                refunded = self.quotas.refund(work.request.client, work.charged)
                if refunded:
                    self._counters["refunded_evaluations"] += refunded
                    self._event(
                        "quota-refunded",
                        key=work.key,
                        client=work.request.client,
                        refunded=refunded,
                        kind=failure.kind,
                    )
                payload: dict[str, Any] = {
                    "error": {
                        "kind": failure.kind,
                        "attempts": failure.attempts,
                        "message": failure.message,
                        "refunded": refunded,
                    }
                }
            else:
                payload = report.results[index]
                self.cache.put(work.key, payload)
            self._inflight.pop(work.key, None)
            if not work.future.done():
                work.future.set_result(payload)
        self._event(
            "batch-completed",
            width=width,
            solve_s=solve_s,
            failures=len(report.failures),
            retries=report.n_retries,
        )

    # -- observability -----------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Counters for ``/stats``, the bench report and the run metrics."""
        batches = self._counters["batches"]
        return {
            **self._counters,
            "mean_batch_width": (
                self._counters["batched_requests"] / batches if batches else 0.0
            ),
            "cache": self.cache.stats(),
            "quotas": self.quotas.snapshot(),
            "workers": self._pool.n_workers if self._pool is not None else None,
        }

    def _event(self, event: str, **fields: Any) -> None:
        if self.run is not None:
            self.run.log_event(event, **fields)
