"""The benchmark's four workloads: inputs, set-up, timed loop, output checks.

Each workload turns ``--seed`` into its inputs with :meth:`Workload.inputs`
(a pure function: the same seed gives the same inputs), builds what the
timed loop needs in :meth:`Workload.setup`, runs operations in
:meth:`Workload.run`, and verifies every returned mapping in
:meth:`Workload.check`, outside the timed window. :meth:`Workload.teardown`
releases whatever set-up started (pool, service, event loop); the runner
calls it in ``finally``.

One *operation* is one call a user of the system would make: a ``map``
call, a ``map_many`` call, a service request, or a loopback island run.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.distributed import DistributedMatchConfig, DistributedMatchMapper
from repro.core.match import MatchMapper
from repro.graphs import generate_paper_pair
from repro.islands import run_loopback
from repro.kernels.dispatch import get_backend, reset_kernel_state
from repro.mapping import MappingProblem
from repro.mapping.cost_model import evaluate_reference
from repro.runtime.hooks import SearchHooks
from repro.runtime.registry import SolverSpec
from repro.service import MappingRequest, MappingService, ServiceConfig
from repro.service import wire as service_wire

from tracer import REQUEST_ID, Tracer

#: Root of the fixed instance pools. Every workload draws its paper pairs
#: from a pool that does not depend on the benchmark seed, so runs with
#: different seeds measure comparable work: a solve's cost differs far more
#: between pairs than between CE seeds on one pair.
POOL_SEED = 2005

#: Fields of a result that must agree bit for bit between two solves.
RESULT_FIELDS = ("assignment", "execution_time", "n_evaluations")


def derive_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed that depends only on ``seed`` and ``keys``."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def build_problem(size: int, instance_seed: int) -> MappingProblem:
    """The paper's §5.2 pair at ``size``, as the CLI and the service build it."""
    pair = generate_paper_pair(size, instance_seed)
    return MappingProblem(pair.tig, pair.resources, require_square=True)


def fixed_pool(size: int, count: int) -> list[int]:
    """Instance seeds of the first ``count`` pool pairs at ``size``."""
    return [derive_seed(POOL_SEED, size, k) for k in range(count)]


def job_index(state: dict[str, Any], i: int) -> int:
    """Position in the fixed job list of operation ``i``."""
    inputs = state["inputs"]
    return (inputs["start"] + i) % len(inputs["jobs"])


def job_at(state: dict[str, Any], i: int) -> tuple[MappingProblem, int]:
    """(problem, CE seed) of operation ``i`` of a fixed-list workload."""
    instance, ce_seed = state["inputs"]["jobs"][job_index(state, i)]
    return state["problems"][instance], ce_seed


#: Fixed input of the host-speed probe.
_PROBE_ROWS = np.random.default_rng(0).random((2000, 50))
#: About one probe per this many seconds of closed-loop operations.
PROBE_EVERY_S = 0.5


def host_probe() -> float:
    """Seconds a fixed slice of numpy and interpreter work takes right now.

    A host that shares its cores drifts in speed (up to 40% over tens of
    seconds on a 2-core 2.1 GHz VM). The probe's time tracks that drift, so
    closed-loop throughput and set-up time are reported at a reference
    probe time.
    """
    t0 = time.perf_counter()
    np.argsort(_PROBE_ROWS, axis=1)
    np.cumsum(_PROBE_ROWS, axis=1)
    x = 0
    for k in range(20_000):
        x += k * k
    return time.perf_counter() - t0


class ProbeHook(SearchHooks):
    """Probes the host speed every :data:`PROBE_EVERY_S` inside a long solve."""

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.spent = 0.0
        self._due = time.perf_counter() + PROBE_EVERY_S

    def on_iteration(self, solver: Any, report: Any) -> None:
        start = time.perf_counter()
        if start >= self._due:
            self.probes.append(host_probe())
            end = time.perf_counter()
            self.spent += end - start
            self._due = end + PROBE_EVERY_S


def load_kernels() -> None:
    """Forget and reload the kernel backend (the ``.so`` load is set-up)."""
    reset_kernel_state()
    get_backend()


def core(result: dict[str, Any]) -> dict[str, Any]:
    return {k: result[k] for k in RESULT_FIELDS}


def mapper_result(result: Any) -> dict[str, Any]:
    return {
        "assignment": [int(x) for x in result.assignment],
        "execution_time": float(result.execution_time),
        "n_evaluations": int(result.n_evaluations),
    }


def validate(problem: MappingProblem, result: dict[str, Any]) -> str | None:
    """None if ``result`` is a one-to-one mapping whose ET is Eq. (2)."""
    x = result["assignment"]
    if len(x) != problem.n_tasks or len(set(x)) != len(x):
        return "assignment is not one-to-one"
    if min(x) < 0 or max(x) >= problem.n_resources:
        return "assignment names a resource out of range"
    reference = evaluate_reference(problem, np.asarray(x, dtype=np.int64))
    if result["execution_time"] != reference:
        return f"reported ET {result['execution_time']!r} != reference {reference!r}"
    return None


@dataclass
class Op:
    """One timed operation and what it returned."""

    index: int
    #: perf_counter time the operation was due (closed loop: when it started).
    due: float
    end: float = 0.0
    ok: bool = False
    #: "solve" when the answer needed a solve, "hit" when the cache served it.
    kind: str = "solve"
    size: int = 0
    #: MaTCH runs the operation stands for (30 for one Table-3 map_many call).
    runs: int = 1
    results: list[dict[str, Any]] = field(default_factory=list)
    error: str | None = None
    #: Open loop only: how late the generator sent the request.
    lateness: float = 0.0
    #: Closed loop only: host-speed probe times taken during or right after
    #: the operation (see :func:`host_probe`), and the time spent probing
    #: inside it, which its latency leaves out.
    probes: list[float] = field(default_factory=list)
    paused: float = 0.0
    #: The job the operation runs; operations that share a job do the same
    #: work (a fixed-list position, or the job a service request repeats).
    job: int = 0

    @property
    def latency(self) -> float:
        return self.end - self.due - self.paused

    def fail(self, error: str) -> None:
        if self.ok:
            self.ok = False
            self.error = error


class Workload:
    """Interface shared by the four workloads."""

    name = ""
    why = ""
    #: Latency limit an ``ok`` operation must meet to count as goodput.
    limit_s = 1.0
    #: How many times set-up runs per benchmark run (the median is reported).
    setup_repeats = 9
    #: Closed loop: the next operation starts when the previous one ends.
    closed_loop = True

    def __init__(self, scale: str = "paper") -> None:
        if scale not in ("paper", "tiny"):
            raise ValueError(f"unknown scale {scale!r}")
        self.scale = scale

    def inputs(self, seed: int, seconds: float) -> dict[str, Any]:
        raise NotImplementedError

    def setup(self, inputs: dict[str, Any], tracer: Tracer) -> dict[str, Any]:
        raise NotImplementedError

    def run(
        self,
        state: dict[str, Any],
        tracer: Tracer,
        *,
        seconds: float | None = None,
        n_ops: int | None = None,
    ) -> list[Op]:
        raise NotImplementedError

    def check(self, state: dict[str, Any], ops: list[Op]) -> None:
        raise NotImplementedError

    def teardown(self, state: dict[str, Any]) -> None:
        """Release what set-up started; idempotent."""

    def layer_extras(self, state: dict[str, Any], ops: list[Op]) -> dict[str, float]:
        """Per-layer figures the workload measures itself (not from spans)."""
        return {}

    @staticmethod
    def _closed_loop(
        op_fn: Any, *, seconds: float | None, n_ops: int | None, cycle: int = 1
    ) -> list[Op]:
        """Run ``op_fn(i, op)`` back to back for ``seconds`` or ``n_ops`` ops.

        The clock is read only every ``cycle`` operations, so a timed run
        covers whole cycles of a fixed job list: as many as bring it closest
        to ``seconds``.
        """
        ops: list[Op] = []
        t0 = time.perf_counter()
        i = 0
        while True:
            if n_ops is not None and i >= n_ops:
                break
            if n_ops is None and i > 0 and i % cycle == 0:
                elapsed = time.perf_counter() - t0
                if elapsed + elapsed / (i // cycle) / 2 >= (seconds or 0.0):
                    break
            op = Op(index=i, due=time.perf_counter(), job=i)
            try:
                op_fn(i, op)
                op.ok = True
            except Exception as exc:  # an operation failure is counted, not fatal
                op.error = f"{type(exc).__name__}: {exc}"
            op.end = time.perf_counter()
            if not op.probes:
                n_probes = min(8, 1 + int(op.latency / PROBE_EVERY_S))
                op.probes = [host_probe() for _ in range(n_probes)]
            ops.append(op)
            i += 1
        return ops


# -- solve-n50 ----------------------------------------------------------------


class SolveN50(Workload):
    name = "solve-n50"
    why = "closed-loop MatchMapper.map at the paper's largest size n=50: the CE inner loop"
    limit_s = 10.0

    #: A run holds only four 5-7 s solves. A solve's cost varies by 30%
    #: between pairs and by 10-15% between CE seeds on one pair, too much to
    #: average out over four solves, so the inputs are a fixed list of two
    #: solves of one pair, run as whole cycles; the seed picks where a run
    #: starts in the list.
    N_JOBS = 2

    def inputs(self, seed: int, seconds: float) -> dict[str, Any]:
        size = 50 if self.scale == "paper" else 8
        jobs = [(0, derive_seed(POOL_SEED, 1, k)) for k in range(self.N_JOBS)]
        return {"size": size, "pool": fixed_pool(size, 1), "jobs": jobs, "start": seed % len(jobs)}

    def setup(self, inputs: dict[str, Any], tracer: Tracer) -> dict[str, Any]:
        load_kernels()
        problems = [build_problem(inputs["size"], s) for s in inputs["pool"]]
        return {"inputs": inputs, "problems": problems}

    def run(self, state, tracer, *, seconds=None, n_ops=None):
        def op_fn(i: int, op: Op) -> None:
            problem, ce_seed = job_at(state, i)
            op.size, op.job = problem.n_tasks, job_index(state, i)
            # A solve takes 5-7 s: probe the host speed inside it, not only after.
            hook = ProbeHook()
            op.results = [mapper_result(MatchMapper().map(problem, ce_seed, hooks=hook))]
            op.probes, op.paused = hook.probes, hook.spent

        cycle = len(state["inputs"]["jobs"])
        return self._closed_loop(op_fn, seconds=seconds, n_ops=n_ops, cycle=cycle)

    def check(self, state, ops):
        for op in ops:
            for result in op.results:
                error = validate(job_at(state, op.index)[0], result)
                if error:
                    op.fail(error)


# -- table3-n10 ----------------------------------------------------------------


class Table3N10(Workload):
    name = "table3-n10"
    why = "Table 3 replication: map_many with 30 seeds at n=10 (fused multichain) over many instances"
    limit_s = 2.0

    N_SEEDS = 30
    #: Operations whose 30 runs are re-solved one by one with serial ``map``.
    PARITY_OPS = 2

    def inputs(self, seed: int, seconds: float) -> dict[str, Any]:
        paper = self.scale == "paper"
        size = 10 if paper else 6
        return {
            "size": size,
            "n_seeds": self.N_SEEDS if paper else 4,
            "pool": fixed_pool(size, 32 if paper else 3),
            "seed": seed,
        }

    def setup(self, inputs, tracer):
        load_kernels()
        problems = [build_problem(inputs["size"], s) for s in inputs["pool"]]
        return {"inputs": inputs, "problems": problems}

    def _seeds(self, state: dict[str, Any], i: int) -> list[int]:
        inputs = state["inputs"]
        return [derive_seed(inputs["seed"], 1, i, r) for r in range(inputs["n_seeds"])]

    def run(self, state, tracer, *, seconds=None, n_ops=None):
        problems = state["problems"]

        def op_fn(i: int, op: Op) -> None:
            problem = problems[i % len(problems)]
            seeds = self._seeds(state, i)
            op.size, op.runs = problem.n_tasks, len(seeds)
            op.results = [mapper_result(r) for r in MatchMapper().map_many(problem, seeds)]

        return self._closed_loop(op_fn, seconds=seconds, n_ops=n_ops)

    def check(self, state, ops):
        problems = state["problems"]
        for op in ops:
            problem = problems[op.index % len(problems)]
            for result in op.results:
                error = validate(problem, result)
                if error:
                    op.fail(error)
            if op.index < self.PARITY_OPS and op.ok:
                for seed, result in zip(self._seeds(state, op.index), op.results):
                    serial = mapper_result(MatchMapper().map(problem, seed))
                    if serial != core(result):
                        op.fail(f"map_many run with seed {seed} differs from serial map")


# -- islands-n24 ----------------------------------------------------------------


class IslandsN24(Workload):
    name = "islands-n24"
    why = "2 loopback islands at n=24: the only workload with island wire encoding, sockets and sync waits"
    limit_s = 1.0

    N_ISLANDS = 2
    #: Operations re-run with the sequential DistributedMatchMapper.
    PARITY_OPS = 4

    def _config(self) -> DistributedMatchConfig:
        if self.scale == "paper":
            return DistributedMatchConfig()
        return DistributedMatchConfig(n_agents=4, sync_every=5, total_samples=64, max_rounds=30)

    def inputs(self, seed, seconds):
        # A fixed list of 16 runs (pair k with CE seed k), run as whole
        # cycles, about six a run; the seed picks where a run starts. A
        # loopback run's cost varies by 30% with its CE seed, so seed-drawn
        # CE seeds left a 5% spread in runs_per_s between benchmark seeds.
        paper = self.scale == "paper"
        size = 24 if paper else 8
        n = 16 if paper else 2
        jobs = [(k, derive_seed(POOL_SEED, 2, k)) for k in range(n)]
        return {"size": size, "pool": fixed_pool(size, n), "jobs": jobs, "start": seed % n}

    def setup(self, inputs, tracer):
        load_kernels()
        problems = [build_problem(inputs["size"], s) for s in inputs["pool"]]
        return {"inputs": inputs, "problems": problems, "config": self._config()}

    def run(self, state, tracer, *, seconds=None, n_ops=None):
        def op_fn(i: int, op: Op) -> None:
            problem, ce_seed = job_at(state, i)
            op.size, op.job = problem.n_tasks, job_index(state, i)
            result = run_loopback(
                problem, state["config"], seed=ce_seed, n_islands=self.N_ISLANDS, n_workers=1
            )
            op.results = [
                {
                    "assignment": result["assignment"],
                    "execution_time": result["best_cost"],
                    "n_evaluations": result["n_evaluations"],
                    "rounds": result["extras"]["rounds"],
                    "n_syncs": result["extras"]["n_syncs"],
                }
            ]

        cycle = len(state["inputs"]["jobs"])
        return self._closed_loop(op_fn, seconds=seconds, n_ops=n_ops, cycle=cycle)

    def check(self, state, ops):
        config = state["config"]
        extra_ms, agent_rounds = 0.0, 0
        for op in ops:
            problem, ce_seed = job_at(state, op.index)
            for result in op.results:
                error = validate(problem, result)
                if error:
                    op.fail(error)
            if op.index < self.PARITY_OPS and op.ok:
                t0 = time.perf_counter()
                ref = DistributedMatchMapper(config).map(problem, ce_seed)
                sequential_s = time.perf_counter() - t0
                expect = {
                    **mapper_result(ref),
                    "rounds": ref.extras["rounds"],
                    "n_syncs": ref.extras["n_syncs"],
                }
                if op.results[0] != expect:
                    op.fail("loopback run differs from the sequential simulation")
                extra_ms += (op.latency - sequential_s) * 1e3
                agent_rounds += ref.extras["rounds"] * config.n_agents
        state["overhead_ms_per_agent_round"] = extra_ms / agent_rounds if agent_rounds else 0.0

    def layer_extras(self, state, ops):
        # Measured by check() on the untraced pass only.
        if "overhead_ms_per_agent_round" not in state:
            return {}
        return {"islands.overhead_ms_per_agent_round": state["overhead_ms_per_agent_round"]}


# -- service-mixed ----------------------------------------------------------------


class ServiceMixed(Workload):
    name = "service-mixed"
    why = "open-loop Poisson arrivals to MappingService(n_workers=2): 60% unique jobs, 40% Zipf repeats"
    limit_s = 1.0

    closed_loop = False
    #: Each set-up starts a service and forks its pool, so fewer repeats.
    setup_repeats = 3

    SIZES = (10, 16, 24, 32)
    RATE_PER_S = 4.0
    REPEAT_SHARE = 0.4
    ZIPF_EXPONENT = 1.1
    N_WORKERS = 2
    #: The first jobs (by job id) re-solved directly with spec.build().map.
    PARITY_JOBS = 6

    def inputs(self, seed, seconds):
        paper = self.scale == "paper"
        sizes = self.SIZES if paper else (6, 8)
        rate = self.RATE_PER_S if paper else 20.0
        rng = np.random.default_rng(derive_seed(seed, 0))
        n_requests = max(2, int(round(rate * seconds)))
        # A Poisson process conditioned on its count and on an arrival at 0:
        # sorted uniform times after the first request.
        offsets = [0.0, *np.sort(rng.uniform(0.0, seconds, n_requests - 1)).tolist()]
        # Exactly REPEAT_SHARE of the requests repeat an earlier job, and the
        # new jobs cycle through the sizes in shuffled blocks, so the work
        # mix is the same for every seed and only its order and timing vary.
        n_repeats = int(round(self.REPEAT_SHARE * n_requests))
        repeats = set(rng.choice(np.arange(1, n_requests), n_repeats, replace=False).tolist())
        jobs: list[dict[str, int]] = []
        schedule: list[int] = []
        block: list[int] = []
        made: dict[int, int] = {}
        for i in range(n_requests):
            if i in repeats:
                ranks = np.arange(1, len(jobs) + 1, dtype=np.float64)
                weights = ranks**-self.ZIPF_EXPONENT
                schedule.append(int(rng.choice(len(jobs), p=weights / weights.sum())))
                continue
            if not block:
                block = rng.permutation(sizes).tolist()
            size = int(block.pop())
            made[size] = made.get(size, 0) + 1
            jobs.append(
                {
                    "size": size,
                    "instance": fixed_pool(size, made[size])[-1],
                    "seed": int(rng.integers(2**31)),
                }
            )
            schedule.append(len(jobs) - 1)
        return {"jobs": jobs, "schedule": schedule, "offsets": offsets}

    def _spec(self) -> SolverSpec:
        return SolverSpec.of("match", {})

    def setup(self, inputs, tracer):
        load_kernels()
        spec = self._spec()
        problems = [build_problem(j["size"], j["instance"]) for j in inputs["jobs"]]
        bodies = [
            json.dumps(
                service_wire.request_to_wire(MappingRequest(p, spec, j["seed"], client="perfbench"))
            )
            for p, j in zip(problems, inputs["jobs"])
        ]
        loop = asyncio.new_event_loop()
        state = {"inputs": inputs, "problems": problems, "bodies": bodies, "loop": loop}
        try:
            service = MappingService(ServiceConfig(n_workers=self.N_WORKERS))
            loop.run_until_complete(service.start())
            state["service"] = service
            # Two concurrent requests form a batch of width 2, which forks the
            # pool (a width-1 batch runs in process). Their jobs are not in
            # the trace, so the cache holds nothing the trace asks for.
            warm = [build_problem(6, 1), build_problem(6, 2)]
            loop.run_until_complete(self._warm_up(service, warm, spec))
        except BaseException:
            self.teardown(state)
            raise
        return state

    @staticmethod
    async def _warm_up(
        service: MappingService, problems: list[MappingProblem], spec: SolverSpec
    ) -> None:
        await asyncio.gather(
            *(service.submit(MappingRequest(p, spec, 0, client="warm-up")) for p in problems)
        )

    def run(self, state, tracer, *, seconds=None, n_ops=None):
        n = len(state["inputs"]["schedule"]) if n_ops is None else n_ops
        return state["loop"].run_until_complete(self._drive(state, tracer, n))

    async def _drive(self, state: dict[str, Any], tracer: Tracer, n: int) -> list[Op]:
        offsets = state["inputs"]["offsets"]
        t0 = time.perf_counter() + 0.02
        tasks = []
        for i in range(n):
            due = t0 + offsets[i]
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(self._request(state, tracer, i, due)))
        return list(await asyncio.gather(*tasks))

    async def _request(self, state: dict[str, Any], tracer: Tracer, i: int, due: float) -> Op:
        job = state["inputs"]["schedule"][i]
        op = Op(index=i, due=due, size=state["problems"][job].n_tasks, job=job)
        op.lateness = time.perf_counter() - due
        REQUEST_ID.set(i)  # task-local: this task's context is a copy
        try:
            with tracer.span("service.request"):
                # The two calls the HTTP handler makes for a /solve body.
                request = service_wire.request_from_wire(json.loads(state["bodies"][job]))
                response = await state["service"].submit(request)
            if response.ok:
                op.ok = True
                op.kind = "hit" if response.cached else "solve"
                op.results = [response.result]
            else:
                op.error = f"{response.status}: {response.error}"
        except Exception as exc:
            op.error = f"{type(exc).__name__}: {exc}"
        op.end = time.perf_counter()
        return op

    def check(self, state, ops):
        schedule, problems = state["inputs"]["schedule"], state["problems"]
        jobs = state["inputs"]["jobs"]
        first: dict[int, dict[str, Any]] = {}
        for op in ops:
            if not op.ok:
                continue
            job = schedule[op.index]
            result = op.results[0]
            error = validate(problems[job], result)
            if error:
                op.fail(error)
            elif first.setdefault(job, core(result)) != core(result):
                op.fail("two answers for one job differ")
        spec = self._spec()
        for job in sorted(first)[: self.PARITY_JOBS]:
            direct = mapper_result(spec.build().map(problems[job], jobs[job]["seed"]))
            if direct != first[job]:
                for op in ops:
                    if schedule[op.index] == job:
                        op.fail("service answer differs from a direct solve")

    def teardown(self, state):
        service = state.pop("service", None)
        loop = state.get("loop")
        try:
            if service is not None:
                state["stats"] = service.stats()
                state["child_hwm_mb"] = children_hwm_mb()
                loop.run_until_complete(service.close())
        finally:
            if loop is not None and not loop.is_closed():
                loop.run_until_complete(loop.shutdown_default_executor())
                loop.close()

    def layer_extras(self, state, ops):
        stats = state.get("stats", {})
        schedule = state["inputs"]["schedule"]
        # One mapping_time per job: coalesced requests share one solve.
        busy = {
            schedule[op.index]: op.results[0]["mapping_time"]
            for op in ops
            if op.ok and op.kind == "solve"
        }
        wall = max(op.end for op in ops) - min(op.due for op in ops) if ops else 0.0
        return {
            "service.batch_width_mean": float(stats.get("mean_batch_width", 0.0)),
            "service.batches": float(stats.get("batches", 0)),
            "service.coalesced_dedup": float(stats.get("coalesced_dedup", 0)),
            "service.worker_utilization": (
                sum(busy.values()) / (self.N_WORKERS * wall) if wall > 0 else 0.0
            ),
        }


def proc_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of one process, in MiB; 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def children_hwm_mb() -> float:
    return sum(proc_hwm_mb(p.pid) for p in multiprocessing.active_children())


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (SolveN50, Table3N10, ServiceMixed, IslandsN24)
}
