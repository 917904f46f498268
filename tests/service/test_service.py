"""The mapping gateway (``repro.service``).

The contracts under test: responses are bit-identical to direct
``Mapper.map`` solves no matter how requests are cached, deduplicated,
interleaved or retried; cache hits cost no worker time and no quota;
over-quota requests get a structured rejection, not a timeout; each cache
miss is its own dispatch to a pool worker, up to one per worker at once.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import kernels
from repro.graphs import generate_paper_pair
from repro.mapping import MappingProblem
from repro.exceptions import ConfigurationError
from repro.runstore import RunStore
from repro.runtime.registry import SolverSpec
from repro.service import MappingRequest, MappingService, ServiceConfig
from repro.utils.faults import FAULTS_ENV

AVAILABLE = [name for name, ok in kernels.available_backends().items() if ok]

SPEC = SolverSpec.of("match", {"max_iterations": 40})

#: A disk-tier entry exactly as an earlier gateway, which built its payloads
#: in the worker, wrote it for ``make_problem()``, ``SPEC`` and seed 3: the
#: file name is the cache key and the body the payload.
PERSISTED_KEY = "596752ea60ba6d6fb176b557aadd30395401465ba8bd36c15e14f789311df354"
PERSISTED_ENTRY = (
    '{"assignment":[1,9,3,4,6,7,8,2,0,5],"execution_time":4998.0,'
    '"mapper_name":"MaTCH","mapping_time":0.011440910006058402,"n_evaluations":5000}'
)


def make_problem(n: int = 10, seed: int = 7) -> MappingProblem:
    pair = generate_paper_pair(n, seed)
    return MappingProblem(pair.tig, pair.resources, require_square=True)


def serve(coro_fn, **config_kwargs):
    """Run ``coro_fn(service)`` against a fresh serial-pool gateway."""
    config = ServiceConfig(n_workers=1, **config_kwargs)

    async def main():
        async with MappingService(config) as service:
            return await coro_fn(service)

    return asyncio.run(main())


class TestBitParity:
    @pytest.mark.parametrize("backend", AVAILABLE)
    def test_response_matches_direct_solve(self, backend):
        problem = make_problem()

        async def go(service):
            request = MappingRequest(problem=problem, solver=SPEC, seed=3)
            first = await service.submit(request)
            again = await service.submit(request)
            return first, again

        with kernels.use_backend(backend):
            first, again = serve(go)
            direct = SPEC.build().map(problem, 3)

        assert first.status == "ok" and not first.cached
        assert again.status == "ok" and again.cached
        assert first.key == PERSISTED_KEY
        persisted = json.loads(PERSISTED_ENTRY)
        for response in (first, again):
            # The earlier gateway's payload format: same keys, and the same
            # values apart from the measured wall-clock.
            assert response.result.keys() == persisted.keys()
            assert response.result["mapper_name"] == direct.mapper_name
            assert response.result["assignment"] == [int(x) for x in direct.assignment]
            assert response.result["execution_time"] == direct.execution_time
            assert response.result["n_evaluations"] == direct.n_evaluations
            for field in ("mapper_name", "assignment", "execution_time", "n_evaluations"):
                assert response.result[field] == persisted[field]

    def test_entry_persisted_by_an_earlier_gateway_is_a_hit(self, tmp_path):
        (tmp_path / f"{PERSISTED_KEY}.json").write_text(PERSISTED_ENTRY, encoding="utf-8")

        async def go(service):
            return await service.submit(MappingRequest(problem=make_problem(), solver=SPEC, seed=3))

        response = serve(go, cache_dir=tmp_path)
        assert response.status == "ok" and response.cached
        assert response.key == PERSISTED_KEY
        assert response.result == json.loads(PERSISTED_ENTRY)

    @pytest.mark.skipif(len(AVAILABLE) < 2, reason="needs a compiled backend")
    def test_cache_key_is_backend_invariant(self):
        """An entry cached under one backend serves hits under another —
        sound because the kernel parity matrix keeps backends bit-exact."""
        problem = make_problem()
        request = MappingRequest(problem=problem, solver=SPEC, seed=3)

        async def fill(service):
            return await service.submit(request)

        config = ServiceConfig(n_workers=1)

        async def main():
            async with MappingService(config) as service:
                with kernels.use_backend(AVAILABLE[0]):
                    first = await service.submit(request)
                with kernels.use_backend(AVAILABLE[1]):
                    second = await service.submit(request)
                return first, second

        first, second = asyncio.run(main())
        assert not first.cached and second.cached
        assert second.result == first.result


class TestEvaluationCap:
    def test_capped_solve_is_not_served_to_an_uncapped_request(self):
        # A capped run stops early, so its result must not answer the same
        # (problem, solver, seed) asked without a cap.
        problem = make_problem(8, 5)
        spec = SolverSpec.of("match")

        async def go(service):
            capped = await service.submit(
                MappingRequest(problem=problem, solver=spec, seed=5, max_evaluations=50)
            )
            uncapped = await service.submit(
                MappingRequest(problem=problem, solver=spec, seed=5)
            )
            return capped, uncapped

        capped, uncapped = serve(go)
        direct = spec.build().map(problem, 5)
        assert capped.ok and capped.result["n_evaluations"] == 50
        assert uncapped.ok and not uncapped.cached
        assert uncapped.key != capped.key
        assert uncapped.result["n_evaluations"] == direct.n_evaluations
        assert uncapped.result["execution_time"] == direct.execution_time


class TestQuota:
    def test_over_quota_is_a_structured_rejection(self):
        async def go(service):
            ok = await service.submit(
                MappingRequest(
                    problem=make_problem(), solver=SPEC, seed=1, client="c1",
                    max_evaluations=900,
                )
            )
            rejected = await service.submit(
                MappingRequest(
                    problem=make_problem(seed=8), solver=SPEC, seed=2, client="c1",
                    max_evaluations=900,
                )
            )
            return ok, rejected

        ok, rejected = serve(go, client_quota=1000)
        assert ok.status == "ok" and ok.charged == 900
        assert rejected.status == "rejected"
        assert rejected.error["kind"] == "over-quota"
        assert rejected.error["requested"] == 900
        assert rejected.error["remaining"] == 100
        assert rejected.result is None

    def test_cache_hits_free_even_when_quota_exhausted(self):
        async def go(service):
            request = MappingRequest(
                problem=make_problem(), solver=SPEC, seed=1, client="c1",
                max_evaluations=1000,
            )
            first = await service.submit(request)
            hit = await service.submit(request)  # quota now exhausted
            return first, hit

        first, hit = serve(go, client_quota=1000)
        assert first.status == "ok"
        assert hit.status == "ok" and hit.cached and hit.charged == 0
        assert hit.result == first.result

    def test_quota_is_per_client(self):
        async def go(service):
            a = await service.submit(
                MappingRequest(
                    problem=make_problem(), solver=SPEC, seed=1, client="a",
                    max_evaluations=800,
                )
            )
            b = await service.submit(
                MappingRequest(
                    problem=make_problem(), solver=SPEC, seed=2, client="b",
                    max_evaluations=800,
                )
            )
            return a, b

        a, b = serve(go, client_quota=1000)
        assert a.status == "ok" and b.status == "ok"


class TestCoalescing:
    """``coalesced`` requests attach to an identical in-flight solve."""

    def test_concurrent_submits_coalesce_and_dedup(self):
        problem = make_problem()

        async def go(service):
            requests = [
                MappingRequest(problem=problem, solver=SPEC, seed=s)
                for s in (1, 2, 3, 1)
            ]
            responses = await asyncio.gather(*[service.submit(r) for r in requests])
            return responses, service.stats()

        responses, stats = serve(go)
        assert all(r.status == "ok" for r in responses)
        # The duplicate seed-1 request single-flights onto the in-flight
        # solve: served, but never dispatched or charged.
        assert stats["coalesced_dedup"] == 1
        assert stats["batches"] == 3
        assert responses[3].coalesced
        assert responses[0].result == responses[3].result
        assert responses[3].charged == 0

    def test_results_invariant_under_arrival_interleaving(self):
        """Same request set, three different arrival orders/timings —
        bit-identical response payloads per (problem, spec, seed)."""
        problems = [make_problem(seed=s) for s in (7, 8)]
        requests = [
            MappingRequest(problem=problems[i % 2], solver=SPEC, seed=s)
            for i, s in enumerate((1, 2, 3, 4))
        ]

        def replay(order, stagger_s):
            async def go(service):
                async def submit(i):
                    await asyncio.sleep(stagger_s * i)
                    return i, await service.submit(requests[i])

                pairs = await asyncio.gather(*[submit(i) for i in order])
                # mapping_time is wall-clock by design; the deterministic
                # contract covers the solve outcome.
                return {
                    i: {
                        "assignment": resp.result["assignment"],
                        "execution_time": resp.result["execution_time"],
                        "n_evaluations": resp.result["n_evaluations"],
                    }
                    for i, resp in pairs
                }

            return serve(go)

        serial_like = replay([0, 1, 2, 3], 0.02)  # arrives spread out
        burst = replay([0, 1, 2, 3], 0.0)  # one concurrent burst
        reversed_burst = replay([3, 2, 1, 0], 0.0)
        assert burst == serial_like
        assert reversed_burst == serial_like


class TestLifecycle:
    def test_submit_before_start_raises(self):
        service = MappingService(ServiceConfig(n_workers=1))
        with pytest.raises(ConfigurationError):
            asyncio.run(service.submit(
                MappingRequest(problem=make_problem(), solver=SPEC, seed=1)
            ))

    def test_submit_after_close_raises_before_admission(self):
        """A closed service has no pool left to solve on: a miss must be
        refused at once, not admitted, charged and left waiting forever."""
        service = MappingService(ServiceConfig(n_workers=1))

        async def go():
            await service.start()
            await service.close()
            await asyncio.wait_for(
                service.submit(
                    MappingRequest(problem=make_problem(), solver=SPEC, seed=1)
                ),
                timeout=5,
            )

        with pytest.raises(ConfigurationError):
            asyncio.run(go())
        assert service.quotas.used("anonymous") == 0

    def test_close_answers_every_admitted_request(self):
        async def main():
            service = await MappingService(ServiceConfig(n_workers=1)).start()
            pending = [
                asyncio.create_task(service.submit(
                    MappingRequest(problem=make_problem(), solver=SPEC, seed=s)
                ))
                for s in (1, 2)
            ]
            await asyncio.sleep(0)  # both are admitted and dispatched
            await service.close()
            return [task.result() for task in pending]

        responses = asyncio.run(main())
        assert [r.status for r in responses] == ["ok", "ok"]

    def test_stats_shape(self):
        async def go(service):
            await service.submit(
                MappingRequest(problem=make_problem(), solver=SPEC, seed=1)
            )
            return service.stats()

        stats = serve(go)
        assert stats["requests"] == 1
        assert stats["batches"] == 1
        assert stats["cache"]["entries"] == 1
        assert stats["workers"] == 1


class TestQuotaRefund:
    """Charge-before-queue must not leak: a request that never produces a
    result (cell failure after salvage, or the dispatch itself dying) gets
    its admission charge back, and the ledger balances to zero."""

    BROKEN = SolverSpec.of("match", {"bogus_param": 1})  # build() raises in the worker

    def test_failed_cell_refunds_admission_charge(self):
        async def go(service):
            request = MappingRequest(
                problem=make_problem(),
                solver=self.BROKEN,
                seed=3,
                client="leaky",
                max_evaluations=400,
            )
            response = await service.submit(request)
            return response, service.quotas.snapshot(), service.stats()

        response, quotas, stats = serve(go, client_quota=1000)
        assert response.status == "failed"
        assert response.error["kind"] == "exception"
        assert response.error["refunded"] == 400
        assert response.charged == 0  # net charge after the refund
        assert quotas["clients"]["leaky"] == 0  # ledger balanced
        assert stats["refunded_evaluations"] == 400

    def test_mixed_batch_refunds_only_the_failures(self):
        async def go(service):
            good = MappingRequest(
                problem=make_problem(), solver=SPEC, seed=3,
                client="mixed", max_evaluations=300,
            )
            bad = MappingRequest(
                problem=make_problem(), solver=self.BROKEN, seed=4,
                client="mixed", max_evaluations=200,
            )
            responses = await asyncio.gather(service.submit(good), service.submit(bad))
            return responses, service.quotas.snapshot()

        (ok, failed), quotas = serve(go, client_quota=1000)
        assert ok.status == "ok" and ok.charged == 300
        assert failed.status == "failed" and failed.charged == 0
        # Only the successful solve stays charged.
        assert quotas["clients"]["mixed"] == 300

    def test_pool_death_mid_batch_refunds_every_charge(self):
        """Kill the pool out from under the dispatcher: the whole batch
        fails as dispatch-error and every admission charge is returned."""

        async def go(service):
            service._pool.close()  # the pool dies before the batch dispatches
            requests = [
                MappingRequest(
                    problem=make_problem(), solver=SPEC, seed=10 + i,
                    client="victim", max_evaluations=250,
                )
                for i in range(3)
            ]
            responses = await asyncio.gather(*(service.submit(r) for r in requests))
            stats = service.stats()
            service._pool = None  # already closed; skip double-close in teardown
            return responses, stats

        responses, stats = serve(go, client_quota=1000)
        for response in responses:
            assert response.status == "failed"
            assert response.error["kind"] == "dispatch-error"
            assert response.charged == 0
        assert stats["quotas"]["clients"]["victim"] == 0
        assert stats["refunded_evaluations"] == 750

    def test_refund_never_goes_below_zero(self):
        from repro.service import QuotaLedger

        ledger = QuotaLedger(1000)
        assert ledger.admit("c", 100) is None
        assert ledger.refund("c", 500) == 100  # clamped to what was charged
        assert ledger.used("c") == 0
        assert ledger.refund("c", 10) == 0


class TestPoolDispatch:
    """Each cache miss is its own dispatch to a worker of a parallel pool."""

    def test_concurrent_misses_are_both_in_flight(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        run = store.start_run("service")

        async def main():
            config = ServiceConfig(n_workers=2)
            async with MappingService(config, run=run) as service:
                responses = await asyncio.gather(*(
                    service.submit(MappingRequest(
                        problem=make_problem(seed=s), solver=SPEC, seed=s
                    ))
                    for s in (7, 8)
                ))
                # Cells carry their problem: the gateway publishes nothing.
                return responses, service._pool._plane.n_published

        responses, published = asyncio.run(main())
        assert published == 0
        assert all(r.ok and not r.cached for r in responses)
        events = [
            e["event"]
            for e in store.read_events(run.run_id)
            if e["event"] in ("batch-dispatched", "batch-completed")
        ]
        # Both solves were dispatched before either completed: two in flight.
        assert events == ["batch-dispatched"] * 2 + ["batch-completed"] * 2

    def test_lone_miss_survives_a_worker_kill(self, monkeypatch, tmp_path):
        """A single miss runs on a worker, so the fabric's retry covers it."""
        monkeypatch.setenv(FAULTS_ENV, "kill@0")
        store = RunStore(tmp_path / "runs")
        run = store.start_run("service")
        problem = make_problem()

        async def main():
            async with MappingService(ServiceConfig(n_workers=2), run=run) as service:
                return await service.submit(
                    MappingRequest(problem=problem, solver=SPEC, seed=3)
                )

        response = asyncio.run(main())
        monkeypatch.delenv(FAULTS_ENV)
        direct = SPEC.build().map(problem, 3)
        assert response.ok
        assert response.result["assignment"] == [int(x) for x in direct.assignment]
        assert response.result["execution_time"] == direct.execution_time
        assert response.result["n_evaluations"] == direct.n_evaluations
        (completed,) = [
            e for e in store.read_events(run.run_id) if e["event"] == "batch-completed"
        ]
        assert completed["retries"] >= 1
