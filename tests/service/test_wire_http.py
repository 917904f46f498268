"""Wire encoding and the stdlib HTTP front of the gateway."""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.exceptions import ValidationError
from repro.graphs import generate_paper_pair
from repro.mapping import MappingProblem, problem_key
from repro.runtime.registry import SolverSpec
from repro.service import (
    MappingService,
    ServiceConfig,
    problem_from_wire,
    problem_to_wire,
    request_from_wire,
    request_to_wire,
    start_http_server,
    submit_over_http,
)
from repro.service.wire import MAX_WIRE_TASKS


def make_problem(n: int = 10, seed: int = 7) -> MappingProblem:
    pair = generate_paper_pair(n, seed)
    return MappingProblem(pair.tig, pair.resources, require_square=True)


class TestWire:
    def test_problem_round_trip_preserves_key(self):
        problem = make_problem()
        rebuilt = problem_from_wire(problem_to_wire(problem))
        assert problem_key(rebuilt) == problem_key(problem)

    def test_generator_spec_matches_local_build(self):
        problem = problem_from_wire({"size": 10, "seed": 7})
        assert problem_key(problem) == problem_key(make_problem(10, 7))

    def test_request_round_trip(self):
        request = request_from_wire(
            {
                "problem": {"size": 8, "seed": 3},
                "solver": {"name": "match", "params": {"max_iterations": 40}},
                "seed": 11,
                "client": "c1",
            }
        )
        assert request.seed == 11
        assert request.client == "c1"
        assert request.solver == SolverSpec.of("match", {"max_iterations": 40})
        again = request_from_wire(request_to_wire(request))
        assert problem_key(again.problem) == problem_key(request.problem)
        assert (again.solver, again.seed, again.client) == (
            request.solver, request.seed, request.client,
        )

    def test_defaults(self):
        request = request_from_wire({"problem": {"size": 8}})
        assert request.solver.name == "match"
        assert request.client == "anonymous"

    @pytest.mark.parametrize(
        "solver",
        [
            {"name": "match", "params": {"bogus": 1}},
            {"name": "match", "params": {"dedup": False}},
            {"name": "match", "params": {"zeta": 0.0}},
            {"name": "no-such-solver"},
        ],
        ids=["unknown-param", "retired-dedup", "out-of-range", "unknown-solver"],
    )
    def test_invalid_solver_rejected_at_decode(self, solver):
        # Rejected before admission: the spec's mapper is built at decode,
        # not first in a worker after the quota was charged.
        with pytest.raises(ValidationError):
            request_from_wire({"problem": {"size": 8}, "solver": solver})

    def test_malformed_problem_rejected(self):
        with pytest.raises(ValidationError):
            problem_from_wire({"neither": True})

    @pytest.mark.parametrize("size", [MAX_WIRE_TASKS + 1, 10**9])
    def test_oversized_generator_spec_rejected(self, size, monkeypatch):
        def _never(*args):
            raise AssertionError("generator ran before the size check")

        monkeypatch.setattr("repro.graphs.generate_paper_pair", _never)
        with pytest.raises(ValidationError, match="at most"):
            problem_from_wire({"size": size})

    @pytest.mark.parametrize("size", [2.7, 10.0, "10", None, True])
    def test_non_integer_size_rejected(self, size):
        with pytest.raises(ValidationError, match="must be an integer"):
            problem_from_wire({"size": size})

    @pytest.mark.parametrize(
        "fields",
        [
            {"max_evaluations": 0},
            {"max_evaluations": -5},
            {"max_evaluations": 2.7},
            {"max_evaluations": True},
            {"seed": -1},
            {"seed": 2.7},
            {"seed": True},
            {"seed": "7"},
            {"problem": {"size": 8, "seed": 2.5}},
            {"problem": {"size": 8, "seed": -1}},
        ],
        ids=[
            "max-evals-zero", "max-evals-negative", "max-evals-float", "max-evals-bool",
            "seed-negative", "seed-float", "seed-bool", "seed-string",
            "problem-seed-float", "problem-seed-negative",
        ],
    )
    def test_bad_integer_fields_rejected_at_decode(self, fields):
        # Never truncated, and never left to fail in admission or a worker.
        with pytest.raises(ValidationError, match="must be an integer"):
            request_from_wire({"problem": {"size": 8}, **fields})

    def test_size_cap_is_inclusive(self):
        problem = problem_from_wire({"size": MAX_WIRE_TASKS, "seed": 1})
        assert problem.n_tasks == MAX_WIRE_TASKS

    def test_oversized_inline_arrays_rejected(self):
        arrays = problem_to_wire(make_problem(4, 1))["arrays"]
        arrays["task_weights"] = [1.0] * (MAX_WIRE_TASKS + 1)
        with pytest.raises(ValidationError, match="at most"):
            problem_from_wire({"arrays": arrays})

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), -1.0], ids=["nan", "inf", "negative"]
    )
    def test_bad_inline_comm_costs_rejected(self, bad):
        arrays = problem_to_wire(make_problem(4, 1))["arrays"]
        arrays["comm_costs"][0][1] = bad
        with pytest.raises(ValidationError, match="comm_costs must be finite"):
            problem_from_wire({"arrays": arrays})
        # Rejected at decode, so the HTTP layer answers 400 before admission.
        with pytest.raises(ValidationError, match="comm_costs must be finite"):
            request_from_wire({"problem": {"arrays": arrays}})


class TestHttp:
    def test_solve_healthz_stats_and_errors(self):
        """One daemon lifecycle: healthz, a solve, the cached re-solve,
        /stats, and the 400/404 paths — blocking clients always run in the
        executor (they would deadlock the serving loop otherwise)."""
        payload = {
            "problem": {"size": 8, "seed": 3},
            "solver": {"name": "match", "params": {"max_iterations": 40}},
            "seed": 11,
            "client": "http-test",
        }

        async def main():
            config = ServiceConfig(n_workers=1, coalesce_window=0.005)
            async with MappingService(config) as service:
                server = await start_http_server(service, host="127.0.0.1", port=0)
                port = server.sockets[0].getsockname()[1]
                url = f"http://127.0.0.1:{port}"
                loop = asyncio.get_running_loop()

                def post(body):
                    return submit_over_http(url, body, timeout=60)

                status1, first = await loop.run_in_executor(None, post, payload)
                status2, second = await loop.run_in_executor(None, post, payload)
                status3, bad = await loop.run_in_executor(
                    None, post, {"problem": {"neither": True}}
                )
                status4, oversized = await loop.run_in_executor(
                    None, post, {"problem": {"size": MAX_WIRE_TASKS + 1}}
                )
                status5, bogus = await loop.run_in_executor(
                    None, post, {**payload, "solver": {"name": "match", "params": {"bogus": 1}}}
                )
                status6, no_evals = await loop.run_in_executor(
                    None, post, {**payload, "max_evaluations": 0}
                )

                def raw(request_bytes):
                    with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
                        s.sendall(request_bytes)
                        chunks = b""
                        while True:
                            data = s.recv(65536)
                            if not data:
                                return chunks
                            chunks += data

                health = await loop.run_in_executor(
                    None, raw, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                missing = await loop.run_in_executor(
                    None, raw, b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                server.close()
                await server.wait_closed()
                stats = service.stats()
                return (status1, first, status2, second, status3, bad, status4, oversized,
                        status5, bogus, status6, no_evals, health, missing, stats)

        (status1, first, status2, second, status3, bad, status4, oversized,
         status5, bogus, status6, no_evals, health, missing, stats) = asyncio.run(main())

        assert status1 == 200 and first["status"] == "ok" and not first["cached"]
        assert status2 == 200 and second["cached"]
        assert second["result"] == first["result"]
        assert status3 == 400 and bad["error"]["kind"] == "bad-request"
        assert status4 == 400 and oversized["error"]["kind"] == "bad-request"
        assert "at most" in oversized["error"]["message"]
        assert status5 == 400 and bogus["error"]["kind"] == "bad-request"
        assert "bogus" in bogus["error"]["message"]
        # Rejected before admission: an answer, not a dropped connection.
        assert status6 == 400 and no_evals["error"]["kind"] == "bad-request"
        assert "max_evaluations" in no_evals["error"]["message"]
        assert health.startswith(b"HTTP/1.1 200") and b'{"ok": true}' in health
        assert missing.startswith(b"HTTP/1.1 404")
        assert stats["requests"] == 2 and stats["cache_hits"] == 1
