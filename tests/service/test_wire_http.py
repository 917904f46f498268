"""Wire encoding and the stdlib HTTP front of the gateway."""

from __future__ import annotations

import asyncio
import json
import socket

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ValidationError
from repro.graphs import ResourceGraph, TaskInteractionGraph, generate_paper_pair
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
from repro.service.http import MAX_BODY_BYTES
from repro.service.wire import (
    MAX_WIRE_GENERATIONS,
    MAX_WIRE_ITERATIONS,
    MAX_WIRE_POPULATION,
    MAX_WIRE_SAMPLES,
    MAX_WIRE_TASKS,
)

#: (solver, param, greatest value the wire accepts) for every capped param.
PARAM_CAPS = [
    ("match", "n_samples", MAX_WIRE_SAMPLES),
    ("match", "max_iterations", MAX_WIRE_ITERATIONS),
    ("fastmap-ga", "population_size", MAX_WIRE_POPULATION),
    ("fastmap-ga", "generations", MAX_WIRE_GENERATIONS),
]
_CAP_IDS = [f"{solver}-{param}" for solver, param, _ in PARAM_CAPS]

#: Solvers that were once registered and must now be unknown on the wire.
DELETED_SOLVERS = ["sim-anneal", "tabu", "local-search", "random", "greedy", "fastmap-hier"]
#: The params a deleted solver took, sent along with its name.
DELETED_PARAMS = {"fastmap-hier": {"ga_population": 24, "ga_generations": 30, "refine_sweeps": 2}}

#: The unbounded body from the resource audit: 10⁹ samples and iterations
#: with per-iteration matrix snapshots.
UNBOUNDED_MATCH = {
    "problem": {"size": 10},
    "solver": {
        "name": "match",
        "params": {
            "n_samples": 10**9,
            "max_iterations": 10**9,
            "track_matrices": True,
            "matrix_snapshot_every": 1,
        },
    },
}


def make_problem(n: int = 10, seed: int = 7) -> MappingProblem:
    pair = generate_paper_pair(n, seed)
    return MappingProblem(pair.tig, pair.resources, require_square=True)


def shaped_problem(n_tasks: int, n_resources: int) -> MappingProblem:
    """An ``n_tasks`` TIG on an ``n_resources`` platform (any shape)."""
    return MappingProblem(
        generate_paper_pair(n_tasks, 1).tig, generate_paper_pair(n_resources, 2).resources
    )


def wide_platform_arrays(n_resources: int = 1_500) -> dict:
    """Inline arrays for 4 tasks on ``n_resources`` resources, far past
    ``MAX_WIRE_TASKS``."""
    arrays = problem_to_wire(make_problem(4, 1))["arrays"]
    arrays["proc_weights"] = [1.0] * n_resources
    arrays["res_edges"] = [[0, 1]]
    arrays["res_edge_weights"] = [1.0]
    return arrays


#: Small params per solver, so a shape check can afford a real solve.
QUICK_PARAMS = {
    "match": {"max_iterations": 2},
    "fastmap-ga": {"population_size": 4, "generations": 1},
}


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

    def test_inline_resource_count_capped_before_graphs_are_built(self):
        arrays = wide_platform_arrays()
        with pytest.raises(ValidationError, match="1500 resources; the wire accepts at most"):
            request_from_wire({"problem": {"arrays": arrays}})
        # Counted before any graph is built: a body whose edge list cannot
        # even be converted still gets the count error.
        arrays["res_edges"] = "never decoded"
        with pytest.raises(ValidationError, match="1500 resources"):
            problem_from_wire({"arrays": arrays})

    def test_inline_resource_cap_is_inclusive(self):
        arrays = problem_to_wire(shaped_problem(4, MAX_WIRE_TASKS))["arrays"]
        problem = request_from_wire({"problem": {"arrays": arrays}}).problem
        assert problem.n_resources == MAX_WIRE_TASKS
        arrays["proc_weights"] = arrays["proc_weights"] + [1.0]
        with pytest.raises(ValidationError, match="129 resources"):
            problem_from_wire({"arrays": arrays})

    @pytest.mark.parametrize("solver", ["match", "fastmap-ga"])
    def test_shape_the_solver_cannot_map_rejected(self, solver):
        body = {"problem": problem_to_wire(shaped_problem(4, 2)), "solver": {"name": solver}}
        with pytest.raises(ValidationError, match=f"{solver} cannot map 4 tasks onto 2"):
            request_from_wire(body)

    @pytest.mark.parametrize("solver", sorted(QUICK_PARAMS))
    def test_shape_rules_agree_with_the_solvers(self, solver):
        """The wire accepts exactly the shapes the solver itself maps."""
        for n_tasks, n_resources in [(4, 2), (4, 4), (2, 4)]:
            problem = shaped_problem(n_tasks, n_resources)
            body = {
                "problem": problem_to_wire(problem),
                "solver": {"name": solver, "params": QUICK_PARAMS[solver]},
            }
            try:
                request_from_wire(body)
                accepted = True
            except ValidationError:
                accepted = False
            try:
                SolverSpec.of(solver, QUICK_PARAMS[solver]).build().map(problem, 0)
                maps = True
            except ConfigurationError:
                maps = False
            assert accepted == maps, (solver, n_tasks, n_resources)

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), -1.0, None], ids=["nan", "inf", "negative", "closed"]
    )
    def test_bad_inline_comm_costs_rejected(self, bad):
        # The wire no longer carries comm_costs: a body that names it is
        # refused by name, whatever the matrix holds (``None``: the closure).
        problem = make_problem(4, 1)
        arrays = problem_to_wire(problem)["arrays"]
        assert "comm_costs" not in arrays
        arrays["comm_costs"] = problem.comm_costs.tolist()
        if bad is not None:
            arrays["comm_costs"][0][1] = bad
        with pytest.raises(ValidationError, match=r"unknown \['comm_costs'\]"):
            problem_from_wire({"arrays": arrays})
        # Rejected at decode, so the HTTP layer answers 400 before admission.
        with pytest.raises(ValidationError, match=r"unknown \['comm_costs'\]"):
            request_from_wire({"problem": {"arrays": arrays}})


def _drop_tig_edges(arrays: dict) -> None:
    del arrays["tig_edges"]


def _add_junk(arrays: dict) -> None:
    arrays["junk"] = [1.0, 2.0]


def _fractional_edges(arrays: dict) -> None:
    arrays["tig_edges"] = [[0.5, 1.5]]


def _ragged_weights(arrays: dict) -> None:
    arrays["tig_edge_weights"] = [[1.0, 2.0], [3.0]]


def _string_edges(arrays: dict) -> None:
    arrays["res_edges"] = [["0", "1"]]


def _string_weights(arrays: dict) -> None:
    arrays["task_weights"] = ["1.5"] * len(arrays["task_weights"])


def _two_d_task_weights(arrays: dict) -> None:
    arrays["task_weights"] = [[1.0, 2.0], [3.0, 4.0]]


def _set_item(name, index, value):
    def tamper(arrays: dict) -> None:
        arrays[name][index] = value
    return tamper


def _disconnect(arrays: dict) -> None:
    arrays["res_edges"] = []
    arrays["res_edge_weights"] = []


def _drop_edge_weight(arrays: dict) -> None:
    arrays["tig_edge_weights"].pop()


def _overflowing_time(arrays: dict) -> None:
    # Finite links and routes, but an Eq. (1) time past float64's range.
    arrays["res_edge_weights"] = [1e308] * len(arrays["res_edge_weights"])


def _overflowing_route(arrays: dict) -> None:
    # A connected path whose multi-hop route sums past float64's range.
    n = len(arrays["proc_weights"])
    arrays["res_edges"] = [[i, i + 1] for i in range(n - 1)]
    arrays["res_edge_weights"] = [1e308] * (n - 1)


#: (tamper, message) per graph defect: the graph constructors refuse each,
#: and the wire names the array.
GRAPH_DEFECTS = {
    "nan-task-weight": (_set_item("task_weights", 0, float("nan")), "task_weights must be finite"),
    "negative-task-weight": (_set_item("task_weights", 1, -1.0), "task_weights must be finite"),
    "nan-proc-weight": (_set_item("proc_weights", 0, float("nan")), "proc_weights must be finite"),
    "negative-proc-weight": (_set_item("proc_weights", 2, -0.5), "proc_weights must be finite"),
    "tig-edge-out-of-range": (_set_item("tig_edges", 0, [0, 4]), "tig_edges must have endpoints"),
    "res-edge-out-of-range": (_set_item("res_edges", 0, [-1, 2]), "res_edges must have endpoints"),
    "self-loop": (_set_item("tig_edges", 0, [2, 2]), "tig_edges must not hold self-loops"),
    "edge-weight-count": (_drop_edge_weight, r"tig_edge_weights must have shape \(\d+,\)"),
    "2d-task-weights": (_two_d_task_weights, "task_weights must be a non-empty 1-D"),
    "empty-res-edges": (_disconnect, "res_edges must connect .* disconnected"),
    "overflowing-route": (_overflowing_route, "res_edge_weights must keep .* overflows float64"),
    "overflowing-time": (
        _overflowing_time,
        r"tig_edge_weights, res_edge_weights must keep every mapping's Eq\. \(1\) time finite",
    ),
}


class TestInlineArrays:
    """The inline arrays are exactly the six graph arrays ``problem_to_wire``
    sends; the graph constructors judge them, and the wire names the array
    of every rejection."""

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (_drop_tig_edges, r"missing \['tig_edges'\]"),
            (_add_junk, r"unknown \['junk'\]"),
            (_fractional_edges, "tig_edges must hold integers"),
            (_ragged_weights, "tig_edge_weights is not a rectangular array"),
            (_string_edges, "res_edges must hold integers"),
            (_string_weights, "task_weights must hold numbers"),
        ]
        + [(tamper, rf"^problem\.arrays\.{message}") for tamper, message in GRAPH_DEFECTS.values()],
        ids=["missing", "unknown", "fractional-edges", "ragged", "string-edges", "string-weights",
             *GRAPH_DEFECTS],
    )
    def test_malformed_arrays_rejected_by_name(self, tamper, message):
        arrays = problem_to_wire(make_problem(4, 1))["arrays"]
        tamper(arrays)
        with pytest.raises(ValidationError, match=message):
            problem_from_wire({"arrays": arrays})

    def test_inline_problem_is_built_by_the_constructor(self, monkeypatch):
        # Never adopted through the plane's path, which trusts comm_costs.
        def _never(*args, **kwargs):
            raise AssertionError("inline problem adopted through from_plane_arrays")

        monkeypatch.setattr(MappingProblem, "from_plane_arrays", _never)
        problem = shaped_problem(3, 6)
        rebuilt = problem_from_wire(problem_to_wire(problem))
        assert np.array_equal(rebuilt.comm_costs, problem.comm_costs)

    @pytest.mark.parametrize("n_tasks, n_resources", [(4, 4), (10, 10), (3, 6)])
    def test_well_formed_bodies_keep_their_problem_key(self, n_tasks, n_resources):
        problem = shaped_problem(n_tasks, n_resources)
        rebuilt = problem_from_wire(problem_to_wire(problem))
        assert problem_key(rebuilt) == problem_key(problem)


class TestSolverParamCaps:
    @pytest.mark.parametrize("solver,param,cap", PARAM_CAPS, ids=_CAP_IDS)
    def test_past_cap_rejected(self, solver, param, cap):
        body = {"problem": {"size": 8}, "solver": {"name": solver, "params": {param: cap + 1}}}
        with pytest.raises(ValidationError, match=f"{param} is {cap + 1}; the wire accepts at most {cap}"):
            request_from_wire(body)

    @pytest.mark.parametrize("solver,param,cap", PARAM_CAPS, ids=_CAP_IDS)
    def test_cap_is_inclusive(self, solver, param, cap):
        body = {"problem": {"size": 8}, "solver": {"name": solver, "params": {param: cap}}}
        assert request_from_wire(body).solver == SolverSpec.of(solver, {param: cap})

    @pytest.mark.parametrize("value", [2.0, "10", None, True, -1])
    def test_capped_param_must_be_an_integer_in_range(self, value):
        body = {"problem": {"size": 8}, "solver": {"name": "match", "params": {"n_samples": value}}}
        with pytest.raises(ValidationError, match="n_samples must be an integer"):
            request_from_wire(body)

    def test_track_matrices_rejected(self):
        body = {"problem": {"size": 8},
                "solver": {"name": "match", "params": {"track_matrices": True}}}
        with pytest.raises(ValidationError, match="track_matrices"):
            request_from_wire(body)

    def test_nested_param_rejected(self):
        # A nested object would reach the config as a dict and fail in a worker.
        body = {"problem": {"size": 8},
                "solver": {"name": "fastmap-ga", "params": {"ga": {"population_size": 10}}}}
        with pytest.raises(ValidationError, match="JSON scalar"):
            request_from_wire(body)

    @pytest.mark.parametrize("name", DELETED_SOLVERS)
    def test_deleted_solver_rejected(self, name):
        solver = {"name": name, "params": DELETED_PARAMS.get(name, {})}
        with pytest.raises(ValidationError, match="unknown solver"):
            request_from_wire({"problem": {"size": 8}, "solver": solver})

    def test_solver_checked_before_problem_is_built(self, monkeypatch):
        def _never(*args):
            raise AssertionError("problem built before the solver check")

        monkeypatch.setattr("repro.graphs.generate_paper_pair", _never)
        with pytest.raises(ValidationError, match="at most"):
            request_from_wire(UNBOUNDED_MATCH)

    def test_defaults_sit_inside_every_cap(self):
        # No cap may bind on a request that names no params (the
        # benchmark's service workload sends ``match`` with ``{}``).
        from repro.baselines import GAConfig
        from repro.core import MatchConfig, paper_sample_size

        assert paper_sample_size(MAX_WIRE_TASKS) <= MAX_WIRE_SAMPLES
        assert MatchConfig().max_iterations <= MAX_WIRE_ITERATIONS
        assert GAConfig().population_size <= MAX_WIRE_POPULATION
        assert GAConfig().generations <= MAX_WIRE_GENERATIONS


class TestHttp:
    def test_unmappable_or_wide_inline_bodies_get_400_without_charge(self):
        """4 tasks on 1,500 resources, 4 tasks on 2 resources for every
        solver (the deleted many-to-one ``fastmap-hier`` included), a
        platform whose cheapest route overflows float64, and 1e308 links
        whose Eq. (1) time overflows for both solvers: structured 400s
        naming the defect, nothing admitted or charged.
        A one-to-one body of 2 tasks on 4 resources is still solved."""
        narrow = problem_to_wire(shaped_problem(4, 2))
        overflowing = problem_to_wire(make_problem(4, 1))
        _overflowing_route(overflowing["arrays"])
        huge = problem_to_wire(make_problem(4, 1))
        _overflowing_time(huge["arrays"])
        bodies = [
            {"problem": {"arrays": wide_platform_arrays()}, "client": "mallory"},
            {"problem": narrow, "solver": {"name": "match"}, "client": "mallory"},
            {"problem": narrow, "solver": {"name": "fastmap-ga"}, "client": "mallory"},
            {"problem": overflowing, "client": "mallory"},
            {"problem": narrow, "solver": {"name": "fastmap-hier"}, "client": "mallory"},
            {"problem": huge, "solver": {"name": "match"}, "client": "mallory"},
            {"problem": huge, "solver": {"name": "fastmap-ga"}, "client": "mallory"},
        ]
        wide = {"problem": problem_to_wire(shaped_problem(2, 4)), "client": "carol",
                "solver": {"name": "match", "params": QUICK_PARAMS["match"]}}

        async def main():
            config = ServiceConfig(n_workers=1, client_quota=100_000)
            async with MappingService(config) as service:
                server = await start_http_server(service, host="127.0.0.1", port=0)
                port = server.sockets[0].getsockname()[1]
                url = f"http://127.0.0.1:{port}"
                loop = asyncio.get_running_loop()

                def post(body):
                    return submit_over_http(url, body, timeout=60)

                answers = [await loop.run_in_executor(None, post, body) for body in bodies]
                status, ok = await loop.run_in_executor(None, post, wide)
                server.close()
                await server.wait_closed()
                return answers, status, ok, service.stats()

        answers, status, ok, stats = asyncio.run(main())
        for body, (code, reply) in zip(bodies, answers):
            assert code == 400, body["problem"].keys()
            assert reply["error"]["kind"] == "bad-request"
        assert "1500 resources" in answers[0][1]["error"]["message"]
        assert "cannot map 4 tasks onto 2 resources" in answers[1][1]["error"]["message"]
        assert answers[3][1]["error"]["message"].startswith(
            "problem.arrays.res_edge_weights must keep every route's summed cost finite"
        )
        assert "unknown solver 'fastmap-hier'" in answers[4][1]["error"]["message"]
        for code, reply in answers[5:]:
            assert reply["error"]["message"].startswith(
                "problem.arrays.tig_edge_weights, res_edge_weights must keep every "
                "mapping's Eq. (1) time finite"
            )
        assert status == 200 and ok["status"] == "ok"
        assert stats["requests"] == 1
        assert "mallory" not in stats["quotas"]["clients"]
        assert stats["quotas"]["clients"]["carol"] > 0

    def test_fastmap_ga_solves_a_bound_near_float64_limit(self):
        """The n = 4 paper pair with its links scaled by 1e304 passes the
        Eq. (1) bound; the GA's population mean cost overflows float64, and
        the solve still answers 200 with a finite ET."""
        arrays = problem_to_wire(make_problem(4, 3))["arrays"]
        arrays["res_edge_weights"] = [w * 1e304 for w in arrays["res_edge_weights"]]
        body = {
            "problem": {"arrays": arrays},
            "solver": {"name": "fastmap-ga",
                       "params": {"population_size": 16, "generations": 3}},
        }

        async def main():
            async with MappingService(ServiceConfig(n_workers=1)) as service:
                server = await start_http_server(service, host="127.0.0.1", port=0)
                port = server.sockets[0].getsockname()[1]
                url = f"http://127.0.0.1:{port}"
                answer = await asyncio.get_running_loop().run_in_executor(
                    None, lambda: submit_over_http(url, body, timeout=60)
                )
                server.close()
                await server.wait_closed()
                return answer

        status, reply = asyncio.run(main())
        assert status == 200, reply
        assert reply["status"] == "ok"
        assert 1e307 < reply["result"]["execution_time"] < float("inf")

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
            config = ServiceConfig(n_workers=1)
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

    def test_pretty_printed_body_at_the_caps_fits(self):
        """The largest well-formed body (complete TIG and complete platform
        at ``MAX_WIRE_TASKS``, full-precision floats, ``indent=2``) is
        accepted by the decoder and fits under ``MAX_BODY_BYTES``."""
        n = MAX_WIRE_TASKS
        edges = np.stack(np.triu_indices(n, k=1), axis=1)
        rng = np.random.default_rng(0)
        problem = MappingProblem(
            TaskInteractionGraph(rng.random(n) * 1e3, edges, rng.random(len(edges)) * 1e3),
            ResourceGraph(rng.random(n) * 1e3, edges, rng.random(len(edges)) * 1e3),
        )
        request = request_from_wire({"problem": problem_to_wire(problem)})
        body = json.dumps(request_to_wire(request), indent=2).encode("utf-8")
        assert len(body) < MAX_BODY_BYTES
        assert problem_key(request_from_wire(json.loads(body)).problem) == problem_key(problem)

    def test_oversize_body_gets_413_without_being_read(self):
        """A ``Content-Length`` past the cap is answered at once with a
        structured 413 naming the cap; the body is never awaited, and the
        daemon keeps serving."""

        async def main():
            config = ServiceConfig(n_workers=1)
            async with MappingService(config) as service:
                server = await start_http_server(service, host="127.0.0.1", port=0)
                port = server.sockets[0].getsockname()[1]
                loop = asyncio.get_running_loop()

                def raw(request_bytes):
                    with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
                        s.sendall(request_bytes)
                        chunks = b""
                        while data := s.recv(65536):
                            chunks += data
                        return chunks

                head = f"POST /solve HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
                too_large = await loop.run_in_executor(None, raw, head.encode("ascii"))
                health = await loop.run_in_executor(
                    None, raw, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                server.close()
                await server.wait_closed()
                return too_large, health, service.stats()

        too_large, health, stats = asyncio.run(main())
        assert too_large.startswith(b"HTTP/1.1 413 Payload Too Large")
        error = json.loads(too_large.partition(b"\r\n\r\n")[2])["error"]
        assert error["kind"] == "too-large"
        assert error["max_body_bytes"] == MAX_BODY_BYTES
        assert str(MAX_BODY_BYTES) in error["message"]
        assert health.startswith(b"HTTP/1.1 200")
        assert stats["requests"] == 0

    def test_over_cap_bodies_get_400_before_admission(self):
        """Each capped param just past its bound and at 2**63, the unbounded
        audit body and deleted solver names: all get a structured 400, none
        is admitted, and the daemon keeps serving. A capped param's 400
        names the param."""
        capped = [
            (param, {"problem": {"size": 8}, "solver": {"name": solver, "params": {param: value}}})
            for solver, param, cap in PARAM_CAPS
            for value in (cap + 1, 2**63)
        ]
        bodies = [body for _, body in capped]
        bodies.append(UNBOUNDED_MATCH)
        bodies += [{"problem": {"size": 8}, "solver": {"name": name}} for name in DELETED_SOLVERS]
        bodies.append(
            {"problem": {"size": 10},
             "solver": {"name": "random", "params": {"n_samples": 10**12, "batch_size": 10**9}}}
        )
        valid = {"problem": {"size": 6, "seed": 1},
                 "solver": {"name": "match", "params": {"max_iterations": 5}}}

        async def main():
            config = ServiceConfig(n_workers=1)
            async with MappingService(config) as service:
                server = await start_http_server(service, host="127.0.0.1", port=0)
                port = server.sockets[0].getsockname()[1]
                url = f"http://127.0.0.1:{port}"
                loop = asyncio.get_running_loop()

                def post(body):
                    return submit_over_http(url, body, timeout=60)

                answers = [await loop.run_in_executor(None, post, body) for body in bodies]
                status, ok = await loop.run_in_executor(None, post, valid)
                server.close()
                await server.wait_closed()
                return answers, status, ok, service.stats()

        answers, status, ok, stats = asyncio.run(main())
        for body, (code, reply) in zip(bodies, answers):
            assert code == 400, body
            assert reply["error"]["kind"] == "bad-request", body
        for (param, body), (_, reply) in zip(capped, answers):
            value = body["solver"]["params"][param]
            assert reply["error"]["message"].startswith(f"solver.params.{param} is {value};")
        assert status == 200 and ok["status"] == "ok"
        # Only the valid solve reached admission.
        assert stats["requests"] == 1
