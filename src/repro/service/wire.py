"""JSON wire format for the mapping service.

One request/response vocabulary shared by the HTTP server, the ``repro
submit`` client and the service benchmark, so every entry point speaks the
same JSON. A request names its problem either **inline** (the six graph
arrays of :func:`problem_to_wire` as nested lists) or by **generator spec**
(``{"size": n, "seed": s}`` — the deterministic paper-pair generator, so
server-side construction is bit-identical to what an offline
``repro-match solve --size n --seed s`` builds):

.. code-block:: json

    {
      "problem": {"size": 10, "seed": 7},
      "solver": {"name": "match", "params": {}},
      "seed": 7,
      "client": "alice",
      "max_evaluations": 20000
    }

An inline problem is built by the graph constructors and ``MappingProblem``,
as any library caller builds it: ``comm_costs`` is derived there, never
sent; a refused graph is a :class:`ValidationError` naming the array; and
the problem hashes to the sender's :func:`~repro.mapping.problem_key.problem_key`.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.core.config import paper_sample_size
from repro.exceptions import ConfigurationError, GraphError, ValidationError
from repro.graphs.resource_graph import ResourceGraph
from repro.graphs.task_graph import TaskInteractionGraph
from repro.mapping.problem import MappingProblem
from repro.runtime.registry import SolverSpec
from repro.service.service import MappingRequest

__all__ = [
    "problem_to_wire",
    "problem_from_wire",
    "request_from_wire",
    "request_to_wire",
    "MAX_WIRE_TASKS",
    "MAX_WIRE_SAMPLES",
    "MAX_WIRE_ITERATIONS",
    "MAX_WIRE_POPULATION",
    "MAX_WIRE_GENERATIONS",
]

#: Each graph's inline arrays, in the order of its constructor's
#: ``node_weights, edges, edge_weights``.
_TIG_ARRAYS = ("task_weights", "tig_edges", "tig_edge_weights")
_RES_ARRAYS = ("proc_weights", "res_edges", "res_edge_weights")
#: The inline arrays, exactly the names :func:`problem_to_wire` sends.
_WIRE_ARRAYS = frozenset(_TIG_ARRAYS + _RES_ARRAYS)

#: Largest task count a wire problem may name, by generator spec or inline
#: arrays, and the largest resource count of an inline problem. MaTCH
#: scores N = 2·n_r² samples of n_t tasks per iteration, so the two counts
#: scale a solve's memory and time; the paper's largest instance is n = 50.
MAX_WIRE_TASKS = 128

# Caps on the solver params that scale a solve's work (DESIGN §14). Every
# default sits inside its cap, so a request that names no params is never
# bound.

#: MaTCH samples per iteration: the paper rule N = 2n² at the largest size.
MAX_WIRE_SAMPLES = paper_sample_size(MAX_WIRE_TASKS)
#: MaTCH iterations: twice the default (the paper profile's 500).
MAX_WIRE_ITERATIONS = 1_000
#: GA population: Table 3's largest.
MAX_WIRE_POPULATION = 1_000
#: GA generations: Table 3's largest.
MAX_WIRE_GENERATIONS = 10_000

#: param name -> (least, greatest) integer the wire accepts.
_PARAM_BOUNDS = {
    "n_samples": (2, MAX_WIRE_SAMPLES),
    "max_iterations": (1, MAX_WIRE_ITERATIONS),
    "population_size": (2, MAX_WIRE_POPULATION),
    "generations": (1, MAX_WIRE_GENERATIONS),
}


def problem_to_wire(problem: MappingProblem) -> dict[str, Any]:
    """Inline wire form: the six graph arrays as nested lists.

    ``comm_costs`` is not sent; the receiver derives it from the resource
    graph, as every :class:`MappingProblem` does.
    """
    arrays = problem.plane_arrays()
    return {"arrays": {name: arrays[name].tolist() for name in _TIG_ARRAYS + _RES_ARRAYS}}


#: solver name -> (can it map n_t tasks onto n_r resources?, the rule).
_SHAPE_RULES = {
    "match": (lambda n_t, n_r: n_r >= n_t, "n_resources >= n_tasks"),
    "fastmap-ga": (lambda n_t, n_r: n_t == n_r, "n_tasks == n_resources"),
}


def _check_count(count: int, what: str, noun: str = "tasks") -> None:
    if count > MAX_WIRE_TASKS:
        raise ValidationError(
            f"{what} names {count} {noun}; the wire accepts at most {MAX_WIRE_TASKS}"
        )


def _check_shape(solver: SolverSpec, problem: MappingProblem) -> None:
    """Refuse a problem shape ``solver`` cannot map, before admission.

    Without this, the solver raises only inside a worker, after the quota
    charge, and the salvage dispatcher retries a cell that cannot succeed.
    """
    rule = _SHAPE_RULES[solver.name]
    n_t, n_r = problem.n_tasks, problem.n_resources
    if not rule[0](n_t, n_r):
        raise ValidationError(
            f"solver {solver.name} cannot map {n_t} tasks onto {n_r} "
            f"resources: it needs {rule[1]}"
        )


def _wire_int(value: Any, what: str, minimum: int, maximum: int | None = None) -> int:
    """``value`` as a JSON integer in ``[minimum, maximum]``; floats and bools are rejected.

    Checked at decode so a bad field is an HTTP 400 before quota admission,
    never a silent truncation or a failure inside a worker.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValidationError(f"{what} must be an integer >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ValidationError(f"{what} is {value}; the wire accepts at most {maximum}")
    return value


def _named(exc: GraphError, names: tuple[str, str, str]) -> ValidationError:
    """A graph constructor's rejection, naming the wire array at fault."""
    name = dict(zip(("node_weights", "edges", "edge_weights"), names))[exc.field]
    return ValidationError(f"problem.arrays.{name} {exc.reason}")


def _graph(cls: type, raw: Mapping[str, Any], names: tuple[str, str, str]) -> Any:
    """Build one graph from its three wire arrays; a rejection names the array."""
    try:
        return cls(*(raw[name] for name in names))
    except GraphError as exc:
        raise _named(exc, names) from exc


def problem_from_wire(payload: Mapping[str, Any]) -> MappingProblem:
    """Build the problem a request names (generator spec or inline arrays)."""
    if not isinstance(payload, Mapping):
        raise ValidationError(f"problem must be an object, got {type(payload).__name__}")
    if "arrays" in payload:
        raw = payload["arrays"]
        if not isinstance(raw, Mapping):
            raise ValidationError("problem.arrays must be an object of named arrays")
        names = set(map(str, raw))
        if names != _WIRE_ARRAYS:
            raise ValidationError(
                f"problem.arrays must name exactly {sorted(_WIRE_ARRAYS)}; missing "
                f"{sorted(_WIRE_ARRAYS - names)}, unknown {sorted(names - _WIRE_ARRAYS)}"
            )
        # Count tasks and resources before anything is converted, so an
        # over-cap body is refused before its edge lists (up to n²/2 pairs
        # per graph) are canonicalized and before the O(n_r³) cost closure.
        # A weight array that is not a JSON list is refused by its graph.
        for name, noun in (("task_weights", "tasks"), ("proc_weights", "resources")):
            if isinstance(raw[name], list):
                _check_count(len(raw[name]), "problem.arrays", noun)
        tig = _graph(TaskInteractionGraph, raw, _TIG_ARRAYS)
        resources = _graph(ResourceGraph, raw, _RES_ARRAYS)
        try:
            return MappingProblem(tig, resources)
        except GraphError as exc:  # a disconnected platform
            raise _named(exc, _RES_ARRAYS) from exc
        except ValidationError as exc:  # an Eq. (1) time that can overflow
            raise ValidationError(f"problem.arrays.{exc}") from exc
    if "size" in payload:
        from repro.graphs import generate_paper_pair

        size = _wire_int(payload["size"], "problem.size", 1)
        _check_count(size, "problem.size")
        seed = _wire_int(payload.get("seed", 2005), "problem.seed", 0)
        pair = generate_paper_pair(size, seed)
        return MappingProblem(pair.tig, pair.resources, require_square=True)
    raise ValidationError(
        "problem must carry either 'arrays' (inline graph arrays) or "
        "'size'/'seed' (generator spec)"
    )


def _solver_from_wire(raw: Any) -> SolverSpec:
    """Decode and build-check the solver spec before anything is allocated.

    Work-scaling params must be integers within :data:`_PARAM_BOUNDS` (omit
    ``n_samples`` for the paper rule; ``null`` is refused like any other
    non-integer), and every param is a JSON scalar (no solver takes a
    nested config on the wire). ``track_matrices`` is refused: the service
    never returns matrix snapshots, so they would only cost worker memory.
    """
    if not isinstance(raw, Mapping) or "name" not in raw:
        raise ValidationError("solver must be an object with a 'name' field")
    params = raw.get("params") or {}
    if not isinstance(params, Mapping):
        raise ValidationError("solver.params must be an object")
    for key, value in params.items():
        if isinstance(value, (Mapping, list)):
            raise ValidationError(f"solver.params.{key} must be a JSON scalar")
        bounds = _PARAM_BOUNDS.get(key)
        if bounds is not None:
            _wire_int(value, f"solver.params.{key}", *bounds)
    if params.get("track_matrices"):
        raise ValidationError(
            "solver.params.track_matrices is not accepted on the wire: "
            "the service never returns matrix snapshots"
        )
    solver = SolverSpec.of(str(raw["name"]), dict(params))
    try:
        solver.build()
    except (TypeError, ConfigurationError) as exc:
        raise ValidationError(f"invalid solver {solver}: {exc}") from exc
    return solver


def request_from_wire(payload: Mapping[str, Any]) -> MappingRequest:
    """Decode one ``/solve`` body into a :class:`MappingRequest`.

    Everything but the problem is checked first, so a bad field is a
    :class:`ValidationError` before the problem is built and before quota
    admission. The solver spec is built once here, so an unknown solver
    name, a parameter its constructor rejects or a param past its wire cap
    never reaches a worker. The integer fields (``seed``,
    ``problem.seed``, ``max_evaluations``) are checked the same way, and
    so is the problem's shape against what the solver can map.
    """
    if not isinstance(payload, Mapping):
        raise ValidationError(f"request must be a JSON object, got {type(payload).__name__}")
    if "problem" not in payload:
        raise ValidationError("request is missing the 'problem' field")
    seed = _wire_int(payload.get("seed", 2005), "seed", 0)
    max_evaluations = payload.get("max_evaluations")
    if max_evaluations is not None:
        max_evaluations = _wire_int(max_evaluations, "max_evaluations", 1)
    solver = _solver_from_wire(payload.get("solver") or {"name": "match"})
    problem = problem_from_wire(payload["problem"])
    _check_shape(solver, problem)
    return MappingRequest(
        problem=problem,
        solver=solver,
        seed=seed,
        client=str(payload.get("client", "anonymous")),
        max_evaluations=max_evaluations,
    )


def request_to_wire(
    request: MappingRequest, *, problem: Mapping[str, Any] | None = None
) -> dict[str, Any]:
    """Encode a request; ``problem`` overrides with a compact generator spec."""
    return {
        "problem": dict(problem) if problem is not None else problem_to_wire(request.problem),
        "solver": {"name": request.solver.name, "params": request.solver.params_dict()},
        "seed": request.seed,
        "client": request.client,
        "max_evaluations": request.max_evaluations,
    }
