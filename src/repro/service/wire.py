"""JSON wire format for the mapping service.

One request/response vocabulary shared by the HTTP server, the ``repro
submit`` client and the service benchmark, so every entry point speaks the
same JSON. A request names its problem either **inline** (the
``plane_arrays`` wire format as nested lists) or by **generator spec**
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

Array dtypes are canonicalized on decode (floats to ``float64``, index
arrays to ``int64``), so an inline problem hashes to the same
:func:`~repro.mapping.problem_key.problem_key` no matter which JSON
encoder produced it.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.exceptions import ConfigurationError, ValidationError
from repro.mapping.problem import MappingProblem
from repro.runtime.registry import SolverSpec
from repro.service.service import MappingRequest

__all__ = [
    "problem_to_wire",
    "problem_from_wire",
    "request_from_wire",
    "request_to_wire",
    "MAX_WIRE_TASKS",
]

#: plane-array names that carry vertex/edge indices (decoded as int64).
_INDEX_ARRAYS = frozenset({"tig_edges", "res_edges"})

#: Largest task count a wire problem may name, by generator spec or inline
#: arrays. MaTCH scores N = 2n² samples of n tasks per iteration, so the
#: size is the one request field that scales a solve's memory and time;
#: the paper's largest instance is n = 50.
MAX_WIRE_TASKS = 128


def problem_to_wire(problem: MappingProblem) -> dict[str, Any]:
    """Inline wire form: the plane arrays as nested lists."""
    return {"arrays": {k: v.tolist() for k, v in problem.plane_arrays().items()}}


def _check_task_count(n_tasks: int, what: str) -> None:
    if n_tasks > MAX_WIRE_TASKS:
        raise ValidationError(
            f"{what} names {n_tasks} tasks; the wire accepts at most {MAX_WIRE_TASKS}"
        )


def _decode_array(name: str, value: Any) -> np.ndarray:
    if name in _INDEX_ARRAYS:
        arr = np.asarray(value, dtype=np.int64)
        if arr.size == 0:
            return arr.reshape(0, 2)
        return arr
    return np.asarray(value, dtype=np.float64)


def problem_from_wire(payload: Mapping[str, Any]) -> MappingProblem:
    """Build the problem a request names (generator spec or inline arrays)."""
    if not isinstance(payload, Mapping):
        raise ValidationError(f"problem must be an object, got {type(payload).__name__}")
    if "arrays" in payload:
        raw = payload["arrays"]
        if not isinstance(raw, Mapping):
            raise ValidationError("problem.arrays must be an object of named arrays")
        arrays = {str(k): _decode_array(str(k), v) for k, v in raw.items()}
        task_weights = arrays.get("task_weights")
        if task_weights is not None:
            _check_task_count(task_weights.size, "problem.arrays")
        return MappingProblem.from_plane_arrays(arrays)
    if "size" in payload:
        from repro.graphs import generate_paper_pair

        size = payload["size"]
        if isinstance(size, bool) or not isinstance(size, int):
            raise ValidationError(f"problem.size must be an integer, got {size!r}")
        _check_task_count(size, "problem.size")
        seed = int(payload.get("seed", 2005))
        pair = generate_paper_pair(size, seed)
        return MappingProblem(pair.tig, pair.resources, require_square=True)
    raise ValidationError(
        "problem must carry either 'arrays' (inline plane arrays) or "
        "'size'/'seed' (generator spec)"
    )


def request_from_wire(payload: Mapping[str, Any]) -> MappingRequest:
    """Decode one ``/solve`` body into a :class:`MappingRequest`.

    The solver spec is built once here, so an unknown solver name or a
    parameter its constructor rejects is a :class:`ValidationError` at
    decode instead of a failed solve after quota admission.
    """
    if not isinstance(payload, Mapping):
        raise ValidationError(f"request must be a JSON object, got {type(payload).__name__}")
    if "problem" not in payload:
        raise ValidationError("request is missing the 'problem' field")
    problem = problem_from_wire(payload["problem"])
    solver_raw = payload.get("solver") or {"name": "match"}
    if not isinstance(solver_raw, Mapping) or "name" not in solver_raw:
        raise ValidationError("solver must be an object with a 'name' field")
    solver = SolverSpec.of(
        str(solver_raw["name"]), dict(solver_raw.get("params") or {})
    )
    try:
        solver.build()
    except (TypeError, ConfigurationError) as exc:
        raise ValidationError(f"invalid solver {solver}: {exc}") from exc
    max_evaluations = payload.get("max_evaluations")
    return MappingRequest(
        problem=problem,
        solver=solver,
        seed=int(payload.get("seed", 2005)),
        client=str(payload.get("client", "anonymous")),
        max_evaluations=int(max_evaluations) if max_evaluations is not None else None,
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
