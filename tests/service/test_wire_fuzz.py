"""Fuzz the inline wire: every malformed body is a ``ValidationError``.

Islands decode their job frames through the same ``problem_from_wire``, so
these properties cover both the ``/solve`` gateway and the island wire.
A case is a well-formed body with up to three defects applied; it must
either raise :class:`ValidationError` or decode to the problem a direct
``MappingProblem`` build makes from the same arrays (same ``problem_key``).
Any other exception is a decoder bug.
"""

from __future__ import annotations

import copy
import json

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.graphs import ResourceGraph, TaskInteractionGraph, generate_paper_pair
from repro.mapping import MappingProblem, problem_key
from repro.service import problem_from_wire, problem_to_wire, request_from_wire

TIG_ARRAYS = ("task_weights", "tig_edges", "tig_edge_weights")
RES_ARRAYS = ("proc_weights", "res_edges", "res_edge_weights")
WEIGHT_ARRAYS = ("task_weights", "tig_edge_weights", "proc_weights", "res_edge_weights")
EDGE_ARRAYS = ("tig_edges", "res_edges")


def base_arrays(n_tasks: int, n_resources: int) -> dict:
    """A well-formed inline body for an ``n_tasks`` TIG on ``n_resources``."""
    problem = MappingProblem(
        generate_paper_pair(n_tasks, 1).tig, generate_paper_pair(n_resources, 2).resources
    )
    return problem_to_wire(problem)["arrays"]


#: Any JSON value, including the wrong types: null, bools, strings, objects.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=8,
)
#: Non-finite and negative weights, and finite ones so large that some
#: mapping's Eq. (1) time overflows float64.
bad_numbers = st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -1.0, -1e-300, 1e308, 1.7976931348623157e308]
)
bad_indices = st.sampled_from([-1, 7, 64, 2**31, 2**63, 2**70, 10**30, 0.5, 1.0, "0", None, True])
#: Replacement arrays: ragged, empty, 2-D, scalar and non-numeric shapes.
bad_arrays = st.sampled_from(
    [[], [[]], [[1.0, 2.0], [3.0]], [[1.0, 2.0], [3.0, 4.0]], 3.0, "1.0", {}, None,
     [None], [True, False], ["1", "2"], [[0, 1, 2]], [0, 1], [[0, 1], [0, 1]]]
)


@st.composite
def defects(draw) -> tuple:
    """One defect as ``(kind, *args)``; applied by :func:`apply_defect`."""
    kind = draw(st.sampled_from(
        ["weight", "index", "array", "json", "drop", "extra", "comm_costs"]
    ))
    if kind == "weight":
        return (kind, draw(st.sampled_from(WEIGHT_ARRAYS)), draw(st.integers(0, 40)),
                draw(bad_numbers))
    if kind == "index":
        return (kind, draw(st.sampled_from(EDGE_ARRAYS)), draw(st.integers(0, 40)),
                draw(st.integers(0, 1)), draw(bad_indices))
    if kind in ("array", "json"):
        value = draw(bad_arrays if kind == "array" else json_values)
        return kind, draw(st.sampled_from(TIG_ARRAYS + RES_ARRAYS)), value
    if kind == "drop":
        return kind, draw(st.sampled_from(TIG_ARRAYS + RES_ARRAYS))
    if kind == "extra":
        return kind, draw(st.sampled_from(["junk", "n_tasks", "Task_weights"])), draw(json_values)
    return (kind,)


def apply_defect(arrays: dict, defect: tuple) -> None:
    """Apply one defect; an element defect on an array an earlier defect
    replaced or emptied does nothing."""
    kind, *args = defect
    target = arrays.get(args[0]) if args else None
    if kind == "weight":
        _, index, value = args
        if isinstance(target, list) and target:
            target[index % len(target)] = value
    elif kind == "index":
        _, row, column, value = args
        if isinstance(target, list) and target and isinstance(target[row % len(target)], list):
            target[row % len(target)][column] = value
    elif kind in ("array", "json"):
        arrays[args[0]] = args[1]
    elif kind == "drop":
        arrays.pop(args[0], None)
    elif kind == "extra":
        arrays[args[0]] = args[1]
    else:  # the matrix the wire no longer carries
        arrays["comm_costs"] = [[0.0, 1.0], [1.0, 0.0]]


def direct_build(arrays: dict) -> MappingProblem:
    return MappingProblem(
        TaskInteractionGraph(*(arrays[name] for name in TIG_ARRAYS)),
        ResourceGraph(*(arrays[name] for name in RES_ARRAYS)),
    )


def tampered(shape: tuple[int, int], applied: list) -> dict:
    arrays = copy.deepcopy(base_arrays(*shape))
    for defect in applied:
        apply_defect(arrays, defect)
    # Through real JSON, as the gateway and the island frames decode it.
    return json.loads(json.dumps(arrays))


shapes = st.sampled_from([(2, 2), (3, 3), (4, 4), (3, 5), (5, 3)])


@seed(2005)
@settings(max_examples=300, deadline=None)
@given(shape=shapes, applied=st.lists(defects(), max_size=3))
def test_problem_from_wire_refuses_or_matches_a_direct_build(shape, applied):
    arrays = tampered(shape, applied)
    try:
        problem = problem_from_wire({"arrays": arrays})
    except ValidationError as exc:
        assert str(exc).startswith("problem.arrays"), exc
        return
    assert problem_key(problem) == problem_key(direct_build(arrays))


@seed(2006)
@settings(max_examples=150, deadline=None)
@given(
    shape=shapes,
    applied=st.lists(defects(), max_size=3),
    solver=st.sampled_from(["match", "fastmap-ga"]),
)
def test_request_from_wire_refuses_or_matches_a_direct_build(shape, applied, solver):
    arrays = tampered(shape, applied)
    body = {"problem": {"arrays": arrays}, "solver": {"name": solver}}
    try:
        request = request_from_wire(body)
    except ValidationError:
        return
    assert problem_key(request.problem) == problem_key(direct_build(arrays))


@seed(2007)
@settings(max_examples=100, deadline=None)
@given(problem=json_values, arrays=json_values)
def test_wrong_json_types_are_refused(problem, arrays):
    """A problem or arrays field of any JSON type but the right object is
    refused (generated objects have keys of at most 3 characters, so never
    ``size`` or ``arrays``)."""
    for body in ({"problem": problem}, {"problem": {"arrays": arrays}}, [problem]):
        try:
            request_from_wire(body)
        except ValidationError:
            continue
        raise AssertionError(f"accepted {body!r}")
