"""Fuzz the inline wire: every malformed body is a ``ValidationError``.

Islands decode their job frames through the same ``problem_from_wire``, so
these properties cover both the ``/solve`` gateway and the island wire.
A case is a well-formed body with up to three defects applied; it must
either raise :class:`ValidationError` or decode to the problem a direct
``MappingProblem`` build makes from the same arrays (same ``problem_key``).
Any other exception is a decoder bug.

The island frames after ``job`` (``round``, ``matrix-request``, ``gossip``
and ``adopt``) are fuzzed the same way: a tampered frame either decodes to
values the island can act on, or raises a :class:`ValidationError` or
:class:`FrameError` naming ``<frame>.<field>``.
"""

from __future__ import annotations

import base64
import copy
import json
import re

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import numpy as np

from repro.exceptions import FrameError, ValidationError
from repro.graphs import ResourceGraph, TaskInteractionGraph, generate_paper_pair
from repro.islands.island import (
    IslandJob,
    decode_adopt,
    decode_gossip,
    decode_interval,
    decode_matrix_request,
)
from repro.islands.wire import encode_matrix
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


# -- island frames after ``job`` ------------------------------------------------

#: The job an island serving agents 2 and 3 of 4 decoded, on a 3 x 3 problem.
ISLAND_JOB = IslandJob(
    problem=MappingProblem(generate_paper_pair(3, 1).tig, generate_paper_pair(3, 2).resources),
    seed=7,
    n_agents=4,
    per_agent=18,
    rho=0.05,
    zeta=0.3,
    gossip_weight=0.5,
    agents=(2, 3),
)


def sync_entry(round_: int = 5) -> dict:
    return {"round": round_, "leader": 1, "matrix": encode_matrix(np.full((3, 3), 1.0 / 3))}


#: A well-formed frame of each type, as a coordinator sends it.
ISLAND_FRAMES = {
    "round": {"type": "round", "round": 2, "through": 4},
    "matrix-request": {"type": "matrix-request", "agent": 3},
    "gossip": {"type": "gossip", **sync_entry()},
    "adopt": {
        "type": "adopt",
        "from_round": 2,
        "through_round": 6,
        "agents": [0, 1],
        "history": [sync_entry(5), sync_entry(6)],
    },
}
DECODERS = {
    "round": decode_interval,
    "matrix-request": lambda frame: decode_matrix_request(frame, ISLAND_JOB.agents),
    "gossip": lambda frame: decode_gossip(frame, ISLAND_JOB),
    "adopt": lambda frame: decode_adopt(frame, ISLAND_JOB),
}

#: Integers around every bound a frame field has, and past int64.
frame_ints = st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 6, 7, 2**31, 2**63, 2**70])
frame_values = st.one_of(frame_ints, bad_indices, json_values)
#: Replacements for a matrix payload's ``dtype``, ``shape`` and ``data``.
matrix_parts = {
    "dtype": st.one_of(
        st.sampled_from(["<f8", ">f8", "<f4", "<i8", "float64", "O", "<U2", "V8", "x"]),
        json_values,
    ),
    "shape": st.one_of(st.lists(st.integers(-1, 9), max_size=3), st.lists(frame_values, max_size=3)),
    "data": st.one_of(
        st.binary(max_size=80).map(lambda b: base64.b64encode(b).decode()),
        st.binary(min_size=72, max_size=72).map(lambda b: base64.b64encode(b).decode()),
        st.sampled_from(["", "!!", "AAAA=", "é"]),
        json_values,
    ),
}


def _matrix_paths(*prefix) -> list[tuple]:
    return [(*prefix, "matrix")] + [(*prefix, "matrix", part) for part in sorted(matrix_parts)]


#: Every path a defect may set or drop, per frame type.
FRAME_PATHS = {
    "round": [("round",), ("through",)],
    "matrix-request": [("agent",)],
    "gossip": [("round",), ("leader",), *_matrix_paths()],
    "adopt": [
        ("from_round",), ("through_round",), ("agents",), ("history",),
        *[("agents", i) for i in range(3)],
        *[("history", i) for i in range(3)],
        *[("history", i, field) for i in range(2) for field in ("round", "leader")],
        *[path for i in range(2) for path in _matrix_paths("history", i)],
    ],
}
#: A defect value that deletes the key instead of setting it.
DROP = object()


@st.composite
def frame_defects(draw, kind: str) -> tuple:
    """One defect of a ``kind`` frame as ``(path, value)``; ``value`` is
    :data:`DROP` to delete the key or list item."""
    path = draw(st.sampled_from(FRAME_PATHS[kind]))
    if path[0] == "agents" and len(path) == 2:
        values = st.one_of(st.integers(-1, 4), frame_values)  # duplicates too
    else:
        values = matrix_parts.get(path[-1], frame_values)
    return path, draw(st.one_of(values, st.just(DROP)))


def apply_frame_defect(frame: dict, path: tuple, value) -> None:
    """Set or drop ``path``; a path through a replaced value does nothing."""
    *parents, last = path
    target = frame
    for key in parents:
        if isinstance(target, dict) and key in target:
            target = target[key]
        elif isinstance(target, list) and isinstance(key, int) and key < len(target):
            target = target[key]
        else:
            return
    if isinstance(target, dict) and isinstance(last, str):
        if value is DROP:
            target.pop(last, None)
        else:
            target[last] = value
    elif isinstance(target, list) and isinstance(last, int) and last < len(target):
        if value is DROP:
            del target[last]
        else:
            target[last] = value


def check_decoded(kind: str, decoded) -> None:
    """A frame that decodes carries values the island can act on."""
    job = ISLAND_JOB
    if kind == "round":
        first, through = decoded
        assert 1 <= first <= through
    elif kind == "matrix-request":
        assert decoded in job.agents
    else:
        records = [decoded] if kind == "gossip" else list(decoded.history)
        for record in records:
            assert record.round >= 1 and 0 <= record.leader < job.n_agents
            assert record.matrix.shape == (3, 3) and record.matrix.dtype == np.float64
            assert np.all((record.matrix >= 0) & (record.matrix <= 1))
            np.testing.assert_allclose(record.matrix.sum(axis=1), 1.0, rtol=0, atol=1e-9)
        if kind == "adopt":
            assert 1 <= decoded.from_round <= decoded.through_round + 1
            assert len(set(decoded.agents)) == len(decoded.agents) > 0
            assert all(0 <= g < job.n_agents for g in decoded.agents)


@pytest.mark.parametrize("kind", sorted(ISLAND_FRAMES))
@seed(2008)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_island_frames_decode_or_name_the_field(kind, data):
    applied = data.draw(st.lists(frame_defects(kind), min_size=1, max_size=2))
    frame = copy.deepcopy(ISLAND_FRAMES[kind])
    for path, value in applied:
        apply_frame_defect(frame, path, value)
    # Through real JSON, as recv_frame hands the island a frame.
    frame = json.loads(json.dumps(frame))
    fields = "|".join(k for k in ISLAND_FRAMES[kind] if k != "type")
    try:
        decoded = DECODERS[kind](frame)
    except (ValidationError, FrameError) as exc:
        assert re.match(rf"^{re.escape(kind)}\.({fields})\b", str(exc)), exc
        return
    check_decoded(kind, decoded)
