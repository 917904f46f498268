"""An island checks every coordinator frame before it acts on it.

The ``job`` frame is checked before any stream or pool is built, and the
frames after it (``round``, ``matrix-request``, ``gossip``, ``adopt``)
before they touch a chain. Every malformed field ends in a
:class:`ValidationError` (or, for a matrix payload, a :class:`FrameError`)
that names it as ``<frame>.<field>``, never in a bare ``ValueError``,
``KeyError`` or ``IndexError`` from deep inside the island.
"""

from __future__ import annotations

import re
import socket

import numpy as np
import pytest

from repro.exceptions import FrameError, ValidationError
from repro.graphs import generate_paper_pair
from repro.islands import wire as island_wire
from repro.islands.chains import agent_stream, agent_streams
from repro.islands.island import (
    IslandWorker,
    decode_adopt,
    decode_gossip,
    decode_interval,
    decode_job,
    decode_matrix_request,
)
from repro.mapping import MappingProblem
from repro.service.wire import MAX_WIRE_SAMPLES, problem_to_wire
from repro.utils.timing import Stopwatch

MISSING = object()


def job_frame() -> dict:
    """The frame a coordinator sends an island serving agents 2 and 3 of 4."""
    pair = generate_paper_pair(6, 3)
    return {
        "type": "job",
        "problem": problem_to_wire(MappingProblem(pair.tig, pair.resources)),
        "seed": 7,
        "n_agents": 4,
        "per_agent": 36,
        "rho": 0.05,
        "zeta": 0.3,
        "gossip_weight": 0.5,
        "sync_every": 5,
        "agents": [2, 3],
    }


def test_well_formed_job_decodes():
    job = decode_job(job_frame())
    assert (job.seed, job.n_agents, job.per_agent) == (7, 4, 36)
    assert (job.rho, job.zeta, job.gossip_weight) == (0.05, 0.3, 0.5)
    assert job.agents == (2, 3)
    assert job.problem.n_tasks == 6


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", MISSING),
        ("seed", -1),
        ("seed", "7"),
        ("n_agents", 0),
        ("n_agents", 4.0),
        ("per_agent", 1),
        ("per_agent", MAX_WIRE_SAMPLES + 1),
        ("per_agent", 36.5),
        ("per_agent", True),
        ("agents", MISSING),
        ("agents", [4]),  # not below n_agents
        ("agents", [-1]),
        ("agents", [2, 2]),
        ("agents", []),
        ("agents", [2.0]),
        ("agents", "23"),
        ("rho", MISSING),
        ("rho", 0.0),
        ("rho", 1.0),
        ("rho", "0.05"),
        ("rho", float("nan")),
        ("zeta", 0.0),
        ("zeta", 1.5),
        ("gossip_weight", -0.1),
        ("gossip_weight", None),
    ],
)
def test_malformed_job_frames_name_the_field(field, value):
    frame = job_frame()
    if value is MISSING:
        del frame[field]
    else:
        frame[field] = value
    with pytest.raises(ValidationError, match=rf"^job\.{field}\b"):
        decode_job(frame)


def test_agent_stream_is_the_spawned_stream():
    """Stream k built alone is bit-identical to the k-th of n spawned streams."""
    spawned = agent_streams(2005, 6)
    for k in (0, 3, 5):
        assert np.array_equal(agent_stream(2005, k).random(64), spawned[k].random(64))


def _serve(frames: list[dict], job_fields: dict | None = None) -> list[dict]:
    """Serve ``frames`` to an island over a socket pair; return its replies."""
    job = decode_job({**job_frame(), **(job_fields or {})})
    coordinator, island = socket.socketpair()
    with coordinator, island:
        for frame in frames:
            island_wire.send_frame(coordinator, frame)
        IslandWorker(("127.0.0.1", 0))._serve_job(island, job)
        island.shutdown(socket.SHUT_WR)
        replies = []
        while True:
            try:
                replies.append(island_wire.recv_frame(coordinator))
            except FrameError:
                return replies


def test_island_builds_only_its_own_streams():
    """A frame naming 10⁶ agents costs one stream for ``agents: [0]``."""
    with Stopwatch() as sw:
        replies = _serve([{"type": "stop"}], {"n_agents": 10**6, "agents": [0]})
    assert sw.elapsed < 1.0
    assert replies == [{"type": "stopped"}]


def _matrix(shape=(6, 6)) -> dict:
    return island_wire.encode_matrix(np.full(shape, 1.0 / shape[1]))


def _sync(**fields) -> dict:
    return {"round": 5, "leader": 0, "matrix": _matrix(), **fields}


def _adopt(**fields) -> dict:
    return {"from_round": 1, "through_round": 5, "agents": [0], "history": [_sync()], **fields}


def test_well_formed_later_frames_decode():
    job = decode_job(job_frame())
    assert decode_interval({"round": 1, "through": 5}) == (1, 5)
    assert decode_matrix_request({"agent": 3}, {2: None, 3: None}) == 3
    gossip = decode_gossip(_sync(leader=3), job)
    assert (gossip.round, gossip.leader, gossip.matrix.shape) == (5, 3, (6, 6))
    adoption = decode_adopt(_adopt(), job)
    assert (adoption.from_round, adoption.through_round, adoption.agents) == (1, 5, (0,))
    assert [h.round for h in adoption.history] == [5]
    # Death before any round completed: an empty interval.
    assert decode_adopt(_adopt(through_round=0, history=[]), job).through_round == 0


#: (frame type, frame, the field the refusal must name).
LATER_FRAME_DEFECTS = [
    ("round", {"round": "x", "through": 1}, "round.round"),
    ("round", {"through": 1}, "round.round"),
    ("round", {"round": 0, "through": 1}, "round.round"),
    ("round", {"round": 1}, "round.through"),
    ("round", {"round": 3, "through": 2}, "round.through"),
    ("round", {"round": 1, "through": 2.0}, "round.through"),
    ("matrix-request", {}, "matrix-request.agent"),
    ("matrix-request", {"agent": "2"}, "matrix-request.agent"),
    ("matrix-request", {"agent": 0}, "matrix-request.agent"),  # not this island's
    ("gossip", {"leader": 0, "matrix": _matrix()}, "gossip.round"),
    ("gossip", _sync(leader=4), "gossip.leader"),
    ("gossip", _sync(leader=None), "gossip.leader"),
    ("gossip", _sync(matrix=None), "gossip.matrix"),
    ("gossip", _sync(matrix=_matrix((6, 5))), "gossip.matrix"),
    ("gossip", _sync(matrix={**_matrix(), "dtype": "<i8"}), "gossip.matrix"),
    ("adopt", _adopt(from_round=0), "adopt.from_round"),
    ("adopt", _adopt(through_round=-1), "adopt.through_round"),
    ("adopt", _adopt(through_round=MISSING), "adopt.through_round"),
    ("adopt", _adopt(agents=[]), "adopt.agents"),
    ("adopt", _adopt(agents=[4]), "adopt.agents[0]"),
    ("adopt", _adopt(agents=[1, 1]), "adopt.agents"),
    ("adopt", _adopt(history={}), "adopt.history"),
    ("adopt", _adopt(history=[7]), "adopt.history[0]"),
    ("adopt", _adopt(history=[_sync(round="5")]), "adopt.history[0].round"),
    ("adopt", _adopt(history=[_sync(matrix=_matrix((5, 6)))]), "adopt.history[0].matrix"),
    # Entries that are not probabilities, or rows that do not sum to 1.
    ("gossip", _sync(matrix=island_wire.encode_matrix(np.full((6, 6), np.nan))), "gossip.matrix"),
    ("gossip", _sync(matrix=island_wire.encode_matrix(np.eye(6) * 2 - 1 / 6)), "gossip.matrix"),
    ("gossip", _sync(matrix=island_wire.encode_matrix(np.full((6, 6), 0.1))), "gossip.matrix"),
    # np.dtype(None) is float64, so only the raw field can tell.
    ("gossip", _sync(matrix={**_matrix(), "dtype": None}), "gossip.matrix"),
]


def _decode(kind: str, frame: dict) -> object:
    job = decode_job(job_frame())
    frame = {k: v for k, v in frame.items() if v is not MISSING}
    if kind == "round":
        return decode_interval(frame)
    if kind == "matrix-request":
        return decode_matrix_request(frame, job.agents)
    return (decode_gossip if kind == "gossip" else decode_adopt)(frame, job)


@pytest.mark.parametrize(
    "kind, frame, field",
    LATER_FRAME_DEFECTS,
    ids=[f"{field}-{i}" for i, (_, _, field) in enumerate(LATER_FRAME_DEFECTS)],
)
def test_malformed_later_frames_name_the_field(kind, frame, field):
    with pytest.raises((ValidationError, FrameError), match=rf"^{re.escape(field)}[ :]"):
        _decode(kind, frame)


def test_island_refuses_a_malformed_round_frame_by_name():
    with pytest.raises(ValidationError, match=r"^round\.through"):
        _serve([{"type": "round", "round": 1}])
