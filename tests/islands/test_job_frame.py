"""An island checks its ``job`` frame before it builds any stream or pool.

Every malformed field ends in a :class:`ValidationError` that names it as
``job.<field>``, never in a bare ``ValueError``, ``KeyError`` or
``IndexError`` from deep inside the island.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ValidationError
from repro.graphs import generate_paper_pair
from repro.islands.island import decode_job
from repro.mapping import MappingProblem
from repro.service.wire import MAX_WIRE_SAMPLES, problem_to_wire

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
