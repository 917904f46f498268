"""Checkpoint/resume: a killed run finishes exactly like an uninterrupted one.

The kill is delivered as a ``KeyboardInterrupt`` raised from an
``on_iteration`` hook — between steps, exactly where a real SIGINT is
checkpointable — so the loop's emergency save captures a consistent
solver state. ``resume_run`` then rebuilds everything from the JSON file
alone (solver identity, problem graphs, budget, RNG stream position)
and must land on the same final cost, assignment and evaluation count.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro import kernels
from repro.exceptions import CheckpointError
from repro.runtime import (
    CHECKPOINT_FORMAT,
    CheckpointWriter,
    SearchHooks,
    create_mapper,
    load_checkpoint,
    resume_run,
)
from repro.runtime.checkpoint import problem_from_payload, problem_to_payload
from tests.runtime.conftest import SMALL_PARAMS

#: Kernel backends that load here (numpy always; cext needs a C compiler).
AVAILABLE_BACKENDS = [name for name, ok in kernels.available_backends().items() if ok]


class KillAfter(SearchHooks):
    """Raise KeyboardInterrupt once N steps have completed."""

    def __init__(self, n: int) -> None:
        self.n = n

    def on_iteration(self, solver, report) -> None:
        if report.iteration + 1 >= self.n:
            raise KeyboardInterrupt


#: (solver name, steps to run before the kill). Every checkpointable
#: solver is covered; the counts sit strictly inside each run so the
#: resumed segment still has real work to do.
KILL_POINTS = [
    ("match", 5),
    ("fastmap-ga", 3),
]


@pytest.mark.parametrize("name,kill_after", KILL_POINTS)
def test_killed_run_resumes_to_identical_result(
    name, kill_after, golden_problem, tmp_path
):
    params = SMALL_PARAMS[name]
    seed = 3
    baseline = create_mapper(name, params).map(golden_problem, seed)

    path = tmp_path / f"{name}.ckpt"
    mapper = create_mapper(name, params)
    writer = CheckpointWriter(
        path,
        solver_name=name,
        params=params,
        problem=golden_problem,
        seed=seed,
        every=1,
    )
    with pytest.raises(KeyboardInterrupt):
        mapper.map(
            golden_problem,
            seed,
            hooks=KillAfter(kill_after),
            checkpointer=writer,
        )
    payload = load_checkpoint(path)
    assert payload["iteration"] == kill_after
    assert payload["checkpoint_every"] == 1

    resumed_mapper, resumed = resume_run(path)
    assert type(resumed_mapper) is type(mapper)
    assert resumed.execution_time == baseline.execution_time
    assert np.array_equal(resumed.assignment, baseline.assignment)
    assert resumed.n_evaluations == baseline.n_evaluations
    # The resumed MT spans the whole logical run, so it can't be smaller
    # than the heuristic seconds already banked in the checkpoint.
    assert resumed.mapping_time >= payload["elapsed"]


#: A ``match`` checkpoint written by an earlier release (see
#: ``tests/fixtures/record_checkpoint_v1.py``); it must keep resuming.
CHECKPOINT_V1 = Path(__file__).parent.parent / "fixtures" / "checkpoint_v1_match.json"


def test_committed_v1_checkpoint_resumes_bit_identically(golden_problem, tmp_path):
    path = tmp_path / CHECKPOINT_V1.name
    shutil.copyfile(CHECKPOINT_V1, path)
    payload = load_checkpoint(path)
    assert payload["format"] == "repro-checkpoint/1"
    assert payload["iteration"] == 3
    expect = payload["expect"]

    _, resumed = resume_run(path, keep_checkpointing=False)
    baseline = create_mapper(
        payload["solver"]["name"], payload["solver"]["params"]
    ).map(golden_problem, payload["seed"])
    for result in (resumed, baseline):
        assert [int(x) for x in result.assignment] == expect["assignment"]
        assert result.execution_time == expect["execution_time"]
        assert result.extras["iterations"] == expect["iterations"]
        assert result.n_evaluations == expect["n_evaluations"]


def _rows_scaled(matrix):
    matrix[0] = [0.5 * p for p in matrix[0]]


def _entry_past_one(matrix):
    matrix[0][0], matrix[0][1] = 1.5, matrix[0][1] - 0.5


def _nan_entry(matrix):
    matrix[0][0] = float("nan")


def _ragged_row(matrix):
    matrix[0] = matrix[0][:1]


@pytest.mark.parametrize("backend", AVAILABLE_BACKENDS)
@pytest.mark.parametrize("corrupt", [_nan_entry, _entry_past_one, _rows_scaled, _ragged_row])
def test_resume_refuses_a_matrix_that_is_not_stochastic(corrupt, backend, tmp_path):
    """A checkpoint is outside input: its CE matrix is checked on resume, the
    same rule gossip frames follow, whatever the kernel backend would do."""
    payload = json.loads(CHECKPOINT_V1.read_text())
    corrupt(payload["state"]["ce"]["matrix"])
    path = tmp_path / CHECKPOINT_V1.name
    path.write_text(json.dumps(payload))
    with kernels.use_backend(backend):
        with pytest.raises(CheckpointError, match=r"state\.ce\.matrix"):
            resume_run(path, keep_checkpointing=False)


def _set(key, value):
    return lambda ce: ce.__setitem__(key, value)


def _drop(key):
    return lambda ce: ce.pop(key)


def _ragged_best_x(ce):
    ce["best_x"] = [ce["best_x"][:2], ce["best_x"][2:]]


def _empty_gamma_history(ce):
    ce["result"]["gamma_history"] = []


@pytest.mark.parametrize("backend", AVAILABLE_BACKENDS)
@pytest.mark.parametrize(
    "corrupt, field",
    [
        (_set("k", "x"), "k"),
        (_drop("rng"), "rng"),
        (_drop("stopping"), "stopping"),
        (_ragged_best_x, "best_x"),
        (_empty_gamma_history, "result.gamma_history"),
    ],
    ids=["k-not-an-int", "rng-missing", "stopping-missing", "best_x-ragged", "gamma_history-empty"],
)
def test_resume_names_a_malformed_field(corrupt, field, backend, tmp_path):
    """Every ``state.ce`` field is outside input: a defect is a
    CheckpointError naming the field, not a bare KeyError or ValueError."""
    payload = json.loads(CHECKPOINT_V1.read_text())
    corrupt(payload["state"]["ce"])
    path = tmp_path / CHECKPOINT_V1.name
    path.write_text(json.dumps(payload))
    with kernels.use_backend(backend):
        with pytest.raises(CheckpointError, match=rf"state\.ce\.{field}\b"):
            resume_run(path, keep_checkpointing=False)


def test_resumed_run_keeps_checkpointing(golden_problem, tmp_path):
    path = tmp_path / "ga.ckpt"
    mapper = create_mapper("fastmap-ga", SMALL_PARAMS["fastmap-ga"])
    writer = CheckpointWriter(
        path,
        solver_name="fastmap-ga",
        params=SMALL_PARAMS["fastmap-ga"],
        problem=golden_problem,
        seed=0,
        every=1,
    )
    with pytest.raises(KeyboardInterrupt):
        mapper.map(golden_problem, 0, hooks=KillAfter(1), checkpointer=writer)
    before = load_checkpoint(path)["iteration"]
    resume_run(path)
    # keep_checkpointing=True (default) kept overwriting the same file.
    assert load_checkpoint(path)["iteration"] > before


class TestCheckpointFormat:
    def test_problem_payload_round_trip(self, golden_problem):
        clone = problem_from_payload(problem_to_payload(golden_problem))
        assert np.array_equal(clone.task_weights, golden_problem.task_weights)
        assert np.array_equal(clone.comm_costs, golden_problem.comm_costs)
        assert np.array_equal(clone.edges, golden_problem.edges)

    def test_load_rejects_wrong_format(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "other/9"}))
        with pytest.raises(CheckpointError, match="not a"):
            load_checkpoint(bad)

    def test_load_rejects_missing_fields(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": CHECKPOINT_FORMAT, "solver": {}}))
        with pytest.raises(CheckpointError, match="problem"):
            load_checkpoint(bad)

    def test_writer_rejects_bad_cadence(self, golden_problem, tmp_path):
        with pytest.raises(CheckpointError, match=">= 1"):
            CheckpointWriter(
                tmp_path / "c.json",
                solver_name="match",
                params={},
                problem=golden_problem,
                every=0,
            )

    def test_non_checkpointable_solver_fails_loudly(self, golden_problem, tmp_path):
        """A solver without ``export_state`` refuses to checkpoint instead of lying."""
        from tests.baselines.test_base_mapper import _FixedMapper

        writer = CheckpointWriter(
            tmp_path / "fixed.json",
            solver_name="fixed",
            params={},
            problem=golden_problem,
            every=1,
        )
        with pytest.raises(CheckpointError, match="checkpoint"):
            _FixedMapper().map(golden_problem, 0, checkpointer=writer)
