"""Record the committed ``repro-checkpoint/1`` fixture (`checkpoint_v1_match.json`).

Runs ``match`` on the canonical ``n = 10`` suite instance (the golden
solver instance), interrupts it after ``KILL_AFTER`` iterations so the
loop's emergency save writes a checkpoint, then adds an ``expect`` block
holding the result of the same run left uninterrupted. The resume test
(``tests/runtime/test_checkpoint_resume.py``) resumes this file and
asserts it lands on the recorded result bit-for-bit, so a change to the
checkpoint reader or to the CE optimizer state it restores that breaks
old files fails the suite.

The committed file was recorded once and must keep resuming after
format or optimizer changes. Re-run only when an *intentional* format
break is declared, and say so in the commit.

Usage::

    PYTHONPATH=src python tests/fixtures/record_checkpoint_v1.py
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments.suite import build_suite
from repro.runtime import CheckpointWriter, SearchHooks, create_mapper
from repro.utils.serialization import dump_json, load_json

SUITE_SEED = 2005
SIZE = 10
SEED = 3
SOLVER = "match"
PARAMS = {"max_iterations": 30}
KILL_AFTER = 3

OUT = Path(__file__).parent / "checkpoint_v1_match.json"


class _KillAfter(SearchHooks):
    def __init__(self, n: int) -> None:
        self.n = n

    def on_iteration(self, solver, report) -> None:
        if report.iteration + 1 >= self.n:
            raise KeyboardInterrupt


def main() -> None:
    problem = build_suite((SIZE,), 1, seed=SUITE_SEED)[SIZE][0].problem
    baseline = create_mapper(SOLVER, PARAMS).map(problem, SEED)
    writer = CheckpointWriter(
        OUT, solver_name=SOLVER, params=PARAMS, problem=problem, seed=SEED, every=1
    )
    try:
        create_mapper(SOLVER, PARAMS).map(
            problem, SEED, hooks=_KillAfter(KILL_AFTER), checkpointer=writer
        )
    except KeyboardInterrupt:
        pass
    payload = load_json(OUT)
    assert payload["iteration"] == KILL_AFTER, payload["iteration"]
    payload["expect"] = {
        "assignment": [int(x) for x in baseline.assignment],
        "execution_time": float(baseline.execution_time),
        "iterations": int(baseline.extras["iterations"]),
        "n_evaluations": int(baseline.n_evaluations),
    }
    dump_json(payload, OUT)
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
