"""Resume an interrupted solver run from a ``repro-checkpoint/1`` file.

:func:`resume_run` is the read side of :class:`CheckpointWriter`: it
rebuilds the mapper from the checkpoint's registry identity, the problem
from the embedded graph payloads and the budget from its saved
consumption, then re-enters :meth:`Mapper.map` with ``resume_state`` so
the :class:`~repro.runtime.loop.SearchLoop` restores the solver mid-run
instead of starting it. Because the solver state carries the exact RNG
stream position, the resumed run finishes with the *same* final cost an
uninterrupted run would have produced; the prior segments' heuristic
seconds are carried through ``initial_elapsed`` so the reported MT spans
the whole logical run.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.runtime.budget import EvaluationBudget
from repro.runtime.checkpoint import (
    CheckpointWriter,
    load_checkpoint,
    problem_from_payload,
)
from repro.runtime.hooks import SearchHooks
from repro.runtime.registry import create_mapper

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.baselines.base import Mapper, MapperResult

__all__ = ["resume_run"]


def resume_run(
    path: str | Path,
    *,
    budget: EvaluationBudget | None = None,
    hooks: SearchHooks | None = None,
    keep_checkpointing: bool = True,
) -> "tuple[Mapper, MapperResult]":
    """Continue the run persisted at ``path``; returns ``(mapper, result)``.

    Parameters
    ----------
    path:
        A ``repro-checkpoint/1`` JSON file written by
        :class:`CheckpointWriter`.
    budget:
        Replacement effort budget for the continuation. ``None`` (the
        default) restores the checkpoint's own budget — limits *and*
        evaluations already spent — so the combined run respects the
        original cap.
    hooks:
        Lifecycle hooks for the resumed segment.
    keep_checkpointing:
        When true (default) the continuation keeps overwriting ``path``
        at the cadence recorded in the checkpoint, so a resumed run is
        itself resumable.
    """
    payload = load_checkpoint(path)
    solver_info: dict[str, Any] = payload["solver"]
    name = solver_info["name"]
    params = dict(solver_info.get("params") or {})
    if name == "match":
        # ``dedup`` was a MatchConfig knob until duplicate-collapsing scoring
        # was deleted; scoring every row yields the same costs, so a
        # checkpoint that still names it resumes without it.
        params.pop("dedup", None)
    mapper = create_mapper(name, params)
    problem = problem_from_payload(payload["problem"])
    if budget is None:
        budget = EvaluationBudget.from_state(payload.get("budget") or {})
    checkpointer = None
    if keep_checkpointing:
        checkpointer = CheckpointWriter(
            path,
            solver_name=name,
            params=params,
            problem=problem,
            seed=payload.get("seed"),
            every=int(payload.get("checkpoint_every", 1)),
        )
    result = mapper.map(
        problem,
        None,  # the restored solver state carries the live RNG position
        budget=budget,
        hooks=hooks,
        checkpointer=checkpointer,
        resume_state=payload["state"],
        initial_elapsed=float(payload.get("elapsed", 0.0)),
    )
    return mapper, result
