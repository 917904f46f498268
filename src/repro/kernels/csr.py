"""Flat, kernel-ready packing of a mapping problem (``ProblemPack``).

Every compiled kernel consumes the same flat packed view of a
:class:`~repro.mapping.problem.MappingProblem`: contiguous float64/int64
arrays with no Python objects behind them, so the C and numpy backends
read identical bytes. The pack is built once per
:class:`~repro.mapping.cost_model.CostModel` and shared by every
evaluator attacking the instance.

Layout
------
* ``task_weights`` ``(n_t,)`` / ``proc_weights`` ``(n_r,)`` — Eq. (1)
  compute terms.
* ``comm`` ``(n_r, n_r)`` C-contiguous; ``comm_flat`` is its raveled
  view, so ``comm_flat[s * n_r + b] == comm[s, b]`` — the flat 1-D
  lookup every kernel uses.
* ``eu`` / ``ev`` / ``edge_vol`` ``(E,)`` — the TIG edge list in file
  order (COO), driving the batched scoring kernels.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mapping.problem import MappingProblem

__all__ = ["ProblemPack", "build_pack"]


class ProblemPack:
    """Contiguous array bundle consumed by every kernel backend."""

    __slots__ = (
        "n_tasks", "n_resources", "task_weights", "proc_weights",
        "comm", "comm_flat", "eu", "ev", "edge_vol",
    )

    def __init__(
        self,
        n_tasks: int,
        n_resources: int,
        task_weights: np.ndarray,
        proc_weights: np.ndarray,
        comm: np.ndarray,
        eu: np.ndarray,
        ev: np.ndarray,
        edge_vol: np.ndarray,
    ) -> None:
        self.n_tasks = int(n_tasks)
        self.n_resources = int(n_resources)
        self.task_weights = task_weights
        self.proc_weights = proc_weights
        self.comm = comm
        self.comm_flat = comm.ravel()  # contiguous view: comm_flat[s*n_r+b]
        self.eu = eu
        self.ev = ev
        self.edge_vol = edge_vol


def build_pack(problem: "MappingProblem") -> ProblemPack:
    """Snapshot ``problem`` into kernel-ready contiguous arrays."""
    edges = problem.edges
    if edges.size:
        eu = np.ascontiguousarray(edges[:, 0], dtype=np.int64)
        ev = np.ascontiguousarray(edges[:, 1], dtype=np.int64)
        edge_vol = np.ascontiguousarray(problem.edge_weights, dtype=np.float64)
    else:
        eu = np.zeros(0, dtype=np.int64)
        ev = np.zeros(0, dtype=np.int64)
        edge_vol = np.zeros(0, dtype=np.float64)
    return ProblemPack(
        n_tasks=problem.n_tasks,
        n_resources=problem.n_resources,
        task_weights=np.ascontiguousarray(problem.task_weights, dtype=np.float64),
        proc_weights=np.ascontiguousarray(problem.proc_weights, dtype=np.float64),
        comm=np.ascontiguousarray(problem.comm_costs, dtype=np.float64),
        eu=eu,
        ev=ev,
        edge_vol=edge_vol,
    )
