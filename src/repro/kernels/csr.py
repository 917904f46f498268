"""Flat, kernel-ready packing of a mapping problem (``ProblemPack``).

Every compiled kernel consumes the same CSR-packed view of a
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
  order, driving the batched scoring kernels.
* ``off`` / ``nbr`` / ``nbr_vol`` — CSR adjacency over tasks for the
  O(deg) delta kernels: the neighbors of ``t`` are
  ``nbr[off[t]:off[t+1]]`` with volumes ``nbr_vol[...]``.

The CSR build must reproduce, *exactly*, the neighbor order of the
historical Python loop in ``mapping/incremental.py`` (edges visited in
file order, the ``u``-side entry appended before the ``v``-side entry of
the same edge): delta updates accumulate floats in neighbor order, so a
different order would change last-ulp results and break the golden
fixtures. Interleaving the endpoint columns (``edges.ravel()`` gives
``u0, v0, u1, v1, ...``) and stable-argsorting by source task yields
precisely that order with no Python-level loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mapping.problem import MappingProblem

__all__ = ["ProblemPack", "build_pack", "build_adjacency"]


def build_adjacency(
    edges: np.ndarray, edge_vol: np.ndarray, n_tasks: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR task adjacency ``(off, nbr, nbr_vol)`` in historical neighbor order.

    Per task ``t`` the neighbors appear in ascending edge-index order,
    with the ``u``-side entry of an edge preceding its ``v``-side entry —
    bit-compatible with the appending loop this build replaces.
    """
    off = np.zeros(n_tasks + 1, dtype=np.int64)
    if not edges.size:
        return off, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
    edges = np.ascontiguousarray(edges, dtype=np.int64)
    src = edges.ravel()  # u0, v0, u1, v1, ... — interleaved endpoint order
    dst = edges[:, ::-1].ravel()  # v0, u0, v1, u1, ...
    vol2 = np.repeat(np.asarray(edge_vol, dtype=np.float64), 2)
    order = np.argsort(src, kind="stable")
    deg = np.bincount(src, minlength=n_tasks)
    np.cumsum(deg, out=off[1:])
    return off, np.ascontiguousarray(dst[order]), np.ascontiguousarray(vol2[order])


class ProblemPack:
    """Contiguous array bundle consumed by every kernel backend."""

    __slots__ = (
        "n_tasks", "n_resources", "task_weights", "proc_weights",
        "comm", "comm_flat", "eu", "ev", "edge_vol", "off", "nbr", "nbr_vol",
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
        off: np.ndarray,
        nbr: np.ndarray,
        nbr_vol: np.ndarray,
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
        self.off = off
        self.nbr = nbr
        self.nbr_vol = nbr_vol


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
    off, nbr, nbr_vol = build_adjacency(edges, edge_vol, problem.n_tasks)
    return ProblemPack(
        n_tasks=problem.n_tasks,
        n_resources=problem.n_resources,
        task_weights=np.ascontiguousarray(problem.task_weights, dtype=np.float64),
        proc_weights=np.ascontiguousarray(problem.proc_weights, dtype=np.float64),
        comm=np.ascontiguousarray(problem.comm_costs, dtype=np.float64),
        eu=eu,
        ev=ev,
        edge_vol=edge_vol,
        off=off,
        nbr=nbr,
        nbr_vol=nbr_vol,
    )
