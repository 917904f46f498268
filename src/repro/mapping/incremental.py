"""Incremental (delta) evaluation of mapping moves.

Neighborhood refinement (the refine phase of
:class:`~repro.baselines.fastmap_hierarchical.HierarchicalFastMap`)
probes many single-task *moves* and pairwise *swaps* per accepted change.
Re-running the full Eq. (1) evaluation for each probe costs O(n + E);
:class:`IncrementalEvaluator` maintains the per-resource execution times
and updates only the terms a move touches — O(deg(t)) per probe plus an
O(n_r) max — which is the standard trick that makes neighborhood search
competitive on TIG mapping.

Probes dispatch through the compiled kernel layer
(:mod:`repro.kernels`): the :meth:`~IncrementalEvaluator.move_cost` and
:meth:`~IncrementalEvaluator.swap_cost` probes run the same O(deg)
update the historical pure-Python code performed, in the same float
order, on whichever backend ``REPRO_KERNEL`` resolved — so a compiled
probe is bit-identical to the numpy one. *Applying* a move mutates the
evaluator's own state and stays in Python (it is O(deg), never hot).

The invariant (``exec_s`` always equals the reference Eq. (1) value for
the current assignment) is enforced by property-based tests, which run
under every available backend.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import MappingError
from repro.mapping.cost_model import CostModel
from repro.types import AssignmentVector

__all__ = ["IncrementalEvaluator"]


class IncrementalEvaluator:
    """Maintains Eq. (1) per-resource times under moves and swaps.

    Parameters
    ----------
    model:
        The (shared, immutable) cost model of the instance. Its CSR
        :class:`~repro.kernels.ProblemPack` and resolved kernel backend
        are reused, so constructing evaluators is cheap.
    assignment:
        Initial assignment; copied.
    """

    def __init__(self, model: CostModel, assignment: AssignmentVector) -> None:
        self.model = model
        problem = model.problem
        self._x = problem.check_assignment(np.asarray(assignment, dtype=np.int64)).copy()
        self._exec = model.per_resource_times(self._x).astype(np.float64)
        # CSR adjacency over tasks (shared with every evaluator of this
        # model): neighbors of t are _nbr[_off[t]:_off[t+1]] with volumes
        # _vol[...], in historical append order (see kernels/csr.py).
        self._pack = model.pack
        self._kernel = model._kernel
        self._off = self._pack.off
        self._nbr = self._pack.nbr
        self._vol = self._pack.nbr_vol

    # -- read access -------------------------------------------------------------
    @property
    def assignment(self) -> np.ndarray:
        """Copy of the current assignment vector."""
        return self._x.copy()

    @property
    def per_resource_times(self) -> np.ndarray:
        """Copy of the current Eq. (1) per-resource times."""
        return self._exec.copy()

    @property
    def current_cost(self) -> float:
        """Current Eq. (2) application execution time."""
        return float(self._exec.max())

    # -- move machinery ------------------------------------------------------------
    def _apply_move(self, exec_s: np.ndarray, x: np.ndarray, task: int, dest: int) -> None:
        """In-place: relocate ``task`` to ``dest`` updating ``exec_s`` and ``x``."""
        problem = self.model.problem
        W = problem.task_weights
        w = problem.proc_weights
        ccm = problem.comm_costs
        src = x[task]
        if src == dest:
            return
        exec_s[src] -= W[task] * w[src]
        exec_s[dest] += W[task] * w[dest]
        lo, hi = self._off[task], self._off[task + 1]
        for k in range(lo, hi):
            a = self._nbr[k]
            c_vol = self._vol[k]
            m = x[a]
            if m != src:
                exec_s[src] -= c_vol * ccm[src, m]
                exec_s[m] -= c_vol * ccm[m, src]
            if m != dest:
                exec_s[dest] += c_vol * ccm[dest, m]
                exec_s[m] += c_vol * ccm[m, dest]
        x[task] = dest

    # -- public operations -----------------------------------------------------------
    def move_cost(self, task: int, dest: int) -> float:
        """Eq. (2) cost if ``task`` were moved to ``dest`` (no state change)."""
        self._check_task(task)
        self._check_resource(dest)
        return self._kernel.move_cost(self._pack, self._exec, self._x, int(task), int(dest))

    def apply_move(self, task: int, dest: int) -> float:
        """Relocate ``task`` to ``dest``; returns the new cost."""
        self._check_task(task)
        self._check_resource(dest)
        self._apply_move(self._exec, self._x, task, dest)
        return self.current_cost

    def swap_cost(self, t1: int, t2: int) -> float:
        """Eq. (2) cost if tasks ``t1`` and ``t2`` exchanged resources."""
        self._check_task(t1)
        self._check_task(t2)
        return self._kernel.swap_cost(self._pack, self._exec, self._x, int(t1), int(t2))

    def apply_swap(self, t1: int, t2: int) -> float:
        """Exchange the resources of ``t1`` and ``t2``; returns the new cost."""
        self._check_task(t1)
        self._check_task(t2)
        s1, s2 = self._x[t1], self._x[t2]
        self._apply_move(self._exec, self._x, t1, s2)
        self._apply_move(self._exec, self._x, t2, s1)
        return self.current_cost

    def resync(self) -> None:
        """Recompute the per-resource times from scratch (drift guard)."""
        self._exec = self.model.per_resource_times(self._x).astype(np.float64)

    # -- checkpoint support --------------------------------------------------------
    def export_state(self) -> dict:
        """JSON-able snapshot of the live state (assignment + delta-maintained times).

        The per-resource times are serialized verbatim rather than recomputed
        on restore: ``_exec`` is delta-maintained, so a fresh Eq. (1) pass can
        differ from the accumulated floats in the last ulps — enough to flip a
        ``cost < current - 1e-12`` comparison and desynchronize a resumed
        search from the uninterrupted one.
        """
        return {"assignment": self._x.tolist(), "exec": self._exec.tolist()}

    @classmethod
    def from_state(cls, model: CostModel, state: dict) -> "IncrementalEvaluator":
        """Rebuild an evaluator mid-run from :meth:`export_state` output."""
        inc = cls(model, np.asarray(state["assignment"], dtype=np.int64))
        exec_s = np.asarray(state["exec"], dtype=np.float64)
        if exec_s.shape != inc._exec.shape:
            raise MappingError(
                f"checkpointed per-resource times have shape {exec_s.shape}, "
                f"expected {inc._exec.shape}"
            )
        inc._exec = exec_s
        return inc

    # -- checks --------------------------------------------------------------------
    def _check_task(self, task: int) -> None:
        if not 0 <= task < self.model.problem.n_tasks:
            raise MappingError(f"task {task} out of range")

    def _check_resource(self, resource: int) -> None:
        if not 0 <= resource < self.model.problem.n_resources:
            raise MappingError(f"resource {resource} out of range")
