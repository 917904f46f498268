"""The execution-time cost model — Eqs. (1) and (2) of the paper.

For a mapping ``M`` (``assignment[t] = s`` meaning task ``v_t`` runs on
resource ``r_s``):

* per-resource execution time, Eq. (1)::

      Exec_s = Σ_{t → s} W_t · w_s
             + Σ_{t → s} Σ_{a ~ t, a → b, b ≠ s} C^{t,a} · c_{s,b}

* application execution time, Eq. (2)::

      Exec = max_s Exec_s

Two implementations are provided and cross-validated in the test suite:

* :func:`evaluate_reference` — direct nested loops transcribing Eq. (1),
  used as the executable specification;
* :class:`CostModel` — the production evaluator. Its batch methods
  dispatch through :mod:`repro.kernels` (DESIGN.md §11): the problem is
  snapshotted once into a CSR-packed :class:`~repro.kernels.ProblemPack`
  and scored by whichever backend ``REPRO_KERNEL`` selected — the
  on-demand-compiled C kernels or the vectorized numpy reference. Both
  backends are bit-identical (the cross-backend parity suite pins them
  against each other and against :func:`evaluate_reference`), so
  the choice affects throughput only. One CE iteration at ``n = 50``
  evaluates ``N = 2·50² = 5000`` mappings; this is the library's hot
  path (see the hpc guide note in :mod:`repro.graphs.base`).
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.mapping.problem import MappingProblem
from repro.types import AssignmentBatch, AssignmentVector, CostVector, as_assignment_batch

__all__ = [
    "evaluate_reference",
    "per_resource_times_reference",
    "CostModel",
]


def per_resource_times_reference(
    problem: MappingProblem, assignment: AssignmentVector
) -> np.ndarray:
    """Eq. (1) computed with explicit loops — the executable specification.

    Intentionally unoptimized; every vectorized path must agree with this
    to machine precision.
    """
    x = problem.check_assignment(assignment)
    n_r = problem.n_resources
    W = problem.task_weights
    w = problem.proc_weights
    C = problem.edge_weights
    ccm = problem.comm_costs
    exec_s = np.zeros(n_r, dtype=np.float64)

    # Processing term: Σ_{t -> s} W_t * w_s.
    for t in range(problem.n_tasks):
        s = x[t]
        exec_s[s] += W[t] * w[s]

    # Communication term: every interacting pair on distinct resources
    # charges both endpoints' resources.
    for e in range(problem.edges.shape[0]):
        t, a = problem.edges[e]
        s, b = x[t], x[a]
        if s != b:
            exec_s[s] += C[e] * ccm[s, b]
            exec_s[b] += C[e] * ccm[b, s]
    return exec_s


def evaluate_reference(problem: MappingProblem, assignment: AssignmentVector) -> float:
    """Eq. (2) via the reference Eq. (1) loop implementation."""
    return float(per_resource_times_reference(problem, assignment).max())


class CostModel:
    """Kernel-dispatched evaluator of the paper's cost model for a fixed problem.

    The constructor snapshots the problem into a CSR
    :class:`~repro.kernels.ProblemPack` and resolves the process-active
    kernel backend once; evaluation methods are pure functions of the
    assignment argument, so one ``CostModel`` can be shared by every
    optimizer attacking the same instance.
    """

    __slots__ = ("problem", "pack", "_kernel", "_W", "_w", "_C", "_ccm",
                 "_eu", "_ev", "_n_r", "_n_t")

    def __init__(self, problem: MappingProblem) -> None:
        self.problem = problem
        self.pack = kernels.build_pack(problem)
        self._kernel = kernels.get_backend()
        self._W = problem.task_weights
        self._w = problem.proc_weights
        self._C = problem.edge_weights
        self._ccm = problem.comm_costs
        self._eu = self.pack.eu
        self._ev = self.pack.ev
        self._n_r = problem.n_resources
        self._n_t = problem.n_tasks

    @property
    def kernel_name(self) -> str:
        """Name of the kernel backend this model dispatches to."""
        return self._kernel.name

    # -- single-assignment API ----------------------------------------------
    def per_resource_times(self, assignment: AssignmentVector) -> np.ndarray:
        """Vectorized Eq. (1): per-resource execution times for one mapping."""
        x = self.problem.check_assignment(assignment)
        exec_s = np.bincount(x, weights=self._W * self._w[x], minlength=self._n_r)
        if self._eu.size:
            s = x[self._eu]
            b = x[self._ev]
            link = self._C * self._ccm[s, b]  # 0 where s == b (zero diagonal)
            exec_s += np.bincount(s, weights=link, minlength=self._n_r)
            exec_s += np.bincount(b, weights=link, minlength=self._n_r)
        return exec_s

    def evaluate(self, assignment: AssignmentVector) -> float:
        """Eq. (2): the application execution time of one mapping."""
        return float(self.per_resource_times(assignment).max())

    # -- batch API -------------------------------------------------------------
    def _check_batch(self, assignments: AssignmentBatch) -> np.ndarray:
        X = as_assignment_batch(assignments)
        if X.shape[1] != self._n_t:
            raise ValueError(f"batch must have {self._n_t} columns, got {X.shape[1]}")
        if X.size and (X.min() < 0 or X.max() >= self._n_r):
            raise ValueError("batch contains out-of-range resource indices")
        return X

    def _times_block(self, X: np.ndarray) -> np.ndarray:
        """Eq. (1) for one (pre-validated) block via the kernel backend."""
        return self._kernel.times_batch(self.pack, X)

    def per_resource_times_batch(self, assignments: AssignmentBatch) -> np.ndarray:
        """Eq. (1) for a whole batch: returns ``(N, n_resources)`` times.

        Dispatches to the resolved kernel backend; the numpy backend
        internally processes large batches in cache-sized row blocks
        (block boundaries cannot change any value — every term is
        row-local), the compiled backends stream row by row.
        """
        return self._kernel.times_batch(self.pack, self._check_batch(assignments))

    def evaluate_batch(self, assignments: AssignmentBatch) -> CostVector:
        """Eq. (2) for a whole batch: one cost per row (lower is better)."""
        return self._kernel.eval_batch(self.pack, self._check_batch(assignments))

    # -- diagnostics -------------------------------------------------------------
    def breakdown(self, assignment: AssignmentVector) -> dict[str, float]:
        """Cost decomposition for reporting: compute vs. communication share."""
        x = self.problem.check_assignment(assignment)
        comp = np.bincount(x, weights=self._W * self._w[x], minlength=self._n_r)
        comm = np.zeros(self._n_r)
        if self._eu.size:
            s = x[self._eu]
            b = x[self._ev]
            link = self._C * self._ccm[s, b]
            comm += np.bincount(s, weights=link, minlength=self._n_r)
            comm += np.bincount(b, weights=link, minlength=self._n_r)
        total = comp + comm
        busiest = int(np.argmax(total))
        return {
            "execution_time": float(total.max()),
            "busiest_resource": busiest,
            "busiest_compute": float(comp[busiest]),
            "busiest_comm": float(comm[busiest]),
            "total_compute": float(comp.sum()),
            "total_comm": float(comm.sum()),
            "mean_resource_time": float(total.mean()),
            "imbalance": float(total.max() / total.mean()) if total.mean() > 0 else 1.0,
        }
