"""The mapping problem instance: a TIG coupled to a resource graph.

:class:`MappingProblem` validates the pair, pre-extracts the flat arrays
the vectorized cost model consumes (task weights, interaction edge list,
processing weights, closed communication-cost matrix) and caches them, so
that every optimizer in the library evaluates candidates against the same
immutable numeric view of the instance.
"""

from __future__ import annotations

from typing import Mapping as TypingMapping

import numpy as np

from repro.exceptions import MappingError, ValidationError
from repro.graphs.resource_graph import ResourceGraph
from repro.graphs.task_graph import TaskInteractionGraph
from repro.types import AssignmentVector

__all__ = ["MappingProblem"]


class MappingProblem:
    """An instance of the heterogeneous mapping problem of §2.

    Parameters
    ----------
    tig:
        The application's Task Interaction Graph.
    resources:
        The heterogeneous resource graph.
    require_square:
        If True (the paper's setting), enforce ``|V_t| == |V_r|``.

    Attributes
    ----------
    task_weights:
        ``(n_tasks,)`` computation weights ``W_t``.
    proc_weights:
        ``(n_resources,)`` processing costs ``w_s``.
    comm_costs:
        ``(n_resources, n_resources)`` closed per-unit communication cost
        matrix ``c_{s,b}`` with zero diagonal.
    edges / edge_weights:
        The TIG interaction edges and volumes ``C^{t,a}``.
    """

    __slots__ = (
        "tig",
        "resources",
        "task_weights",
        "proc_weights",
        "comm_costs",
        "edges",
        "edge_weights",
    )

    def __init__(
        self,
        tig: TaskInteractionGraph,
        resources: ResourceGraph,
        *,
        require_square: bool = False,
    ) -> None:
        if not isinstance(tig, TaskInteractionGraph):
            raise ValidationError(f"tig must be a TaskInteractionGraph, got {type(tig).__name__}")
        if not isinstance(resources, ResourceGraph):
            raise ValidationError(
                f"resources must be a ResourceGraph, got {type(resources).__name__}"
            )
        if require_square and tig.n_nodes != resources.n_nodes:
            raise ValidationError(
                f"require_square: |V_t|={tig.n_nodes} != |V_r|={resources.n_nodes}"
            )
        self.tig = tig
        self.resources = resources
        self.task_weights = tig.computation_weights
        self.proc_weights = resources.processing_weights
        self.comm_costs = resources.comm_cost_matrix()  # raises if disconnected
        self.comm_costs.setflags(write=False)
        self.edges = tig.edges
        self.edge_weights = tig.edge_weights
        self._check_time_bound()

    def _check_time_bound(self) -> None:
        """Refuse an instance on which some mapping's Eq. (1) time can overflow.

        A task computes on one resource and an edge adds to each resource's
        time at most once, so no resource's time exceeds
        ``Σ W_t · max w_s + Σ C^{t,a} · max c_{s,b}``. The error names the
        arrays of every term that overflows float64.
        """
        with np.errstate(over="ignore"):
            compute = self.task_weights.sum() * self.proc_weights.max(initial=0.0)
            traffic = self.edge_weights.sum() * self.comm_costs.max(initial=0.0)
            bound = compute + traffic
        if np.isfinite(bound):
            return
        names = [
            *(("task_weights", "proc_weights") if not np.isfinite(compute) else ()),
            *(("tig_edge_weights", "res_edge_weights") if not np.isfinite(traffic) else ()),
        ] or ["task_weights", "proc_weights", "tig_edge_weights", "res_edge_weights"]
        raise ValidationError(
            f"{', '.join(names)} must keep every mapping's Eq. (1) time finite: "
            "Σ task weights × max proc weight + Σ TIG edge weights × max "
            "communication cost overflows float64"
        )

    # -- shape ------------------------------------------------------------
    @property
    def n_tasks(self) -> int:
        """Number of application tasks ``|V_t|``."""
        return self.tig.n_nodes

    @property
    def n_resources(self) -> int:
        """Number of platform resources ``|V_r|``."""
        return self.resources.n_nodes

    @property
    def is_square(self) -> bool:
        """True iff ``|V_t| == |V_r|`` (the paper's setting)."""
        return self.n_tasks == self.n_resources

    # -- assignment validation ----------------------------------------------
    def check_assignment(self, assignment: AssignmentVector) -> np.ndarray:
        """Validate that ``assignment`` maps every task to a valid resource."""
        arr = np.asarray(assignment)
        if arr.ndim != 1 or arr.shape[0] != self.n_tasks:
            raise MappingError(
                f"assignment must have shape ({self.n_tasks},), got {arr.shape}"
            )
        if not np.issubdtype(arr.dtype, np.integer):
            raise MappingError(f"assignment must be integer-typed, got dtype {arr.dtype}")
        if arr.size and (arr.min() < 0 or arr.max() >= self.n_resources):
            raise MappingError(
                f"assignment values must be in [0, {self.n_resources - 1}], "
                f"got range [{arr.min()}, {arr.max()}]"
            )
        return arr.astype(np.int64, copy=False)

    def is_one_to_one(self, assignment: AssignmentVector) -> bool:
        """True iff no two tasks share a resource (a permutation when square)."""
        arr = self.check_assignment(assignment)
        return np.unique(arr).size == arr.size

    # -- array export ----------------------------------------------------------
    def plane_arrays(self) -> dict[str, np.ndarray]:
        """Every numeric array of the problem, keyed by name.

        The TIG arrays, the resource-graph arrays and the already-closed
        communication-cost matrix: the input of
        :func:`~repro.mapping.problem_key.problem_key`. The service wire
        sends only the six graph arrays. :meth:`from_plane_arrays` inverts
        this bit-for-bit.
        """
        return {
            "task_weights": self.task_weights,
            "tig_edges": self.edges,
            "tig_edge_weights": self.edge_weights,
            "proc_weights": self.proc_weights,
            "res_edges": self.resources.edges,
            "res_edge_weights": self.resources.edge_weights,
            "comm_costs": self.comm_costs,
        }

    @classmethod
    def from_plane_arrays(
        cls,
        arrays: "TypingMapping[str, np.ndarray]",
        *,
        tig_name: str = "",
        res_name: str = "",
    ) -> "MappingProblem":
        """Rebuild a problem from :meth:`plane_arrays` output (zero-copy).

        No library code calls this; it stays for the benchmark's
        ``mapping.problem_build`` patch, and ROADMAP item 4 step 1 frees it.
        Every library path, the service wire included, builds through
        ``__init__``. The graphs are reconstructed through their normal
        validating constructors, but the dense ``comm_costs`` matrix is
        adopted as-is instead of being recomputed. The result is
        numerically identical to the source problem: same weights, same
        canonical edge order, same closed cost matrix.
        """
        tig = TaskInteractionGraph(
            arrays["task_weights"],
            arrays["tig_edges"],
            arrays["tig_edge_weights"],
            name=tig_name,
        )
        resources = ResourceGraph(
            arrays["proc_weights"],
            arrays["res_edges"],
            arrays["res_edge_weights"],
            name=res_name,
        )
        problem = cls.__new__(cls)
        problem.tig = tig
        problem.resources = resources
        problem.task_weights = tig.computation_weights
        problem.proc_weights = resources.processing_weights
        comm = np.asarray(arrays["comm_costs"], dtype=np.float64)
        if comm.shape != (resources.n_nodes, resources.n_nodes):
            raise ValidationError(
                f"comm_costs must be ({resources.n_nodes}, {resources.n_nodes}), "
                f"got {comm.shape}"
            )
        comm.setflags(write=False)
        problem.comm_costs = comm
        problem.edges = tig.edges
        problem.edge_weights = tig.edge_weights
        return problem

    # -- misc ---------------------------------------------------------------
    def search_space_size(self) -> float:
        """Number of one-to-one mappings: ``n_r! / (n_r - n_t)!`` (as float)."""
        from math import lgamma

        if self.n_tasks > self.n_resources:
            return 0.0
        return float(
            np.exp(lgamma(self.n_resources + 1) - lgamma(self.n_resources - self.n_tasks + 1))
        )

    def __repr__(self) -> str:
        return (
            f"MappingProblem(n_tasks={self.n_tasks}, n_resources={self.n_resources}, "
            f"n_interactions={self.edges.shape[0]})"
        )
