"""Heterogeneous resource (system) graph — the platform model of §2.

A resource vertex ``r_s`` has processing weight ``w_s``: the cost *per unit
of computation* on that machine (bigger = slower). A link ``(r_s, r_b)``
has weight ``c_{s,b}``: the cost *per unit of communication* between the two
machines.

Eq. (1) charges ``c_{s,b}`` for *any* pair of distinct resources hosting
interacting tasks, so the cost model needs a full pairwise communication
cost matrix. For a complete resource graph that is simply the link weights;
for sparse platforms we close the metric with all-pairs shortest paths
(communication is routed over the cheapest multi-hop path). Co-located
tasks (``b == s``) communicate for free, exactly as Eq. (1) excludes the
``r_b = r_s`` terms.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import GraphError
from repro.graphs.base import WeightedGraph

__all__ = ["ResourceGraph", "shortest_path_closure"]


def shortest_path_closure(cost: np.ndarray) -> np.ndarray:
    """All-pairs shortest path distances for a dense symmetric cost matrix.

    ``cost`` uses ``np.inf`` for missing links and zeros on the diagonal.
    Implemented as a vectorized Floyd–Warshall: ``n`` passes of an
    ``(n, n)`` broadcast minimum, O(n³) total work with numpy inner loops —
    ample for platform graphs (n ≤ a few hundred). A route whose summed
    cost exceeds the float64 range reads ``inf``, silently, exactly like a
    missing one; :meth:`ResourceGraph.comm_cost_matrix` tells them apart.
    """
    n = cost.shape[0]
    if cost.shape != (n, n):
        raise GraphError(f"cost matrix must be square, got {cost.shape}")
    dist = cost.astype(np.float64, copy=True)
    np.fill_diagonal(dist, 0.0)
    with np.errstate(over="ignore"):
        for k in range(n):
            # dist = min(dist, dist[:, k, None] + dist[None, k, :])
            via_k = dist[:, k, np.newaxis] + dist[np.newaxis, k, :]
            np.minimum(dist, via_k, out=dist)
    return dist


class ResourceGraph(WeightedGraph):
    """Weighted undirected graph of heterogeneous processing resources.

    Node weight ``w_s``: processing cost per unit computation; edge weight
    ``c_{s,b}``: communication cost per unit data between adjacent
    resources. :meth:`comm_cost_matrix` exposes the closed pairwise metric
    the cost model consumes.
    """

    @property
    def n_resources(self) -> int:
        """Number of resources (alias of :attr:`n_nodes`)."""
        return self.n_nodes

    @property
    def processing_weights(self) -> np.ndarray:
        """Per-resource processing costs ``w_s`` (alias of :attr:`node_weights`)."""
        return self.node_weights

    def is_complete(self) -> bool:
        """True iff every pair of distinct resources has a direct link."""
        n = self.n_nodes
        return self.n_edges == n * (n - 1) // 2

    def direct_cost_matrix(self) -> np.ndarray:
        """``(n, n)`` matrix of direct link costs; ``inf`` where no link, 0 diagonal."""
        n = self.n_nodes
        cost = np.full((n, n), np.inf, dtype=np.float64)
        np.fill_diagonal(cost, 0.0)
        if self.n_edges:
            u, v = self.edges[:, 0], self.edges[:, 1]
            cost[u, v] = self.edge_weights
            cost[v, u] = self.edge_weights
        return cost

    def comm_cost_matrix(self, *, closure: bool = True) -> np.ndarray:
        """Pairwise per-unit communication cost matrix ``c_{s,b}``.

        With ``closure=True`` (default) missing links are filled with
        cheapest multi-hop routes; a disconnected platform then still has
        ``inf`` entries between components and :class:`GraphError` is
        raised on ``edges``, because Eq. (1) would be undefined; a connected
        platform whose cheapest route between some pair overflows float64
        is a :class:`GraphError` on ``edge_weights``. With ``closure=False``
        the direct matrix is returned and may contain ``inf``.
        """
        cost = self.direct_cost_matrix()
        if not closure:
            return cost
        if self.is_complete():
            return cost
        closed = shortest_path_closure(cost)
        if np.any(np.isinf(closed)):
            # Close the links at zero cost: a pair still at inf has no route.
            routes = shortest_path_closure(np.where(np.isinf(cost), np.inf, 0.0))
            if np.any(np.isinf(routes)):
                raise GraphError(
                    "must connect every resource pair: the resource graph is disconnected",
                    field="edges",
                )
            raise GraphError(
                "must keep every route's summed cost finite: a multi-hop route "
                "overflows float64",
                field="edge_weights",
            )
        return closed

    def heterogeneity(self) -> float:
        """Coefficient of variation of processing weights (0 = homogeneous)."""
        w = self.node_weights
        mean = w.mean()
        if mean == 0:
            return 0.0
        return float(w.std() / mean)
