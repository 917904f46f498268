"""Weighted undirected graph core shared by task and resource graphs.

The paper models both the application (Task Interaction Graph, §2) and the
platform (resource graph) as weighted undirected graphs. This module holds
the common representation:

* ``n_nodes`` vertices labelled ``0 .. n_nodes-1``;
* a float weight per vertex;
* an edge list ``(E, 2)`` with canonical ``u < v`` rows, no self-loops and
  no duplicates, plus a float weight per edge.

The array-of-edges layout (rather than adjacency dicts) is chosen so the
cost model can evaluate thousands of candidate mappings per CE iteration
with pure-numpy gathers — the central performance requirement of this
library (``N = 2 n²`` samples per iteration at ``n = 50`` means 5 000
mapping evaluations per iteration).
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np

from repro.exceptions import GraphError, ValidationError

__all__ = ["WeightedGraph", "canonicalize_edges"]


#: numpy dtype kinds each :func:`_array` rule accepts (bools are neither).
_KINDS = {"integers": "iu", "numbers": "iuf"}


def _array(values: Any, field: str, holds: str) -> np.ndarray:
    """``values`` as an array holding ``holds`` (``"integers"`` or ``"numbers"``).

    The kind is checked before any cast, so edges ``[[0.5, 1.5]]`` or
    weights ``["1.5"]`` are refused rather than truncated or parsed. A
    ragged or wrongly-typed input is a :class:`GraphError` on ``field``.
    """
    try:
        arr = np.asarray(values)
    except (ValueError, TypeError, OverflowError) as exc:
        raise GraphError("is not a rectangular array", field=field) from exc
    if arr.size and arr.dtype.kind not in _KINDS[holds]:
        raise GraphError(f"must hold {holds}, got dtype {arr.dtype}", field=field)
    return arr


def canonicalize_edges(edges: Any, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Validate and canonicalize an undirected edge list.

    Returns ``(canon, order)``: an ``(E, 2)`` ``int64`` array with each row
    sorted so ``u < v`` and rows lexicographically sorted, plus the
    permutation ``order`` mapping input edge positions to canonical rows
    (``canon[k]`` came from input row ``order[k]``). Raises
    :class:`GraphError` (``field="edges"``) on non-integer endpoints,
    self-loops, out-of-range endpoints or duplicate edges. An empty input
    yields ``(0, 2)`` / ``(0,)`` arrays.
    """
    arr = _array(edges, "edges", "integers")
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64)
    arr = arr.astype(np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphError(f"must have shape (E, 2), got {arr.shape}", field="edges")
    if arr.min() < 0 or arr.max() >= n_nodes:
        raise GraphError(
            f"must have endpoints in [0, {n_nodes - 1}], "
            f"got range [{arr.min()}, {arr.max()}]",
            field="edges",
        )
    if np.any(arr[:, 0] == arr[:, 1]):
        bad = arr[arr[:, 0] == arr[:, 1]][0]
        raise GraphError(f"must not hold self-loops, got one at node {bad[0]}", field="edges")
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    canon = np.stack([lo, hi], axis=1)
    order = np.lexsort((canon[:, 1], canon[:, 0]))
    canon = canon[order]
    dup = np.all(canon[1:] == canon[:-1], axis=1)
    if dup.any():
        first = canon[1:][dup][0]
        raise GraphError(
            f"must not hold duplicates, got edge ({first[0]}, {first[1]}) twice", field="edges"
        )
    return canon, order


class WeightedGraph:
    """An immutable weighted undirected graph.

    Parameters
    ----------
    node_weights:
        Per-vertex weights, length defines ``n_nodes``. Must be finite and
        non-negative.
    edges:
        ``(E, 2)`` integer endpoints (any orientation; canonicalized).
    edge_weights:
        Per-edge weights aligned with ``edges``. Must be finite and
        non-negative.
    name:
        Optional label used in reports and serialized files.
    """

    __slots__ = ("_node_weights", "_edges", "_edge_weights", "name", "_adj_cache")

    def __init__(
        self,
        node_weights: Any,
        edges: Any = (),
        edge_weights: Any = (),
        *,
        name: str = "",
    ) -> None:
        nw = _array(node_weights, "node_weights", "numbers").astype(np.float64, copy=False)
        if nw.ndim != 1 or nw.size == 0:
            raise GraphError(
                f"must be a non-empty 1-D array, got shape {nw.shape}", field="node_weights"
            )
        if not np.all(np.isfinite(nw)) or np.any(nw < 0):
            raise GraphError("must be finite and non-negative", field="node_weights")

        canon, order = canonicalize_edges(edges, nw.shape[0])
        ew = _array(edge_weights, "edge_weights", "numbers").astype(np.float64, copy=False)
        if ew.shape != (canon.shape[0],):
            raise GraphError(
                f"must have shape ({canon.shape[0]},), got {ew.shape}", field="edge_weights"
            )
        ew = ew[order]
        if not np.all(np.isfinite(ew)) or np.any(ew < 0):
            raise GraphError("must be finite and non-negative", field="edge_weights")

        # A read-only input (the shared plane's views) is adopted as-is; a
        # writeable one may still be the caller's buffer, so freeze a copy.
        if nw.flags.writeable and (nw is node_weights or nw.base is not None):
            nw = nw.copy()
        self._node_weights = nw
        self._node_weights.setflags(write=False)
        self._edges = canon
        self._edges.setflags(write=False)
        self._edge_weights = ew
        self._edge_weights.setflags(write=False)
        self.name = name
        self._adj_cache: np.ndarray | None = None

    # -- basic accessors -----------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of vertices."""
        return int(self._node_weights.shape[0])

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return int(self._edges.shape[0])

    @property
    def node_weights(self) -> np.ndarray:
        """Read-only ``(n_nodes,)`` vertex weight array."""
        return self._node_weights

    @property
    def edges(self) -> np.ndarray:
        """Read-only ``(n_edges, 2)`` canonical edge array (``u < v`` rows)."""
        return self._edges

    @property
    def edge_weights(self) -> np.ndarray:
        """Read-only ``(n_edges,)`` edge weight array aligned with :attr:`edges`."""
        return self._edge_weights

    # -- derived structure -----------------------------------------------------
    def adjacency_matrix(self) -> np.ndarray:
        """Dense symmetric ``(n, n)`` weight matrix (0 where no edge). Cached."""
        if self._adj_cache is None:
            n = self.n_nodes
            adj = np.zeros((n, n), dtype=np.float64)
            if self.n_edges:
                u, v = self._edges[:, 0], self._edges[:, 1]
                adj[u, v] = self._edge_weights
                adj[v, u] = self._edge_weights
            adj.setflags(write=False)
            self._adj_cache = adj
        return self._adj_cache

    def weighted_degrees(self) -> np.ndarray:
        """Sum of incident edge weights per vertex."""
        deg = np.zeros(self.n_nodes, dtype=np.float64)
        if self.n_edges:
            np.add.at(deg, self._edges[:, 0], self._edge_weights)
            np.add.at(deg, self._edges[:, 1], self._edge_weights)
        return deg

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted neighbor indices of ``node``."""
        if not 0 <= node < self.n_nodes:
            raise ValidationError(f"node {node} out of range [0, {self.n_nodes - 1}]")
        u, v = self._edges[:, 0], self._edges[:, 1]
        out = np.concatenate([v[u == node], u[v == node]])
        out.sort()
        return out

    def has_edge(self, u: int, v: int) -> bool:
        """True iff the undirected edge ``{u, v}`` is present."""
        if u == v:
            return False
        a, b = (u, v) if u < v else (v, u)
        return bool(np.any((self._edges[:, 0] == a) & (self._edges[:, 1] == b)))

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``{u, v}``; raises :class:`GraphError` if absent."""
        a, b = (u, v) if u < v else (v, u)
        mask = (self._edges[:, 0] == a) & (self._edges[:, 1] == b)
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            raise GraphError(f"no edge ({u}, {v})")
        return float(self._edge_weights[idx[0]])

    def is_connected(self) -> bool:
        """True iff the graph is connected (BFS over the edge arrays)."""
        n = self.n_nodes
        if n <= 1:
            return True
        adj_bool = self.adjacency_matrix() > 0
        visited = np.zeros(n, dtype=bool)
        visited[0] = True
        frontier = np.zeros(n, dtype=bool)
        frontier[0] = True
        while frontier.any():
            nxt = adj_bool[frontier].any(axis=0) & ~visited
            visited |= nxt
            frontier = nxt
        return bool(visited.all())

    def connected_components(self) -> list[np.ndarray]:
        """Vertex index arrays of each connected component (sorted)."""
        n = self.n_nodes
        labels = np.arange(n)
        # Min-label propagation along edges until a fixed point is reached.
        changed = self.n_edges > 0
        while changed:
            u, v = self._edges[:, 0], self._edges[:, 1]
            mins = np.minimum(labels[u], labels[v])
            before = labels.copy()
            np.minimum.at(labels, u, mins)
            np.minimum.at(labels, v, mins)
            changed = bool(np.any(labels != before))
        return [np.flatnonzero(labels == lab) for lab in np.unique(labels)]

    # -- dunder -----------------------------------------------------------------
    def __len__(self) -> int:
        return self.n_nodes

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n_nodes))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (
            self.n_nodes == other.n_nodes
            and np.array_equal(self._node_weights, other._node_weights)
            and np.array_equal(self._edges, other._edges)
            and np.array_equal(self._edge_weights, other._edge_weights)
        )

    def __hash__(self) -> int:  # graphs are immutable value objects
        return hash(
            (
                self.n_nodes,
                self._node_weights.tobytes(),
                self._edges.tobytes(),
                self._edge_weights.tobytes(),
            )
        )

    def __repr__(self) -> str:
        label = f"name={self.name!r}, " if self.name else ""
        return f"{type(self).__name__}({label}n_nodes={self.n_nodes}, n_edges={self.n_edges})"

    # -- construction helpers ----------------------------------------------------
    @classmethod
    def from_adjacency(
        cls,
        node_weights: Sequence[float],
        adjacency: Any,
        *,
        name: str = "",
    ) -> "WeightedGraph":
        """Build from a symmetric ``(n, n)`` weight matrix (0 = no edge)."""
        adj = np.asarray(adjacency, dtype=np.float64)
        n = len(node_weights)
        if adj.shape != (n, n):
            raise GraphError(f"adjacency must be ({n}, {n}), got {adj.shape}")
        if not np.allclose(adj, adj.T):
            raise GraphError("adjacency matrix must be symmetric")
        iu, iv = np.triu_indices(n, k=1)
        mask = adj[iu, iv] > 0
        edges = np.stack([iu[mask], iv[mask]], axis=1)
        return cls(node_weights, edges, adj[iu[mask], iv[mask]], name=name)
