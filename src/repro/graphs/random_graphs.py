"""Random undirected graph topologies used by the synthetic generators.

Three edge-set models, all returning canonical ``(E, 2)`` arrays:

* :func:`gnp_edges` — Erdős–Rényi G(n, p);
* :func:`two_block_edges` — a planted high-density / low-density two-block
  model. §5.2 notes the TIG edges were randomized "so as to represent
  regions of high density and regions of lower density"; this model is the
  direct realization of that sentence;
* :func:`random_geometric_edges` — unit-square geometric graph, a natural
  stand-in for overset-grid adjacency (nearby grids overlap).

Every model can be made connected by unioning a uniformly random spanning
tree (:func:`random_spanning_tree_edges`), which keeps the paper's implicit
assumption that the application is one coupled computation.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.types import SeedLike
from repro.utils.rng import as_generator
from repro.utils.validation import check_in_range

__all__ = [
    "gnp_edges",
    "two_block_edges",
    "random_geometric_edges",
    "random_spanning_tree_edges",
    "ensure_connected_edges",
]


def _all_pairs(n: int) -> np.ndarray:
    """All C(n,2) canonical pairs as an ``(m, 2)`` array."""
    iu, iv = np.triu_indices(n, k=1)
    return np.stack([iu, iv], axis=1)


def _unique_edges(edges: np.ndarray) -> np.ndarray:
    """Canonicalize rows (u<v), sort lexicographically, drop duplicates."""
    if edges.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    canon = np.stack([lo, hi], axis=1)
    return np.unique(canon, axis=0)


def gnp_edges(n: int, p: float, rng: SeedLike = None) -> np.ndarray:
    """Erdős–Rényi G(n, p) edge set (each pair kept independently w.p. ``p``)."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    check_in_range("p", p, 0.0, 1.0)
    gen = as_generator(rng)
    pairs = _all_pairs(n)
    keep = gen.random(pairs.shape[0]) < p
    return pairs[keep].astype(np.int64)


def two_block_edges(
    n: int,
    p_dense: float,
    p_sparse: float,
    rng: SeedLike = None,
    *,
    dense_fraction: float = 0.5,
) -> np.ndarray:
    """Two-block planted-density edge set.

    The first ``round(dense_fraction * n)`` vertices form a dense region
    with internal edge probability ``p_dense``; every other pair (sparse
    block internal and cross-block) appears with probability ``p_sparse``.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    check_in_range("p_dense", p_dense, 0.0, 1.0)
    check_in_range("p_sparse", p_sparse, 0.0, 1.0)
    check_in_range("dense_fraction", dense_fraction, 0.0, 1.0)
    gen = as_generator(rng)
    k = int(round(dense_fraction * n))
    pairs = _all_pairs(n)
    in_dense = (pairs[:, 0] < k) & (pairs[:, 1] < k)
    probs = np.where(in_dense, p_dense, p_sparse)
    keep = gen.random(pairs.shape[0]) < probs
    return pairs[keep].astype(np.int64)


def random_geometric_edges(
    n: int,
    radius: float,
    rng: SeedLike = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Random geometric graph on the unit square.

    Vertices are i.i.d. uniform points; pairs within Euclidean ``radius``
    are connected. Returns ``(edges, positions)`` — the positions let
    callers derive distance-dependent edge weights.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if radius <= 0:
        raise ValidationError(f"radius must be > 0, got {radius}")
    gen = as_generator(rng)
    pos = gen.random((n, 2))
    pairs = _all_pairs(n)
    d = np.linalg.norm(pos[pairs[:, 0]] - pos[pairs[:, 1]], axis=1)
    return pairs[d <= radius].astype(np.int64), pos


def random_spanning_tree_edges(n: int, rng: SeedLike = None) -> np.ndarray:
    """A uniformly-shuffled random spanning tree (random-attachment model).

    Vertices are visited in a random order; each new vertex attaches to a
    uniformly random already-visited vertex. Produces ``n - 1`` edges
    spanning all vertices (empty for ``n <= 1``).
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if n == 1:
        return np.empty((0, 2), dtype=np.int64)
    gen = as_generator(rng)
    order = gen.permutation(n)
    # attach order[i] (i >= 1) to a random earlier vertex order[j], j < i
    attach_idx = np.array([gen.integers(0, i) for i in range(1, n)])
    u = order[1:]
    v = order[attach_idx]
    return _unique_edges(np.stack([u, v], axis=1).astype(np.int64))


def ensure_connected_edges(n: int, edges: np.ndarray, rng: SeedLike = None) -> np.ndarray:
    """Union ``edges`` with a random spanning tree so the graph is connected.

    Idempotent in distribution: existing edges are kept, duplicates merged.
    """
    tree = random_spanning_tree_edges(n, rng)
    if edges.size == 0:
        return tree
    return _unique_edges(np.concatenate([np.asarray(edges, dtype=np.int64), tree], axis=0))
