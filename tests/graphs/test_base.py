"""Tests for repro.graphs.base (WeightedGraph core)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError, ValidationError
from repro.graphs import TaskInteractionGraph
from repro.graphs.base import WeightedGraph, canonicalize_edges


def make_triangle() -> WeightedGraph:
    return WeightedGraph([1.0, 2.0, 3.0], [(0, 1), (1, 2), (0, 2)], [10, 20, 30])


class TestCanonicalizeEdges:
    def test_orients_and_sorts(self):
        canon, order = canonicalize_edges([(2, 1), (1, 0)], 3)
        np.testing.assert_array_equal(canon, [[0, 1], [1, 2]])
        np.testing.assert_array_equal(order, [1, 0])

    def test_empty(self):
        canon, order = canonicalize_edges([], 3)
        assert canon.shape == (0, 2) and order.shape == (0,)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            canonicalize_edges([(1, 1)], 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="endpoints"):
            canonicalize_edges([(0, 3)], 3)

    def test_duplicates_rejected_any_orientation(self):
        with pytest.raises(GraphError, match="duplicate"):
            canonicalize_edges([(0, 1), (1, 0)], 3)

    def test_bad_shape_rejected(self):
        with pytest.raises(GraphError, match="shape"):
            canonicalize_edges([(0, 1, 2)], 3)


class TestConstruction:
    def test_basic_counts(self):
        g = make_triangle()
        assert g.n_nodes == 3 and g.n_edges == 3 and len(g) == 3

    def test_edge_weights_follow_canonical_order(self):
        g = WeightedGraph([1, 1, 1], [(2, 0), (1, 0)], [30.0, 10.0])
        # canonical order: (0,1) then (0,2)
        assert g.edge_weight(0, 1) == 10.0
        assert g.edge_weight(0, 2) == 30.0

    def test_edgeless_graph(self):
        g = WeightedGraph([1.0, 2.0])
        assert g.n_edges == 0

    def test_single_node(self):
        g = WeightedGraph([5.0])
        assert g.n_nodes == 1 and g.is_connected()

    def test_empty_node_weights_rejected(self):
        with pytest.raises(GraphError):
            WeightedGraph([])

    def test_negative_node_weight_rejected(self):
        with pytest.raises(GraphError, match="node_weights must be finite"):
            WeightedGraph([1.0, -2.0])

    def test_nan_node_weight_rejected(self):
        with pytest.raises(GraphError):
            WeightedGraph([1.0, float("nan")])

    def test_negative_edge_weight_rejected(self):
        with pytest.raises(GraphError, match="edge_weights must be finite"):
            WeightedGraph([1, 1], [(0, 1)], [-1.0])

    def test_edge_weight_length_mismatch(self):
        with pytest.raises(GraphError, match="edge_weights"):
            WeightedGraph([1, 1], [(0, 1)], [1.0, 2.0])

    @pytest.mark.parametrize(
        "edges", [[[0.7, 2.9]], [[0.0, 2.0]], [["0", "2"]], [[True, False]]],
        ids=["fractional", "integral-floats", "strings", "bools"],
    )
    def test_non_integer_edges_rejected_not_truncated(self, edges):
        # np.asarray(edges, dtype=int64) would read [[0.7, 2.9]] as [[0, 2]].
        with pytest.raises(GraphError, match="edges must hold integers") as info:
            TaskInteractionGraph([1, 1, 1], edges, [1.0])
        assert info.value.field == "edges"

    @pytest.mark.parametrize(
        "field, args",
        [
            ("node_weights", (["1.5", "2"],)),
            ("node_weights", ([True, False],)),
            ("edge_weights", ([1, 1], [(0, 1)], ["3"])),
            ("edge_weights", ([1, 1], [], [1.0])),
            ("edges", ([1, 1], [[0, 1], [1]], [1.0, 1.0])),
        ],
        ids=["string-node-weights", "bool-node-weights", "string-edge-weights",
             "weights-without-edges", "ragged-edges"],
    )
    def test_bad_input_array_names_its_field(self, field, args):
        with pytest.raises(GraphError, match=f"^{field} ") as info:
            WeightedGraph(*args)
        assert info.value.field == field

    def test_arrays_read_only(self):
        g = make_triangle()
        with pytest.raises(ValueError):
            g.node_weights[0] = 99
        with pytest.raises(ValueError):
            g.edges[0, 0] = 99

    def test_callers_writeable_array_is_copied_not_frozen(self):
        w = np.array([1.0, 2.0, 3.0])
        g = TaskInteractionGraph(w, [[0, 1]], [1.0])
        assert w.flags.writeable
        assert not g.node_weights.flags.writeable
        w[0] = 99.0  # the caller's own array stays theirs
        assert g.node_weights[0] == 1.0

    def test_read_only_input_is_adopted_without_a_copy(self):
        # The shared plane hands the constructor read-only views.
        w = np.array([1.0, 2.0, 3.0])
        w.setflags(write=False)
        g = TaskInteractionGraph(w, [[0, 1]], [1.0])
        assert np.shares_memory(g.node_weights, w)


class TestDerived:
    def test_adjacency_symmetric(self):
        adj = make_triangle().adjacency_matrix()
        np.testing.assert_array_equal(adj, adj.T)
        assert adj[0, 1] == 10 and adj[1, 2] == 20 and adj[0, 2] == 30

    def test_adjacency_cached(self):
        g = make_triangle()
        assert g.adjacency_matrix() is g.adjacency_matrix()

    def test_weighted_degrees(self):
        g = make_triangle()
        np.testing.assert_allclose(g.weighted_degrees(), [40, 30, 50])

    def test_neighbors(self):
        g = make_triangle()
        np.testing.assert_array_equal(g.neighbors(1), [0, 2])

    def test_neighbors_out_of_range(self):
        with pytest.raises(ValidationError):
            make_triangle().neighbors(5)

    def test_has_edge(self):
        g = WeightedGraph([1, 1, 1], [(0, 1)], [1])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(1, 2) and not g.has_edge(0, 0)

    def test_edge_weight_missing(self):
        with pytest.raises(GraphError, match="no edge"):
            WeightedGraph([1, 1, 1], [(0, 1)], [1]).edge_weight(1, 2)


class TestConnectivity:
    def test_connected_triangle(self):
        assert make_triangle().is_connected()

    def test_disconnected(self):
        g = WeightedGraph([1, 1, 1, 1], [(0, 1), (2, 3)], [1, 1])
        assert not g.is_connected()
        comps = g.connected_components()
        assert len(comps) == 2
        np.testing.assert_array_equal(comps[0], [0, 1])
        np.testing.assert_array_equal(comps[1], [2, 3])

    def test_isolated_vertices(self):
        g = WeightedGraph([1, 1, 1])
        assert len(g.connected_components()) == 3

    def test_path_graph_components(self):
        n = 10
        g = WeightedGraph(np.ones(n), [(i, i + 1) for i in range(n - 1)], np.ones(n - 1))
        assert g.is_connected()
        assert len(g.connected_components()) == 1


class TestValueSemantics:
    def test_equality(self):
        assert make_triangle() == make_triangle()

    def test_inequality_weights(self):
        g2 = WeightedGraph([1.0, 2.0, 99.0], [(0, 1), (1, 2), (0, 2)], [10, 20, 30])
        assert make_triangle() != g2

    def test_hash_consistent(self):
        assert hash(make_triangle()) == hash(make_triangle())

    def test_eq_other_type(self):
        assert make_triangle() != "not a graph"

    def test_repr(self):
        assert "n_nodes=3" in repr(make_triangle())
        g = WeightedGraph([1.0], name="g1")
        assert "g1" in repr(g)


class TestFromAdjacency:
    def test_round_trip(self):
        g = make_triangle()
        g2 = WeightedGraph.from_adjacency(g.node_weights, g.adjacency_matrix())
        assert g == g2

    def test_asymmetric_rejected(self):
        adj = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(GraphError, match="symmetric"):
            WeightedGraph.from_adjacency([1, 1], adj)

    def test_wrong_shape_rejected(self):
        with pytest.raises(GraphError):
            WeightedGraph.from_adjacency([1, 1], np.zeros((3, 3)))


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_adjacency_matches_edge_list(n, p, seed):
    """Random graphs: adjacency matrix and edge list views always agree."""
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p
    edges = np.stack([iu[keep], iv[keep]], axis=1)
    weights = rng.uniform(1, 10, size=int(keep.sum()))
    g = WeightedGraph(np.ones(n), edges, weights)
    adj = g.adjacency_matrix()
    assert (adj > 0).sum() == 2 * g.n_edges
    for (u, v), w in zip(g.edges, g.edge_weights):
        assert adj[u, v] == w == adj[v, u]
    np.testing.assert_allclose(g.weighted_degrees(), adj.sum(axis=1))
