"""Tests for graph JSON I/O."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphError, SerializationError
from repro.graphs import (
    ResourceGraph,
    TaskInteractionGraph,
    WeightedGraph,
    generate_tig,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    save_graph,
)


class TestGraphJson:
    def test_round_trip_tig(self, tmp_path):
        tig = generate_tig(12, 5)
        path = save_graph(tig, tmp_path / "tig.json")
        loaded = load_graph(path)
        assert isinstance(loaded, TaskInteractionGraph)
        assert loaded == tig
        assert loaded.name == tig.name

    def test_round_trip_resource(self, tmp_path):
        from repro.graphs import generate_resource_graph

        rg = generate_resource_graph(8, 5)
        loaded = load_graph(save_graph(rg, tmp_path / "rg.json"))
        assert isinstance(loaded, ResourceGraph)
        assert loaded == rg

    def test_round_trip_generic(self):
        g = WeightedGraph([1, 2], [(0, 1)], [3.0], name="g")
        assert graph_from_dict(graph_to_dict(g)) == g

    def test_kind_discriminates(self):
        g = WeightedGraph([1.0])
        assert graph_to_dict(g)["kind"] == "generic"
        assert graph_to_dict(TaskInteractionGraph([1.0]))["kind"] == "tig"
        assert graph_to_dict(ResourceGraph([1.0]))["kind"] == "resource"

    def test_bad_schema(self):
        payload = graph_to_dict(WeightedGraph([1.0]))
        payload["schema"] = "other/9"
        with pytest.raises(SerializationError, match="schema"):
            graph_from_dict(payload)

    def test_bad_kind(self):
        payload = graph_to_dict(WeightedGraph([1.0]))
        payload["kind"] = "hypergraph"
        with pytest.raises(SerializationError, match="kind"):
            graph_from_dict(payload)

    def test_missing_field(self):
        with pytest.raises(SerializationError):
            graph_from_dict({"schema": "repro.graph/1", "kind": "generic"})

    def test_fractional_edges_refused_not_truncated(self):
        payload = graph_to_dict(WeightedGraph([1, 1, 1], [(0, 1)], [2.0]))
        payload["edges"] = [[0.5, 1.5]]
        with pytest.raises(GraphError, match="edges must hold integers"):
            graph_from_dict(payload)

    def test_non_dict(self):
        with pytest.raises(SerializationError):
            graph_from_dict([1, 2, 3])

