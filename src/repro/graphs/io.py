"""Graph persistence: versioned JSON round-trips.

The JSON schema is intentionally simple and versioned::

    {
      "schema": "repro.graph/1",
      "kind": "tig" | "resource" | "generic",
      "name": "...",
      "node_weights": [...],
      "edges": [[u, v], ...],
      "edge_weights": [...]
    }
"""

from __future__ import annotations

from pathlib import Path
from typing import Type

from repro.exceptions import SerializationError
from repro.graphs.base import WeightedGraph
from repro.graphs.resource_graph import ResourceGraph
from repro.graphs.task_graph import TaskInteractionGraph
from repro.utils.serialization import dump_json, load_json

__all__ = ["graph_to_dict", "graph_from_dict", "save_graph", "load_graph"]

_SCHEMA = "repro.graph/1"

_KIND_TO_CLS: dict[str, Type[WeightedGraph]] = {
    "tig": TaskInteractionGraph,
    "resource": ResourceGraph,
    "generic": WeightedGraph,
}


def _kind_of(graph: WeightedGraph) -> str:
    if isinstance(graph, TaskInteractionGraph):
        return "tig"
    if isinstance(graph, ResourceGraph):
        return "resource"
    return "generic"


def graph_to_dict(graph: WeightedGraph) -> dict:
    """Serialize a graph to the versioned JSON-ready dict."""
    return {
        "schema": _SCHEMA,
        "kind": _kind_of(graph),
        "name": graph.name,
        "node_weights": graph.node_weights.tolist(),
        "edges": graph.edges.tolist(),
        "edge_weights": graph.edge_weights.tolist(),
    }


def graph_from_dict(payload: dict) -> WeightedGraph:
    """Rebuild a graph from :func:`graph_to_dict` output (schema-checked)."""
    if not isinstance(payload, dict):
        raise SerializationError(f"graph payload must be a dict, got {type(payload).__name__}")
    schema = payload.get("schema")
    if schema != _SCHEMA:
        raise SerializationError(f"unsupported graph schema {schema!r}, expected {_SCHEMA!r}")
    kind = payload.get("kind", "generic")
    cls = _KIND_TO_CLS.get(kind)
    if cls is None:
        raise SerializationError(f"unknown graph kind {kind!r}")
    try:
        return cls(
            payload["node_weights"],
            payload.get("edges", []),
            payload.get("edge_weights", []),
            name=payload.get("name", ""),
        )
    except KeyError as exc:
        raise SerializationError(f"graph payload missing field {exc}") from exc


def save_graph(graph: WeightedGraph, path: str | Path) -> Path:
    """Write a graph to ``path`` as JSON; returns the path."""
    return dump_json(graph_to_dict(graph), path)


def load_graph(path: str | Path) -> WeightedGraph:
    """Load a graph written by :func:`save_graph`."""
    return graph_from_dict(load_json(path))

