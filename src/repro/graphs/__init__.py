"""Graph substrate: TIGs, resource graphs, synthetic generators, JSON I/O."""

from repro.graphs.base import WeightedGraph, canonicalize_edges
from repro.graphs.generators import (
    PAPER_RESOURCE_EDGE_WEIGHTS,
    PAPER_RESOURCE_NODE_WEIGHTS,
    PAPER_SIZES,
    PAPER_TIG_EDGE_WEIGHTS,
    PAPER_TIG_NODE_WEIGHTS,
    GraphPair,
    generate_paper_pair,
    generate_resource_graph,
    generate_tig,
)
from repro.graphs.io import graph_from_dict, graph_to_dict, load_graph, save_graph
from repro.graphs.random_graphs import (
    ensure_connected_edges,
    gnp_edges,
    random_geometric_edges,
    random_spanning_tree_edges,
    two_block_edges,
)
from repro.graphs.resource_graph import ResourceGraph, shortest_path_closure
from repro.graphs.task_graph import TaskInteractionGraph

__all__ = [
    "WeightedGraph",
    "canonicalize_edges",
    "TaskInteractionGraph",
    "ResourceGraph",
    "shortest_path_closure",
    "GraphPair",
    "generate_tig",
    "generate_resource_graph",
    "generate_paper_pair",
    "PAPER_SIZES",
    "PAPER_TIG_NODE_WEIGHTS",
    "PAPER_TIG_EDGE_WEIGHTS",
    "PAPER_RESOURCE_NODE_WEIGHTS",
    "PAPER_RESOURCE_EDGE_WEIGHTS",
    "gnp_edges",
    "two_block_edges",
    "random_geometric_edges",
    "random_spanning_tree_edges",
    "ensure_connected_edges",
    "graph_to_dict",
    "graph_from_dict",
    "save_graph",
    "load_graph",
]
