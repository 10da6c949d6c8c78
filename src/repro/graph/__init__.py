"""Graph substrate: data model, I/O, synthetic datasets, reduction views."""

from .graph import Graph, GraphBuilder, GraphError
from .shm import SharedGraphBuffers
from .io import (
    load_adjacency_list,
    load_edge_list,
    load_keywords,
    save_adjacency_list,
    save_edge_list,
    save_keywords,
)
from .generators import (
    assign_keywords,
    assign_labels,
    community_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    path_graph,
    powerlaw_graph,
    rmat_graph,
    star_graph,
    watts_strogatz_graph,
)
from .datasets import (
    dataset_registry,
    dataset_stats,
    mico_like,
    orkut_like,
    patents_like,
    wikidata_like,
    youtube_like,
)
from .views import ReducedGraph, keyword_reduction, reduce_graph

__all__ = [
    "Graph",
    "GraphBuilder",
    "GraphError",
    "SharedGraphBuffers",
    "load_adjacency_list",
    "load_edge_list",
    "load_keywords",
    "save_adjacency_list",
    "save_edge_list",
    "save_keywords",
    "assign_keywords",
    "assign_labels",
    "community_graph",
    "complete_graph",
    "cycle_graph",
    "erdos_renyi_graph",
    "path_graph",
    "powerlaw_graph",
    "rmat_graph",
    "star_graph",
    "watts_strogatz_graph",
    "dataset_registry",
    "dataset_stats",
    "mico_like",
    "orkut_like",
    "patents_like",
    "wikidata_like",
    "youtube_like",
    "ReducedGraph",
    "keyword_reduction",
    "reduce_graph",
]
