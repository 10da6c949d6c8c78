"""Graph serialization.

Two on-disk formats are supported:

* **Arabesque adjacency-list format** — the format Fractal itself consumes
  (one line per vertex: ``<vertex id> <vertex label> [<neighbor id> ...]``).
  Edge labels default to 0 since the format does not carry them.
* **Labeled edge-list format** — one line per edge:
  ``<u> <v> <edge label>``, preceded by ``v <id> <label>`` vertex lines.
  This format round-trips vertex and edge labels.

Keyword annotations round-trip through a side-car ``.keywords`` file written
by :func:`save_keywords` (one line per annotated element).

A malformed line — a missing or extra field, a token that is not an
integer, an edge to a missing vertex, a self-loop, a repeated labeled
edge — raises :class:`~repro.graph.graph.GraphError` (a ``ValueError``)
whose message starts with ``path:lineno``.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

from .graph import Graph, GraphBuilder, GraphError

__all__ = [
    "load_adjacency_list",
    "save_adjacency_list",
    "load_edge_list",
    "save_edge_list",
    "load_keywords",
    "save_keywords",
]


def load_adjacency_list(path: str, name: str = "") -> Graph:
    """Load a graph in Arabesque/Fractal adjacency-list format.

    Each non-empty, non-comment line reads
    ``<vertex id> <vertex label> <neighbor> <neighbor> ...``.
    Vertex ids must be ``0..n-1`` in order.  Each undirected edge may appear
    in one or both directions; duplicates are merged.
    """
    builder = GraphBuilder(name=name or os.path.basename(path))
    # (vertex, neighbor, line number): edges are added once every vertex is.
    pending_edges: List[Tuple[int, int, int]] = []
    expected = 0
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                values = [int(token) for token in line.split()]
                if len(values) < 2:
                    raise GraphError("expected '<id> <label> ...'")
                vid, label = values[0], values[1]
                if vid != expected:
                    raise GraphError(
                        f"vertex ids must be sequential "
                        f"(saw {vid}, expected {expected})"
                    )
            except ValueError as exc:
                raise GraphError(f"{path}:{lineno}: {exc}") from None
            expected += 1
            builder.add_vertex(label=label)
            for neighbor in values[2:]:
                pending_edges.append((vid, neighbor, lineno))
    for u, v, lineno in pending_edges:
        try:
            if not builder.has_edge(u, v):
                builder.add_edge(u, v)
        except GraphError as exc:
            raise GraphError(f"{path}:{lineno}: {exc}") from None
    return builder.build()


def save_adjacency_list(graph: Graph, path: str) -> None:
    """Write ``graph`` in Arabesque/Fractal adjacency-list format."""
    with open(path, "w") as handle:
        for v in graph.vertices():
            neighbors = " ".join(str(u) for u in graph.neighbors(v))
            line = f"{v} {graph.vertex_label(v)}"
            if neighbors:
                line += " " + neighbors
            handle.write(line + "\n")


def load_edge_list(path: str, name: str = "") -> Graph:
    """Load a graph in labeled edge-list format.

    Lines are either ``v <id> <label>`` (vertices, sequential ids) or
    ``e <u> <v> <label>`` (edges).  Bare ``<u> <v>`` lines are accepted as
    unlabeled edges over implicitly created unlabeled vertices.
    """
    builder = GraphBuilder(name=name or os.path.basename(path))
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                if parts[0] == "v":
                    if len(parts) != 3:
                        raise GraphError("expected 'v <id> <label>'")
                    vid, label = int(parts[1]), int(parts[2])
                    if vid != builder.n_vertices:
                        raise GraphError(f"non-sequential vertex id {vid}")
                    builder.add_vertex(label=label)
                elif parts[0] == "e":
                    if not 3 <= len(parts) <= 4:
                        raise GraphError("expected 'e <u> <v> [<label>]'")
                    u, v = int(parts[1]), int(parts[2])
                    label = int(parts[3]) if len(parts) > 3 else 0
                    builder.add_edge(u, v, label=label)
                else:
                    if len(parts) != 2:
                        raise GraphError("expected 'v', 'e' or '<u> <v>' line")
                    u, v = int(parts[0]), int(parts[1])
                    while builder.n_vertices <= max(u, v):
                        builder.add_vertex()
                    if not builder.has_edge(u, v):
                        builder.add_edge(u, v)
            except ValueError as exc:
                raise GraphError(f"{path}:{lineno}: {exc}") from None
    return builder.build()


def save_edge_list(graph: Graph, path: str) -> None:
    """Write ``graph`` in labeled edge-list format (round-trips labels)."""
    with open(path, "w") as handle:
        for v in graph.vertices():
            handle.write(f"v {v} {graph.vertex_label(v)}\n")
        for e in graph.edges():
            u, v = graph.edge(e)
            handle.write(f"e {u} {v} {graph.edge_label(e)}\n")


def save_keywords(graph: Graph, path: str) -> None:
    """Write keyword annotations to a side-car file.

    Lines read ``v <id> <word> <word> ...`` or ``e <id> <word> ...``;
    unannotated elements are omitted.
    """
    with open(path, "w") as handle:
        for v in graph.vertices():
            words = sorted(graph.vertex_keywords(v))
            if words:
                handle.write("v " + str(v) + " " + " ".join(words) + "\n")
        for e in graph.edges():
            words = sorted(graph.edge_keywords(e))
            if words:
                handle.write("e " + str(e) + " " + " ".join(words) + "\n")


def load_keywords(graph: Graph, path: str) -> Graph:
    """Return a copy of ``graph`` with keyword annotations from ``path``."""
    vertex_words: Dict[int, List[str]] = {}
    edge_words: Dict[int, List[str]] = {}
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "v":
                vertex_words[int(parts[1])] = parts[2:]
            elif parts[0] == "e":
                edge_words[int(parts[1])] = parts[2:]
            else:
                raise GraphError(f"{path}:{lineno}: expected 'v' or 'e' line")
    builder = GraphBuilder(name=graph.name)
    for v in graph.vertices():
        builder.add_vertex(
            label=graph.vertex_label(v), keywords=vertex_words.get(v, ())
        )
    for e in graph.edges():
        u, v = graph.edge(e)
        builder.add_edge(
            u, v, label=graph.edge_label(e), keywords=edge_words.get(e, ())
        )
    return builder.build()
