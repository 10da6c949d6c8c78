"""Motif extraction & counting (paper §2.2, Appendix A Listing 1).

A motif is a connected *induced* subgraph pattern; motif counting reports
the frequency of every pattern on ``k`` vertices.  The Fractal program is
three lines: a vertex-induced fractoid, ``expand(k)``, and an aggregation
keyed by the subgraph's canonical pattern.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Dict, Optional

from ..core.context import FractalContext, FractalGraph
from ..core.fractoid import Fractoid
from ..graph.graph import GraphBuilder
from ..pattern.catalog import all_connected_patterns
from ..pattern.pattern import Pattern
from ..runtime.driver import EngineSpec

__all__ = [
    "motifs_fractoid",
    "motifs",
    "motif_counts_ignoring_labels",
    "motif_census_by_pattern",
]


def motifs_fractoid(fractal_graph: FractalGraph, k: int) -> Fractoid:
    """The Listing 1 workflow: count patterns of all k-vertex subgraphs."""
    if k < 1:
        raise ValueError("motifs require k >= 1")
    return (
        fractal_graph.vfractoid()
        .expand(k)
        .aggregate(
            "motifs",
            key_fn=lambda subgraph, computation: subgraph.pattern(),
            value_fn=lambda subgraph, computation: 1,
            reduce_fn=lambda a, b: a + b,
            update_fn=lambda count, subgraph, computation: count + 1,
        )
    )


def motifs(
    fractal_graph: FractalGraph,
    k: int,
    engine: Optional[EngineSpec] = None,
) -> Dict[Pattern, int]:
    """Count all k-vertex motifs; returns pattern -> frequency."""
    return motifs_fractoid(fractal_graph, k).aggregation("motifs", engine=engine)


def _spanning_copies(sub: Pattern, host: Pattern) -> int:
    """Spanning subgraphs of ``host`` isomorphic to ``sub`` (same k vertices).

    The Möbius coefficient relating non-induced to induced counts:
    every vertex set whose induced graph is ``host`` contributes exactly
    this many non-induced copies of ``sub``.
    """
    if sub.n_edges > host.n_edges:
        return 0
    if sub.n_edges == host.n_edges:
        return 1 if sub.canonical_code() == host.canonical_code() else 0
    k = host.n_vertices
    target = sub.canonical_code()
    host_edges = [(a, b) for a, b, _ in host.edges]
    copies = 0
    for subset in combinations(host_edges, sub.n_edges):
        candidate = Pattern([0] * k, [(a, b, 0) for a, b in subset])
        if not candidate.is_connected():
            continue
        if candidate.canonical_code() == target:
            copies += 1
    return copies


def motif_census_by_pattern(
    fractal_graph: FractalGraph,
    k: int,
    engine: Optional[EngineSpec] = None,
    kernel: Optional[str] = None,
    on_report: Optional[Callable] = None,
) -> Dict[Pattern, int]:
    """Induced k-motif census via per-pattern *counting* queries.

    Instead of enumerating every connected k-subgraph and classifying it
    (what :func:`motifs` does), this runs one pattern-induced counting
    query per connected k-vertex pattern — each query benefits from
    minimal symmetry-breaking restriction sets, orbit-multiplicity bulk
    counting, and (under the default ``kernel``) the core–fringe
    inclusion–exclusion kernel.  The per-pattern counts are *non-induced*
    copy counts; a Möbius transform over the pattern lattice (solved in
    descending edge-count order) recovers the induced census, which
    matches :func:`motifs` after label erasure.

    ``on_report(pattern, report)`` is invoked after each query for
    metric scraping.  Patterns with zero induced count are dropped, like
    an aggregation-based census would.
    """
    if k < 1:
        raise ValueError("motifs require k >= 1")
    graph = fractal_graph.graph
    # The census is over unlabeled topologies; erase labels when needed.
    if any(label != 0 for label in graph.vertex_labels()) or any(
        graph.edge_label(e) != 0 for e in graph.edges()
    ):
        builder = GraphBuilder(f"{graph.name}-unlabeled")
        builder.add_vertices(graph.n_vertices, 0)
        for u, v, _ in graph.iter_edge_tuples():
            builder.add_edge(u, v, 0)
        graph = builder.build()

    source_context = fractal_graph.context
    context = FractalContext(
        engine=engine if engine is not None else source_context.engine,
        cost_model=source_context.cost_model,
    )
    patterns = all_connected_patterns(k)
    noninduced: Dict[Pattern, int] = {}
    for pattern in patterns:
        report = (
            context.from_graph(graph)
            .pfractoid(pattern, kernel=kernel)
            .expand(k)
            .execute(collect="count")
        )
        noninduced[pattern] = report.result_count
        if on_report is not None:
            on_report(pattern, report)

    # Möbius transform: noninduced(H) = sum over hosts H' (with at least
    # as many edges) of spanning_copies(H, H') * induced(H').  Solving in
    # descending edge-count order makes each equation triangular.
    by_density = sorted(patterns, key=lambda p: p.n_edges, reverse=True)
    induced: Dict[Pattern, int] = {}
    for pattern in by_density:
        count = noninduced[pattern]
        for host in by_density:
            if host.n_edges <= pattern.n_edges:
                continue
            coeff = _spanning_copies(pattern, host)
            if coeff:
                count -= coeff * induced[host]
        induced[pattern] = count
    return {
        pattern: count for pattern, count in induced.items() if count
    }


def motif_counts_ignoring_labels(counts: Dict[Pattern, int]) -> Dict[Pattern, int]:
    """Collapse a labeled motif census to unlabeled topology classes.

    The paper's motif kernel "usually ignores the labels in G"; this helper
    re-keys a census by the label-erased pattern.
    """
    collapsed: Dict[Pattern, int] = {}
    for pattern, count in counts.items():
        unlabeled = Pattern(
            [0] * pattern.n_vertices,
            [(a, b, 0) for a, b, _ in pattern.edges],
        )
        collapsed[unlabeled] = collapsed.get(unlabeled, 0) + count
    return collapsed
