"""Frequent subgraph mining (paper §2.2, Appendix A Listing 3).

Edge-induced FSM with minimum image-based (MNI) support: bootstrap on
single edges, then iterate (aggregation filter on the previous round's
frequent patterns) -> (expand by one edge) -> (support aggregation) until
no new frequent pattern appears.  Each round adds an aggregation filter,
i.e. a synchronization point, so the from-scratch executor re-enumerates
the frequent prefix every round while reusing every computed aggregation —
the multi-step behavior the Figure 16 drilldown studies.

Because every round starts from scratch, every round can mine a smaller
graph: the *transparent graph reduction* (paper §4.3) is on by default
and runs between any two rounds.

* After the bootstrap round it drops the edges whose single-edge pattern
  is infrequent: by anti-monotonicity no frequent subgraph uses them.
* After growth round ``r`` (``exact=True``) it drops the vertices outside
  every MNI domain of round ``r``'s frequent patterns.  This is exact.
  Take an embedding of a frequent ``(r+1)``-edge pattern and one of its
  vertices ``v``.  Dropping a suitable edge (one on a cycle, or a leaf
  edge not ending in ``v`` — a tree with two or more edges has two
  leaves) leaves a connected ``r``-edge sub-embedding through ``v``.  Its
  pattern is frequent by anti-monotonicity, and so is the pattern of
  every prefix of its canonical edge order, so round ``r`` enumerated it
  past every aggregation filter — on a view that, by the same argument
  one round earlier, still held all of it — and put ``v`` in one of that
  pattern's domains.  Embeddings of frequent patterns therefore survive
  whole, with their supports; infrequent patterns can only lose
  embeddings, and stay infrequent.
* With ``exact=False`` the domains are capped at ``min_support``
  witnesses and are *not* the set of images, so capped mode keeps the
  edge reduction only.

A reduced view renumbers its vertices, so the vertex ids inside a
:class:`~repro.core.aggregation.DomainSupport` are local to the view its
round ran on; ``support`` and ``domain_sizes()`` are the public, exact
quantities.  ``reduce_input=False`` mines the input as given and exists
as the reference arm for ablations and differential tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..core.aggregation import DomainSupport
from ..core.context import FractalGraph
from ..core.enumerator import EdgeInducedStrategy
from ..core.fractoid import Fractoid
from ..pattern.pattern import Pattern
from ..runtime.driver import EngineSpec, ExecutionReport

__all__ = ["FSMResult", "GraphReduction", "fsm"]


class GraphReduction(NamedTuple):
    """What the reduction after round ``round`` left of the graph it mined."""

    round: int
    vertices: Tuple[int, int]  # (before, after)
    edges: Tuple[int, int]  # (before, after)

    def __str__(self) -> str:
        return (
            f"after round {self.round}: "
            f"vertices {self.vertices[0]} -> {self.vertices[1]}, "
            f"edges {self.edges[0]} -> {self.edges[1]}"
        )


@dataclass
class FSMResult:
    """Outcome of an FSM run.

    ``reductions`` has one record per graph reduction performed, in round
    order — an empty list when there was no round left to reduce for —
    and is ``None`` when the run was asked not to reduce
    (``reduce_input=False``).
    """

    frequent: Dict[Pattern, DomainSupport]
    rounds: int
    reports: List[ExecutionReport] = field(default_factory=list)
    reductions: Optional[List[GraphReduction]] = None
    _patterns: Optional[List[Pattern]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def patterns(self) -> List[Pattern]:
        """Frequent patterns sorted by (edge count, canonical code).

        Computed lazily on first access and cached — ``frequent`` is
        immutable once the result is built, and callers index into this
        list repeatedly (report tables, figure harnesses).
        """
        if self._patterns is None:
            self._patterns = sorted(
                self.frequent, key=lambda p: (p.n_edges, p)
            )
        return self._patterns

    def support_of(self, pattern: Pattern) -> int:
        """MNI support of a frequent pattern."""
        return self.frequent[pattern].support

    def total_simulated_seconds(self) -> float:
        """Simulated runtime accumulated over all rounds."""
        return sum(report.total_seconds for report in self.reports)


def _support_aggregate(fractoid: Fractoid, min_support: int, exact: bool) -> Fractoid:
    """Attach the pattern -> DomainSupport aggregation of Listing 3."""

    def key_fn(subgraph, computation):
        return subgraph.pattern()

    def value_fn(subgraph, computation):
        pattern, positions = subgraph.pattern_with_positions()
        # MNI domains are shared across automorphic positions: a vertex
        # occupying one position of an orbit occupies all of them under
        # re-matching through automorphisms.
        orbit_of = pattern.canonical_position_orbits()
        n_slots = max(orbit_of) + 1 if orbit_of else 0
        support = DomainSupport(min_support, n_positions=n_slots, exact=exact)
        support.add_embedding(
            subgraph.vertices, [orbit_of[p] for p in positions]
        )
        return support

    def update_fn(support, subgraph, computation):
        # Map-side combining: fold the embedding into the existing
        # DomainSupport directly instead of allocating a one-embedding
        # support and reducing it away.  Equivalent to
        # ``reduce_fn(support, value_fn(...))`` — aggregate() unions the
        # fresh support's domains, which is exactly add_embedding.
        pattern, positions = subgraph.pattern_with_positions()
        orbit_of = pattern.canonical_position_orbits()
        support.add_embedding(
            subgraph.vertices, [orbit_of[p] for p in positions]
        )
        return support

    return fractoid.aggregate(
        "support",
        key_fn=key_fn,
        value_fn=value_fn,
        reduce_fn=lambda a, b: a.aggregate(b),
        agg_filter=lambda pattern, support: support.has_enough_support(),
        update_fn=update_fn,
        # MNI support is anti-monotone in the pattern but monotone in the
        # contributions: once a key's reduction is complete, more of the
        # same run cannot arrive, and has_enough_support() only ever flips
        # False -> True as domains grow — safe to apply during the
        # driver's streaming merge.
        agg_filter_monotone=True,
    )


def fsm(
    fractal_graph: FractalGraph,
    min_support: int,
    max_edges: int = 3,
    exact: bool = True,
    reduce_input: bool = True,
    engine: Optional[EngineSpec] = None,
) -> FSMResult:
    """Mine all frequent patterns with up to ``max_edges`` edges.

    Args:
        fractal_graph: the input fractal graph (labels matter).
        min_support: MNI support threshold α.
        max_edges: cap on pattern size (the paper caps exploration depth).
        exact: keep exact support values (True, the paper's setting) or
            cap MNI domains at the threshold (GRAMI-style memory bound).
        reduce_input: the transparent graph reduction (paper §4.3), on by
            default: each round mines what the round before left of the
            graph — infrequent edges go after the bootstrap, vertices
            outside every frequent pattern's MNI domains after a growth
            round (``exact=True`` only; see the module docstring).
            Frequent patterns, supports and ``rounds`` do not depend on
            it; ``False`` mines the input as given in every round and is
            the reference arm of the ablation.
        engine: overrides the context's execution engine.

    Returns:
        :class:`FSMResult` with the frequent pattern -> support mapping.
        Vertex ids inside a returned :class:`DomainSupport` are local to
        the view its round ran on; ``support`` and ``domain_sizes()`` are
        the exact, view-independent quantities.
    """
    if min_support < 1:
        raise ValueError("min_support must be >= 1")
    graph_view = fractal_graph
    reports: List[ExecutionReport] = []
    reductions: Optional[List[GraphReduction]] = [] if reduce_input else None

    current = _support_aggregate(
        graph_view.efractoid().expand(1), min_support, exact
    )
    report = current.execute(collect=None, engine=engine)
    reports.append(report)
    frequent_new = current.aggregation("support", engine=engine)
    frequent: Dict[Pattern, DomainSupport] = dict(frequent_new)

    rounds = 1
    while frequent_new and rounds < max_edges:
        # Capped domains (exact=False) hold min_support witnesses, not
        # every image, so they cannot say which vertices to keep.
        if reduce_input and (rounds == 1 or exact):
            if rounds == 1:
                reduced = _keep_frequent_edges(graph_view, frequent_new)
            else:
                reduced = _keep_domain_vertices(graph_view, frequent_new)
            before, after = graph_view.graph, reduced.graph
            reductions.append(
                GraphReduction(
                    rounds,
                    (before.n_vertices, after.n_vertices),
                    (before.n_edges, after.n_edges),
                )
            )
            graph_view = reduced
            # Rebuild the workflow on the reduced view, reusing the
            # computed aggregations (same primitive uids -> cache hits).
            current = Fractoid(
                graph_view, EdgeInducedStrategy, current.primitives, "edge"
            )
        current = _support_aggregate(
            current.filter_agg(
                "support",
                lambda subgraph, aggregation: subgraph.pattern() in aggregation,
            ).expand(1),
            min_support,
            exact,
        )
        report = current.execute(collect=None, engine=engine)
        reports.append(report)
        frequent_new = current.aggregation("support", engine=engine)
        frequent.update(frequent_new)
        rounds += 1

    return FSMResult(
        frequent=frequent, rounds=rounds, reports=reports, reductions=reductions
    )


def _keep_frequent_edges(
    view: FractalGraph, frequent_edges: Dict[Pattern, DomainSupport]
) -> FractalGraph:
    """Keep only edges whose single-edge pattern is frequent."""
    # One verdict per (vertex label, vertex label, edge label) triple,
    # read off the frequent patterns: no pattern is built per edge.
    frequent_triples = set()
    for pattern in frequent_edges:
        label_u, label_v = pattern.vertex_labels
        edge_label = pattern.edges[0][2]
        frequent_triples.add((label_u, label_v, edge_label))
        frequent_triples.add((label_v, label_u, edge_label))

    def edge_ok(eid: int, g) -> bool:
        u, v = g.edge(eid)
        return (
            g.vertex_label(u), g.vertex_label(v), g.edge_label(eid)
        ) in frequent_triples

    return view.efilter(edge_ok)


def _keep_domain_vertices(
    view: FractalGraph, round_frequent: Dict[Pattern, DomainSupport]
) -> FractalGraph:
    """Keep only vertices in some MNI domain of the round's frequent patterns.

    The domains must be exact and must come from a round that ran on
    ``view``: their vertex ids are ``view``'s.
    """
    keep = set().union(
        *(support.image_vertices() for support in round_frequent.values())
    )
    return view.vfilter(lambda v, g: v in keep)
