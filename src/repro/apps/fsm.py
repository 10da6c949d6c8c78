"""Frequent subgraph mining (paper §2.2, Appendix A Listing 3).

Edge-induced FSM with minimum image-based (MNI) support: bootstrap on
single edges, then iterate (aggregation filter on the previous round's
frequent patterns) -> (expand by one edge) -> (support aggregation) until
no new frequent pattern appears.  Each round adds an aggregation filter,
i.e. a synchronization point, so the from-scratch executor re-enumerates
the frequent prefix every round while reusing every computed aggregation —
the multi-step behavior the Figure 16 drilldown studies.

The optional *transparent graph reduction* (paper §4.3) drops edges whose
single-edge pattern is infrequent after the bootstrap round: by
anti-monotonicity no frequent subgraph can use them, so results are
unchanged while enumeration shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.aggregation import DomainSupport
from ..core.context import FractalGraph
from ..core.enumerator import EdgeInducedStrategy
from ..core.fractoid import Fractoid
from ..pattern.pattern import Pattern
from ..runtime.driver import EngineSpec, ExecutionReport

__all__ = ["FSMResult", "fsm"]


@dataclass
class FSMResult:
    """Outcome of an FSM run."""

    frequent: Dict[Pattern, DomainSupport]
    rounds: int
    reports: List[ExecutionReport] = field(default_factory=list)
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
    reduce_input: bool = False,
    engine: Optional[EngineSpec] = None,
) -> FSMResult:
    """Mine all frequent patterns with up to ``max_edges`` edges.

    Args:
        fractal_graph: the input fractal graph (labels matter).
        min_support: MNI support threshold α.
        max_edges: cap on pattern size (the paper caps exploration depth).
        exact: keep exact support values (True, the paper's setting) or
            cap MNI domains at the threshold (GRAMI-style memory bound).
        reduce_input: enable the transparent graph reduction between the
            bootstrap and the growth rounds (paper §4.3).
        engine: overrides the context's execution engine.

    Returns:
        :class:`FSMResult` with the frequent pattern -> support mapping.
    """
    if min_support < 1:
        raise ValueError("min_support must be >= 1")
    graph_view = fractal_graph
    reports: List[ExecutionReport] = []

    bootstrap = _support_aggregate(
        graph_view.efractoid().expand(1), min_support, exact
    )
    report = bootstrap.execute(collect=None, engine=engine)
    reports.append(report)
    frequent_new = bootstrap.aggregation("support", engine=engine)
    frequent: Dict[Pattern, DomainSupport] = dict(frequent_new)

    if reduce_input and frequent_new:
        graph_view = _reduce_to_frequent_edges(fractal_graph, frequent_new)
        # Rebuild the workflow on the reduced view, reusing the computed
        # bootstrap aggregation (same primitive uids -> cache hits).
        bootstrap = Fractoid(
            graph_view, EdgeInducedStrategy, bootstrap.primitives, "edge"
        )

    current = bootstrap
    rounds = 1
    while frequent_new and rounds < max_edges:
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

    return FSMResult(frequent=frequent, rounds=rounds, reports=reports)


def _reduce_to_frequent_edges(
    fractal_graph: FractalGraph, frequent_edges: Dict[Pattern, DomainSupport]
) -> FractalGraph:
    """Keep only edges whose single-edge pattern is frequent."""
    graph = fractal_graph.graph
    frequent_keys = set(frequent_edges)

    def edge_ok(eid: int, g) -> bool:
        u, v = g.edge(eid)
        single = Pattern(
            [g.vertex_label(u), g.vertex_label(v)], [(0, 1, g.edge_label(eid))]
        )
        return single in frequent_keys

    return fractal_graph.efilter(edge_ok)
