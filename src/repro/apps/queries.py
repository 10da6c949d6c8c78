"""Subgraph querying (paper §2.2, Appendix A Listing 5, Figures 14-15).

Lists all subgraphs isomorphic to a user-defined query pattern, through a
pattern-induced fractoid: ``graph.pfractoid(q).expand(q.n_vertices)``.

``QUERY_PATTERNS`` provides the q1-q8 benchmark queries.  The paper reuses
the SEED query set (Figure 14, shown only as an image); we reconstruct
them from the properties the text states: q1, q4 and q5 are cliques; q3 is
a sub-structure of q7 (SEED answers q7 by joining q3 matches); q2, q6 and
q8 are sparse/asymmetric shapes that are "harder to enumerate", where
extension beats joining.  See EXPERIMENTS.md for the exact shapes used.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.context import FractalGraph
from ..core.fractoid import Fractoid
from ..pattern.pattern import Pattern
from ..runtime.driver import EngineSpec

__all__ = [
    "query_fractoid",
    "query_subgraphs",
    "count_query_matches",
    "QUERY_PATTERNS",
]


def _triangle() -> Pattern:
    return Pattern.clique(3)


def _square() -> Pattern:
    return Pattern.from_edge_list([(0, 1), (1, 2), (2, 3), (3, 0)])


def _chordal_square() -> Pattern:
    # Diamond: 4-cycle plus one chord (K4 minus an edge).
    return Pattern.from_edge_list([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])


def _four_clique() -> Pattern:
    return Pattern.clique(4)


def _five_clique() -> Pattern:
    return Pattern.clique(5)


def _house() -> Pattern:
    # Square with a triangular roof.
    return Pattern.from_edge_list(
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)]
    )


def _double_diamond() -> Pattern:
    # Two chordal squares sharing their chord edge (0, 1): SEED evaluates
    # this by joining two q3 match sets, which is why it wins on q7.
    return Pattern.from_edge_list(
        [
            (0, 1),
            (0, 2), (1, 2),
            (0, 3), (1, 3),
            (0, 4), (1, 4),
            (0, 5), (1, 5),
        ]
    )


def _five_cycle() -> Pattern:
    return Pattern.from_edge_list([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


QUERY_PATTERNS: Dict[str, Pattern] = {
    "q1": _triangle(),
    "q2": _square(),
    "q3": _chordal_square(),
    "q4": _four_clique(),
    "q5": _five_clique(),
    "q6": _house(),
    "q7": _double_diamond(),
    "q8": _five_cycle(),
}


def query_fractoid(
    fractal_graph: FractalGraph,
    pattern: Pattern,
    kernel: Optional[str] = None,
) -> Fractoid:
    """The Listing 5 workflow: extend to the pattern's vertex count.

    ``kernel`` names the candidate kernel for this query (``"legacy"``,
    ``"indexed"`` or ``"decomposed"``), exactly as on
    :meth:`FractalGraph.pfractoid`; ``None`` is the default kernel.
    """
    return fractal_graph.pfractoid(pattern, kernel=kernel).expand(
        pattern.n_vertices
    )


def query_subgraphs(
    fractal_graph: FractalGraph,
    pattern: Pattern,
    engine: Optional[EngineSpec] = None,
) -> List:
    """All distinct instances of ``pattern`` as subgraph snapshots."""
    return query_fractoid(fractal_graph, pattern).subgraphs(engine=engine)


def count_query_matches(
    fractal_graph: FractalGraph,
    pattern: Pattern,
    engine: Optional[EngineSpec] = None,
    kernel: Optional[str] = None,
) -> int:
    """Number of distinct instances of ``pattern``.

    Under the default kernel (``"decomposed"``) the count may be
    produced without enumerating instances at all: a cost-based chooser
    decides between indexed enumeration and a core–fringe
    inclusion–exclusion combine (:mod:`repro.pattern.decompose`); the
    count is identical either way.
    """
    return query_fractoid(fractal_graph, pattern, kernel=kernel).count(
        engine=engine
    )
