"""The indexed-family matching order: a label-statistics greedy, twins last.

:func:`plan_matching_order` is the order ``PatternInducedStrategy``
matches in under the ``"indexed"`` and ``"decomposed"`` kernels, and the
order the decomposition chooser prices enumeration on
(:func:`repro.pattern.decompose.estimate_enumeration_units`).
:func:`cost_order` is the greedy both use: on the whole pattern, on the
core left when the twins are set aside, and on a decomposition's cover.
Nothing here imports the enumerator, so the decomposition module can
call it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..graph.graph import Graph
from ..pattern.pattern import Pattern

__all__ = ["cost_order", "is_connected_subset", "plan_matching_order", "twin_tail"]


def is_connected_subset(pattern: Pattern, subset: Sequence[int]) -> bool:
    """Whether the pattern induced on ``subset`` is connected (and non-empty)."""
    members = set(subset)
    if not members:
        return False
    start = next(iter(members))
    stack = [start]
    seen = {start}
    while stack:
        v = stack.pop()
        for u, _ in pattern.neighborhood(v):
            if u in members and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(members)


def cost_order(pattern: Pattern, graph: Graph, subset: Sequence[int]) -> List[int]:
    """A connected matching order of ``subset`` by estimated candidate-set size.

    CFL-Match-style: the estimate for matching pattern vertex ``p`` after
    the already-ordered set is::

        |{v : label(v) = label(p)}| * prod over back edges (q, le) of
            sel(label(q), le, label(p))

    where ``sel(la, le, lb)`` is the fraction of (la, lb) vertex pairs
    joined by an ``le`` edge, read off :meth:`Graph.label_stats` under an
    independence assumption, and back edges are counted inside
    ``subset`` only.  More early back edges multiply in more
    selectivities, so constrained vertices naturally sort first; ties
    break on back-edge count (more first) then vertex id.  The start
    vertex is the one with the rarest label (highest pattern degree,
    then lowest id, on ties).  A disconnected ``subset`` gets the order
    of the component holding the start vertex.
    """
    members = sorted(set(subset))
    if not members:
        return []
    vertex_counts, pair_counts = graph.label_stats()
    labels = pattern.vertex_labels

    def root_size(p: int) -> int:
        return vertex_counts.get(labels[p], 0)

    start = min(members, key=lambda p: (root_size(p), -pattern.degree(p), p))
    order = [start]
    chosen = {start}
    while len(order) < len(members):
        best_vertex = -1
        best_rank: Optional[tuple] = None
        for p in members:
            if p in chosen:
                continue
            backs = [
                (q, elabel)
                for q, elabel in pattern.neighborhood(p)
                if q in chosen
            ]
            if not backs:
                continue
            estimate = float(root_size(p))
            for q, elabel in backs:
                denominator = vertex_counts.get(labels[q], 0) * root_size(p)
                if denominator:
                    estimate *= (
                        pair_counts.get((labels[q], elabel, labels[p]), 0)
                        / denominator
                    )
                else:
                    estimate = 0.0
            rank = (estimate, -len(backs), p)
            if best_rank is None or rank < best_rank:
                best_rank = rank
                best_vertex = p
        if best_vertex < 0:
            break
        order.append(best_vertex)
        chosen.add(best_vertex)
    return order


def twin_tail(pattern: Pattern) -> List[int]:
    """The twin class :func:`plan_matching_order` matches last, ascending.

    *Twins* are two or more pattern vertices with the same vertex label
    and the same neighbourhood, edge labels included — so never adjacent
    to each other, and mapped onto one another by automorphisms of the
    pattern.  The class taken is the largest whose removal leaves a
    non-empty connected core (equal sizes: the one with the lowest
    vertex id); ``[]`` when none qualifies.
    """
    n = pattern.n_vertices
    classes: Dict[Tuple[object, frozenset], List[int]] = {}
    for p in range(n):
        key = (pattern.vertex_labels[p], frozenset(pattern.neighborhood(p)))
        classes.setdefault(key, []).append(p)
    best: List[int] = []
    # Classes come in order of their lowest vertex id: a later one must
    # be strictly larger to win.
    for members in classes.values():
        if len(members) >= max(2, len(best) + 1) and is_connected_subset(
            pattern, [p for p in range(n) if p not in members]
        ):
            best = members
    return best


def plan_matching_order(pattern: Pattern, graph: Graph) -> List[int]:
    """The indexed-family matching order: the core by :func:`cost_order`,
    then the twins of :func:`twin_tail`.

    Twins placed last are interchangeable tail positions: the same label,
    the same back edges into the core and no edge among them, so the
    count leaf collapses them into ``C(|C|, tau) * arrangements`` over one
    candidate set (``PatternInducedStrategy.orbit_tail``) and the listing
    starts each twin's candidates from the previous twin's
    (:func:`~repro.core.intersect.base_positions`).  Without twins the
    order is :func:`cost_order` over the whole pattern.  Deterministic
    for a given pattern and graph label statistics.
    """
    twins = twin_tail(pattern)
    core = [p for p in range(pattern.n_vertices) if p not in twins]
    return cost_order(pattern, graph, core) + twins
