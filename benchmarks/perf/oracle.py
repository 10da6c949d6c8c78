"""Brute-force oracle for the benchmark's result check.

Standard library only, and nothing from ``repro``: graphs arrive as plain
``(vertex_labels, edges)`` with ``edges`` a list of ``(u, v, label)``.
Everything is exhaustive search over ``itertools`` products of a graph
small enough (tens of vertices) for that to take well under a second, so
the only thing it shares with the system under test is the definition of
the problem.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, permutations
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

Edge = Tuple[int, int, int]
Form = Tuple[Tuple[int, ...], Tuple[Edge, ...]]


def _edge_map(edges: Sequence[Edge]) -> Dict[Tuple[int, int], int]:
    table = {}
    for u, v, label in edges:
        table[(u, v)] = label
        table[(v, u)] = label
    return table


def _forms(vertices: Sequence[int], labels, edges: Sequence[Edge]):
    """Every relabeling of a small graph onto positions ``0..k-1``.

    Yields ``(form, position_of)`` for each permutation of ``vertices``.
    """
    k = len(vertices)
    for order in permutations(range(k)):
        position_of = dict(zip(vertices, order))
        form_labels = [0] * k
        for vertex, position in position_of.items():
            form_labels[position] = labels[vertex]
        form_edges = []
        for u, v, label in edges:
            a, b = position_of[u], position_of[v]
            form_edges.append((a, b, label) if a < b else (b, a, label))
        yield (tuple(form_labels), tuple(sorted(form_edges))), position_of


def canonical_form(labels: Sequence[int], edges: Sequence[Edge]) -> Form:
    """The smallest relabeling: equal forms <=> isomorphic labeled graphs."""
    vertices = list(range(len(labels)))
    return min(form for form, _ in _forms(vertices, labels, edges))


def _connected(vertices: Sequence[int], edges: Sequence[Edge]) -> bool:
    if not vertices:
        return False
    reached = {vertices[0]}
    grew = True
    while grew:
        grew = False
        for u, v, _ in edges:
            if (u in reached) != (v in reached):
                reached.update((u, v))
                grew = True
    return len(reached) == len(vertices)


def motif_census(labels: Sequence[int], edges: Sequence[Edge], k: int) -> Counter:
    """Canonical form -> number of connected induced k-vertex subgraphs."""
    table = _edge_map(edges)
    census: Counter = Counter()
    for subset in combinations(range(len(labels)), k):
        induced = [
            (u, v, table[(u, v)])
            for u, v in combinations(subset, 2)
            if (u, v) in table
        ]
        if not _connected(subset, induced):
            continue
        form = min(form for form, _ in _forms(subset, labels, induced))
        census[form] += 1
    return census


def pattern_instances(
    labels: Sequence[int],
    edges: Sequence[Edge],
    pattern_labels: Sequence[int],
    pattern_edges: Sequence[Edge],
) -> Set[FrozenSet[Tuple[int, int]]]:
    """Distinct subgraphs isomorphic to the pattern, as sets of edges.

    Tries every injective assignment of pattern vertices to graph
    vertices, abandoning a prefix as soon as a pattern edge between two
    assigned vertices is missing; automorphic assignments collapse
    because an instance is identified by its edge set.
    """
    table = _edge_map(edges)
    k = len(pattern_labels)
    # Pattern edges indexed by their later endpoint.
    back: List[List[Tuple[int, int]]] = [[] for _ in range(k)]
    for a, b, label in pattern_edges:
        lo, hi = (a, b) if a < b else (b, a)
        back[hi].append((lo, label))
    found: Set[FrozenSet[Tuple[int, int]]] = set()
    assigned: List[int] = []

    def extend(position: int) -> None:
        if position == k:
            found.add(
                frozenset(
                    tuple(sorted((assigned[a], assigned[b])))
                    for a, b, _ in pattern_edges
                )
            )
            return
        for vertex in range(len(labels)):
            if labels[vertex] != pattern_labels[position] or vertex in assigned:
                continue
            if all(
                table.get((assigned[earlier], vertex)) == label
                for earlier, label in back[position]
            ):
                assigned.append(vertex)
                extend(position + 1)
                assigned.pop()

    extend(0)
    return found


def frequent_subgraphs(
    labels: Sequence[int],
    edges: Sequence[Edge],
    min_support: int,
    max_edges: int,
) -> Dict[Form, int]:
    """Canonical form -> MNI support, for frequent patterns up to max_edges.

    For every connected edge subset, every isomorphism onto the canonical
    form contributes its vertices to that form's per-position domains, so
    positions in one automorphism orbit share a domain; the support is the
    smallest domain.  MNI support is anti-monotone, so mining level by
    level (as the system does) finds exactly the patterns that pass here.
    """
    domains: Dict[Form, List[Set[int]]] = {}
    for size in range(1, max_edges + 1):
        for subset in combinations(edges, size):
            vertices = sorted({x for u, v, _ in subset for x in (u, v)})
            if not _connected(vertices, subset):
                continue
            relabelings = list(_forms(vertices, labels, subset))
            best = min(form for form, _ in relabelings)
            slots = domains.setdefault(best, [set() for _ in vertices])
            for form, position_of in relabelings:
                if form == best:
                    for vertex, position in position_of.items():
                        slots[position].add(vertex)
    supports = {form: min(len(s) for s in slots) for form, slots in domains.items()}
    return {form: s for form, s in supports.items() if s >= min_support}
