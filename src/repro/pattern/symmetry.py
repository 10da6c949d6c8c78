"""Symmetry breaking for pattern-induced enumeration (paper §3, [24]).

Pattern-induced extension must avoid enumerating the same subgraph once per
automorphism of the query pattern.  Fractal adopts the Grochow–Kellis
symmetry-breaking technique: from the automorphism group of the pattern,
derive a set of ordering conditions ``m(a) < m(b)`` over matched graph
vertices such that exactly one member of each automorphism class of
embeddings satisfies all conditions.

The classic construction repeatedly picks the vertex with the smallest id
inside a non-trivial orbit, constrains it to carry the minimum graph-vertex
id within its orbit (one ``a < b`` condition per other orbit member), then
restricts the group to the stabilizer of that vertex.  GraphZero
(PAPERS.md) observes that this heuristic can be far from optimal: *any*
vertex of the current orbit is a valid anchor (the exactly-one-representative
invariant holds for every anchor sequence), different anchor sequences
yield different partial orders, and the transitive reduction of the
resulting order can be much smaller than the emitted condition list (a
k-clique needs a chain of ``k - 1`` conditions, not ``k(k-1)/2``).

This module therefore implements a GraphZero-style optimizer:

1. :func:`_candidate_condition_sets` enumerates restriction-set
   constructions by searching over anchor choices (bounded, deterministic;
   the classic min-anchor sequence is always the first candidate);
2. each candidate is transitively reduced — reduction preserves the
   satisfied-assignment set exactly, because for totally ordered vertex
   ids ``a < b`` and ``b < c`` already imply ``a < c``;
3. candidates are scored against the matching order and (when available)
   the graph's label statistics: the score is the estimated number of
   partial embeddings the enumeration walks, so condition sets that bind
   *early positions* of the matching order win.  This is the hook through
   which ``plan_matching_order``'s cost-based order co-optimizes with the
   restriction set — the planner picks the order, then the order shapes
   which restriction set prunes best.

The same machinery works for an arbitrary permutation group
(:func:`restriction_conditions_for_group`): the decomposed counting
kernel uses it to symmetry-break its *core* walk with the projection of
the core-stabilizing automorphisms (see ``repro.pattern.decompose``).

Results are cached per pattern instance (``Pattern._symcache``), keyed by
matching order and graph identity — per-core strategies of the simulated
cluster share one pattern object, so the optimizer runs once per
(pattern, order, graph) instead of once per core per step; hits are
metered as ``Metrics.symmetry_cache_hits``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import factorial
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .isomorphism import automorphisms
from .pattern import Pattern

__all__ = [
    "SymmetryPlan",
    "symmetry_breaking_conditions",
    "heuristic_symmetry_breaking_conditions",
    "restriction_conditions_for_group",
    "minimal_restriction_set",
    "symmetry_plan",
    "conditions_by_position",
    "satisfies_conditions",
]

# Bounded anchor-choice search: candidate restriction sets considered per
# group.  The search is depth-first over sorted anchors, so the classic
# min-anchor construction is always candidate #0 — the optimizer can only
# match or beat the heuristic, never lose to it.
MAX_CANDIDATE_SETS = 48

# Exact survivor-fraction scoring enumerates prefix rank-orders, so it is
# capped at this prefix length (7! = 5040 orders); longer prefixes reuse
# the last exactly-scored fraction, which keeps scoring deterministic and
# cheap while patterns in the paper's workloads stay far below the cap.
EXACT_SCORE_MAX_PREFIX = 7

# Generic per-level fan-out used for scoring when no graph statistics are
# available (``graph=None``): each level is assumed this many times wider
# than the previous one.
DEFAULT_LEVEL_FANOUT = 4.0

@dataclass(frozen=True)
class SymmetryPlan:
    """One compiled restriction set, ready for incremental checking.

    ``conditions`` is the (transitively reduced) condition list;
    ``checks`` is :func:`conditions_by_position` of it under the matching
    order the plan was built for.  ``heuristic_size`` is the size of the
    classic min-anchor construction for the same group — kept for
    reporting (restriction-set size vs heuristic in ``kernel_info``).
    """

    conditions: Tuple[Tuple[int, int], ...]
    checks: Tuple[Tuple[Tuple[int, bool], ...], ...]
    heuristic_size: int
    group_order: int
    candidates_searched: int


# ----------------------------------------------------------------------
# Constructions over an explicit permutation group
# ----------------------------------------------------------------------


def _nontrivial_orbits(
    perms: Sequence[Tuple[int, ...]], n: int
) -> Dict[int, Tuple[int, ...]]:
    """Vertex -> sorted orbit, for vertices in non-trivial orbits."""
    orbits: Dict[int, Tuple[int, ...]] = {}
    for v in range(n):
        orbit = {perm[v] for perm in perms}
        if len(orbit) > 1:
            orbits[v] = tuple(sorted(orbit))
    return orbits


def _gk_conditions(
    perms: Sequence[Tuple[int, ...]],
    n: int,
    anchor_chooser,
) -> List[Tuple[int, int]]:
    """One Grochow–Kellis run with a pluggable anchor choice.

    At every step the *anchor* ``a`` is constrained below every other
    member of its current orbit and the group restricts to the stabilizer
    of ``a``.  The exactly-one-representative invariant holds for any
    anchor sequence: within one automorphism class of embeddings, the
    conditions of a step select exactly the coset of the stabilizer
    mapping the anchor onto the orbit position holding the smallest
    graph-vertex id, and induction over the (strictly shrinking) group
    finishes the argument.
    """
    group = list(perms)
    conditions: List[Tuple[int, int]] = []
    while len(group) > 1:
        orbits = _nontrivial_orbits(group, n)
        if not orbits:
            raise AssertionError("group is non-trivial but fixes every vertex")
        anchor = anchor_chooser(orbits)
        for other in orbits[anchor]:
            if other != anchor:
                conditions.append((anchor, other))
        group = [perm for perm in group if perm[anchor] == anchor]
    return conditions


def _heuristic_conditions_for_group(
    perms: Sequence[Tuple[int, ...]], n: int
) -> List[Tuple[int, int]]:
    """The classic construction: anchor = smallest vertex moved."""
    return _gk_conditions(perms, n, lambda orbits: min(orbits))


def heuristic_symmetry_breaking_conditions(
    pattern: Pattern,
) -> List[Tuple[int, int]]:
    """The pre-optimizer min-anchor construction (kept for comparison)."""
    return _heuristic_conditions_for_group(
        automorphisms(pattern), pattern.n_vertices
    )


def _candidate_condition_sets(
    perms: Sequence[Tuple[int, ...]],
    n: int,
    limit: int = MAX_CANDIDATE_SETS,
) -> List[List[Tuple[int, int]]]:
    """Bounded DFS over anchor sequences; deduplicated reduced sets.

    Anchors are tried in sorted order, so the first completed path is the
    classic min-anchor sequence; the cap truncates deterministically.
    """
    results: List[List[Tuple[int, int]]] = []
    seen: Set[frozenset] = set()

    def recurse(group, conditions) -> None:
        if len(results) >= limit:
            return
        if len(group) == 1:
            reduced = _transitive_reduction(conditions, n)
            key = frozenset(reduced)
            if key not in seen:
                seen.add(key)
                results.append(reduced)
            return
        orbits = _nontrivial_orbits(group, n)
        for anchor in sorted(orbits):
            if len(results) >= limit:
                return
            emitted = [
                (anchor, other) for other in orbits[anchor] if other != anchor
            ]
            stabilizer = [perm for perm in group if perm[anchor] == anchor]
            recurse(stabilizer, conditions + emitted)

    recurse(list(perms), [])
    return results


def _transitive_reduction(
    conditions: Sequence[Tuple[int, int]], n: int
) -> List[Tuple[int, int]]:
    """Unique transitive reduction of the (acyclic) condition DAG.

    Safe because the satisfied-assignment set of a condition list depends
    only on its transitive closure: vertex ids are totally ordered, so
    ``a < b`` and ``b < c`` imply ``a < c`` for free.
    """
    reach: List[Set[int]] = [set() for _ in range(n)]
    for a, b in conditions:
        reach[a].add(b)
    changed = True
    while changed:
        changed = False
        for a in range(n):
            extra: Set[int] = set()
            for b in reach[a]:
                extra |= reach[b]
            if not extra <= reach[a]:
                reach[a] |= extra
                changed = True
    reduced: List[Tuple[int, int]] = []
    for a in range(n):
        for b in sorted(reach[a]):
            if not any(b in reach[c] for c in reach[a] if c != b):
                reduced.append((a, b))
    return sorted(reduced)


# ----------------------------------------------------------------------
# Scoring: estimated partial embeddings under a condition set
# ----------------------------------------------------------------------


def _level_nodes(
    pattern: Optional[Pattern],
    order: Sequence[int],
    graph,
) -> List[float]:
    """Estimated partial embeddings entering each matching position.

    With a graph, this is the ``plan_matching_order`` independence model
    read off :meth:`Graph.label_stats` — the co-optimization hook: the
    planner's statistics decide which positions are wide, and conditions
    binding before wide positions score best.  Without a graph, a generic
    geometric fan-out stands in.
    """
    n = len(order)
    if pattern is None or graph is None:
        return [DEFAULT_LEVEL_FANOUT ** p for p in range(n)]
    vertex_counts, pair_counts = graph.label_stats()
    labels = pattern.vertex_labels
    nodes: List[float] = []
    width = 1.0
    placed: Set[int] = set()
    for p in order:
        if not placed:
            width = float(max(1, vertex_counts.get(labels[p], 0)))
        else:
            candidates = float(vertex_counts.get(labels[p], 0))
            for q, elabel in pattern.neighborhood(p):
                if q not in placed:
                    continue
                denominator = vertex_counts.get(labels[q], 0) * vertex_counts.get(
                    labels[p], 0
                )
                if denominator:
                    candidates *= (
                        pair_counts.get((labels[q], elabel, labels[p]), 0)
                        / denominator
                    )
                else:
                    candidates = 0.0
            width *= max(candidates, 1e-9)
        nodes.append(max(width, 1e-9))
        placed.add(p)
    return nodes


def _survivor_fraction(
    conditions: Sequence[Tuple[int, int]],
    prefix: Sequence[int],
) -> float:
    """Fraction of injective prefix assignments satisfying ``conditions``.

    Exact for short prefixes: the fraction of rank-orders of the prefix
    vertices consistent with the conditions whose endpoints both lie in
    the prefix.  (Conditions with an unmatched endpoint cannot prune yet.)
    """
    p = len(prefix)
    prefix_set = set(prefix)
    inside = [
        (a, b) for a, b in conditions if a in prefix_set and b in prefix_set
    ]
    if not inside:
        return 1.0
    index = {v: i for i, v in enumerate(prefix)}
    satisfied = 0
    for ranks in permutations(range(p)):
        if all(ranks[index[a]] < ranks[index[b]] for a, b in inside):
            satisfied += 1
    return satisfied / factorial(p)


def _score_conditions(
    conditions: Sequence[Tuple[int, int]],
    order: Sequence[int],
    level_nodes: Sequence[float],
) -> float:
    """Estimated enumerated tree nodes under ``conditions`` and ``order``.

    Lower is better: the sum over matching positions of the estimated
    un-broken level width times the exact fraction of partial assignments
    the conditions admit at that position.  Two complete restriction sets
    always agree on the *final* fraction (``1/|G|``); they differ in how
    early the pruning lands, which is exactly what this sums up.
    """
    total = 0.0
    fraction = 1.0
    for p in range(1, len(order) + 1):
        if p <= EXACT_SCORE_MAX_PREFIX:
            fraction = _survivor_fraction(conditions, order[:p])
        total += level_nodes[p - 1] * fraction
    return total


def _best_candidate(
    candidates: Sequence[List[Tuple[int, int]]],
    order: Sequence[int],
    level_nodes: Sequence[float],
) -> List[Tuple[int, int]]:
    """The best (score, size, lexicographic) candidate no larger than #0.

    Candidate #0 is the reduced min-anchor construction, so capping the
    size at its length keeps the promise that the optimizer never emits
    more conditions than the heuristic: a bigger set that binds an early
    position sooner would otherwise outscore it (two 4-cycles sharing an
    edge have a 3-condition star that beats their 2-condition heuristic).
    """
    cap = len(candidates[0])
    return min(
        (c for c in candidates if len(c) <= cap),
        key=lambda c: (_score_conditions(c, order, level_nodes), len(c), tuple(c)),
    )


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------


def restriction_conditions_for_group(
    perms: Sequence[Tuple[int, ...]],
    n: int,
    order: Optional[Sequence[int]] = None,
) -> List[Tuple[int, int]]:
    """Optimized restriction set for an explicit permutation group.

    Searches anchor sequences, transitively reduces each candidate and
    returns the one with the best (score, size, lexicographic) rank under
    ``order`` (identity by default).  Used by the decomposed counting
    kernel to break the projected core-automorphism group over core
    *positions*, where the matching order is the position sequence itself.
    """
    if len(perms) <= 1 or n == 0:
        return []
    if order is None:
        order = list(range(n))
    nodes = _level_nodes(None, order, None)
    candidates = _candidate_condition_sets(perms, n)
    return _best_candidate(candidates, order, nodes)


def minimal_restriction_set(
    pattern: Pattern,
    order: Optional[Sequence[int]] = None,
    graph=None,
) -> SymmetryPlan:
    """The optimizer: best-scored restriction set for ``pattern``.

    ``order`` is the matching order the conditions will be checked under
    (identity when omitted); ``graph`` supplies label statistics for the
    scoring walk.  Both only shape the *choice* among valid sets — every
    candidate admits exactly one representative per automorphism class,
    so a stale or approximate score can never produce wrong counts.
    """
    n = pattern.n_vertices
    auts = automorphisms(pattern)
    if order is None:
        order = list(range(n))
    heuristic = _heuristic_conditions_for_group(auts, n)
    if len(auts) <= 1:
        return SymmetryPlan(
            conditions=(),
            checks=tuple(() for _ in order),
            heuristic_size=0,
            group_order=1,
            candidates_searched=0,
        )
    nodes = _level_nodes(pattern, order, graph)
    candidates = _candidate_condition_sets(auts, n)
    best = _best_candidate(candidates, order, nodes)
    return SymmetryPlan(
        conditions=tuple(best),
        checks=_freeze_checks(conditions_by_position(best, order)),
        heuristic_size=len(heuristic),
        group_order=len(auts),
        candidates_searched=len(candidates),
    )


def _freeze_checks(
    checks: List[List[Tuple[int, bool]]]
) -> Tuple[Tuple[Tuple[int, bool], ...], ...]:
    return tuple(tuple(entries) for entries in checks)


def _graph_key(graph) -> Optional[tuple]:
    """Cache key component identifying a graph (for scoring inputs only).

    A collision can only re-serve a condition set scored against another
    graph's statistics — still a *valid* restriction set, just possibly
    sub-optimally placed — so the lightweight identity is safe.
    """
    if graph is None:
        return None
    return (id(graph), graph.n_vertices, graph.n_edges)


def symmetry_plan(
    pattern: Pattern,
    order: Sequence[int],
    graph=None,
    metrics=None,
) -> SymmetryPlan:
    """Cached :func:`minimal_restriction_set` per pattern instance.

    The cache lives on the pattern object (per-core strategies and
    repeated steps share it); hits are metered into
    ``metrics.symmetry_cache_hits`` when a metrics bundle is supplied.
    """
    cache = pattern._symcache
    if cache is None:
        cache = {}
        pattern._symcache = cache
    key = (tuple(order), _graph_key(graph))
    plan = cache.get(key)
    if plan is not None:
        if metrics is not None:
            metrics.symmetry_cache_hits += 1
        return plan
    plan = minimal_restriction_set(pattern, order, graph)
    cache[key] = plan
    return plan


def symmetry_breaking_conditions(
    pattern: Pattern,
    order: Optional[Sequence[int]] = None,
    graph=None,
) -> List[Tuple[int, int]]:
    """Ordering conditions ``(a, b)`` meaning ``match[a] < match[b]``.

    Guarantees that for every set of graph vertices forming an embedding
    of ``pattern``, exactly one assignment (per automorphism class)
    satisfies all returned conditions.  Since this PR the returned set is
    the GraphZero-style optimized one (see the module docstring); pass
    ``order``/``graph`` to score candidates against a concrete matching
    order and graph statistics.
    """
    return list(minimal_restriction_set(pattern, order, graph).conditions)


def conditions_by_position(
    conditions: Sequence[Tuple[int, int]], order: Sequence[int]
) -> List[List[Tuple[int, bool]]]:
    """Reindex conditions by matching-order position for incremental checks.

    Args:
        conditions: ``(a, b)`` pairs over pattern vertex ids.
        order: the matching order (position -> pattern vertex).

    Returns:
        ``checks[pos]``: list of ``(earlier_pos, must_be_greater)`` entries;
        when the vertex at ``pos`` is matched to graph vertex ``v`` it must
        satisfy ``v > match[earlier_pos]`` (if ``must_be_greater``) or
        ``v < match[earlier_pos]`` otherwise.
    """
    position_of: Dict[int, int] = {p: i for i, p in enumerate(order)}
    checks: List[List[Tuple[int, bool]]] = [[] for _ in order]
    for a, b in conditions:
        pa, pb = position_of[a], position_of[b]
        if pa < pb:
            # b is matched later: match[b] must be greater than match[a].
            checks[pb].append((pa, True))
        else:
            # a is matched later: match[a] must be smaller than match[b].
            checks[pa].append((pb, False))
    return checks


def satisfies_conditions(
    embedding: Sequence[int], conditions: Sequence[Tuple[int, int]]
) -> bool:
    """Whether a complete embedding satisfies every ordering condition."""
    return all(embedding[a] < embedding[b] for a, b in conditions)
