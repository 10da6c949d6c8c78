"""Minimum DFS-code canonical labeling (gSpan-style, paper §2.1).

The paper adopts the DFS coding algorithm [Yan & Han, gSpan 2002] to
compute the canonical labeling ρ(S) of a labeled (sub)graph.  A *DFS code*
is the edge sequence produced by a depth-first traversal: each edge appears
as a 5-tuple ``(i, j, l_i, l_e, l_j)`` over discovery indices.  Every DFS
traversal of a connected graph yields one valid code; the *minimum* code
over all traversals is a canonical form — two labeled graphs are isomorphic
iff their minimum codes are equal (a code reconstructs the graph).

This implementation enumerates DFS traversals with branch-and-bound
pruning against the best code found so far, comparing codes by plain
lexicographic order over their tuples (a total order over valid codes; any
consistent total order yields a correct canonical form).  Patterns in GPM
workloads are small (≤ ~8 vertices), and callers memoize through
:class:`~repro.pattern.pattern.PatternInterner`, so the exponential worst
case is never hot.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["minimum_dfs_code", "code_to_edges", "clear_code_cache"]

Code = Tuple[Tuple[int, int, int, int, int], ...]

# Memo of rank-compressed structure -> (template code, mapping); see
# minimum_dfs_code.  Structures are small (GPM patterns, <= ~8 vertices)
# so the cache stays tiny relative to the searches it saves.
_CODE_CACHE: Dict[Tuple, Tuple[Code, Tuple[int, ...]]] = {}


def clear_code_cache() -> None:
    """Drop the memoized rank-structure -> code table (tests/benchmarks)."""
    _CODE_CACHE.clear()


def minimum_dfs_code(
    vertex_labels: Sequence[int],
    edges: Sequence[Tuple[int, int, int]],
) -> Tuple[Code, Tuple[int, ...]]:
    """Compute the minimum DFS code of a connected labeled graph.

    Args:
        vertex_labels: label of vertex ``v`` at index ``v``.
        edges: ``(a, b, edge_label)`` triples, ``a != b``, no duplicates.

    Returns:
        ``(code, mapping)``: the canonical code, and for each input vertex
        its discovery index in the minimal traversal (the vertex's
        *canonical position*, used by MNI support counting).

    Raises:
        ValueError: if the graph is empty or not connected (Fractal
            enumerates connected subgraphs only).

    The branch-and-bound search is memoized under *order-preserving rank
    compression* of the labels: every label comparison the search makes
    is within one domain (vertex labels against vertex labels in the
    adjacency sort keys and at fixed tuple positions of the lexicographic
    code comparison; likewise edge labels), so replacing labels by their
    ranks ``0..d-1`` within each domain preserves every comparison
    outcome — the search tree, the pruning decisions, the winning
    traversal and therefore the discovery mapping are identical.  Distinct
    label values collapse onto few rank structures (e.g. all 29-label
    triangles share one of a handful of templates), turning almost every
    call into a dict lookup plus substituting the original labels back
    into the cached template.
    """
    n = len(vertex_labels)
    if n == 0:
        raise ValueError("cannot canonicalize the empty graph")
    if n == 1:
        return ((0, 0, vertex_labels[0], -1, -1),), (0,)

    vdistinct = sorted(set(vertex_labels))
    vrank = {label: r for r, label in enumerate(vdistinct)}
    edistinct = sorted({elabel for _, _, elabel in edges})
    erank = {label: r for r, label in enumerate(edistinct)}
    key = (
        tuple([vrank[label] for label in vertex_labels]),
        tuple([(a, b, erank[elabel]) for a, b, elabel in edges]),
    )
    hit = _CODE_CACHE.get(key)
    if hit is None:
        hit = _minimum_dfs_code_search(key[0], key[1])
        _CODE_CACHE[key] = hit
    template, mapping = hit
    code = tuple(
        [
            (i, j, vdistinct[li], edistinct[le], vdistinct[lj])
            for i, j, li, le, lj in template
        ]
    )
    return code, mapping


def _minimum_dfs_code_search(
    vertex_labels: Sequence[int],
    edges: Sequence[Tuple[int, int, int]],
) -> Tuple[Code, Tuple[int, ...]]:
    """The raw branch-and-bound minimum-DFS-code search (unmemoized)."""
    n = len(vertex_labels)
    if n == 1:
        return ((0, 0, vertex_labels[0], -1, -1),), (0,)
    adj: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for a, b, elabel in edges:
        adj[a].append((b, elabel))
        adj[b].append((a, elabel))
    # Visit low labels first: improves branch-and-bound pruning.
    for v in range(n):
        adj[v].sort(key=lambda pair: (pair[1], vertex_labels[pair[0]], pair[0]))

    _check_connected(n, adj)

    best: List[Optional[Code]] = [None]
    best_map: List[Optional[Tuple[int, ...]]] = [None]

    index_of = [-1] * n
    code: List[Tuple[int, int, int, int, int]] = []
    order: List[int] = []

    def _emit_discovery(u: int, parent: int) -> int:
        """Append the forward tuple for ``u`` plus its backward tuples.

        Returns the number of tuples appended (for undo).
        """
        u_index = index_of[u]
        parent_elabel = None
        backward: List[Tuple[int, int]] = []
        for t, elabel in adj[u]:
            if t == parent:
                parent_elabel = elabel
            elif index_of[t] >= 0:
                backward.append((index_of[t], elabel))
        assert parent_elabel is not None
        code.append(
            (
                index_of[parent],
                u_index,
                vertex_labels[parent],
                parent_elabel,
                vertex_labels[u],
            )
        )
        backward.sort()
        u_label = vertex_labels[u]
        for t_index, elabel in backward:
            code.append(
                (u_index, t_index, u_label, elabel, vertex_labels[order[t_index]])
            )
        return 1 + len(backward)

    def _prefix_viable() -> bool:
        """Whether the code built so far can still reach a new minimum.

        Compares the prefix against the incumbent best; prefixes that are
        already lexicographically greater are pruned.
        """
        incumbent = best[0]
        if incumbent is None:
            return True
        prefix = tuple(code)
        return prefix <= incumbent[: len(prefix)]

    def _search(stack: List[int]) -> None:
        if len(order) == n:
            final = tuple(code)
            if best[0] is None or final < best[0]:
                best[0] = final
                best_map[0] = tuple(index_of)
            return
        v = stack[-1]
        candidates = [u for u, _ in adj[v] if index_of[u] < 0]
        if not candidates:
            stack.pop()
            _search(stack)
            stack.append(v)
            return
        for u in candidates:
            index_of[u] = len(order)
            order.append(u)
            appended = _emit_discovery(u, v)
            if _prefix_viable():
                stack.append(u)
                _search(stack)
                stack.pop()
            del code[len(code) - appended:]
            order.pop()
            index_of[u] = -1

    for root in range(n):
        index_of[root] = 0
        order.append(root)
        _search([root])
        order.pop()
        index_of[root] = -1

    assert best[0] is not None and best_map[0] is not None
    return best[0], best_map[0]


def code_to_edges(
    code: Code,
) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, int, int], ...]]:
    """Reconstruct ``(vertex_labels, edges)`` from a DFS code.

    The inverse of :func:`minimum_dfs_code` up to isomorphism: vertices
    are numbered by discovery index, edges come back normalized
    (``a < b``, sorted).  Relies on the DFS-code invariant that the k-th
    forward tuple discovers vertex ``k``.
    """
    first = code[0]
    if first[1] == 0:  # (0, 0, label, -1, -1): the 1-vertex pattern
        return (first[2],), ()
    labels = [first[2]]
    edges: List[Tuple[int, int, int]] = []
    for i, j, _, elabel, lj in code:
        if i < j:
            labels.append(lj)
            edges.append((i, j, elabel))
        else:
            edges.append((j, i, elabel))
    edges.sort()
    return tuple(labels), tuple(edges)


def _check_connected(n: int, adj: List[List[Tuple[int, int]]]) -> None:
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u, _ in adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    if len(seen) != n:
        raise ValueError("minimum DFS code requires a connected graph")
