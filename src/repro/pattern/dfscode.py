"""Minimum DFS-code canonical labeling (gSpan-style, paper §2.1).

The paper adopts the DFS coding algorithm [Yan & Han, gSpan 2002] to
compute the canonical labeling ρ(S) of a labeled (sub)graph.  A *DFS code*
is the edge sequence produced by a depth-first traversal: each edge appears
as a 5-tuple ``(i, j, l_i, l_e, l_j)`` over discovery indices.  Every DFS
traversal of a connected graph yields one valid code; the *minimum* code
over all traversals is a canonical form — two labeled graphs are isomorphic
iff their minimum codes are equal (a code reconstructs the graph).

The search (:func:`_minimum_dfs_code_search`) enumerates DFS traversals
with branch-and-bound pruning against the best code found so far,
comparing codes by plain lexicographic order over their tuples (a total
order over valid codes; any consistent total order yields a correct
canonical form).  It is exponential in the worst case, so it runs once per
*ordered rank structure*, never once per subgraph.

Every label comparison the search makes is within one domain (vertex
labels against vertex labels in the adjacency sort keys and at fixed tuple
positions of the lexicographic code comparison; likewise edge labels), so
replacing labels by their ranks ``0..d-1`` within each domain preserves
every comparison outcome — the search tree, the pruning decisions, the
winning traversal and therefore the discovery mapping are identical.  A
:class:`RankNode` is one such rank-compressed structure with its vertices
in the order they were given; it owns everything that does not depend on
the label values: the :class:`Template` (the code over ranks, shared by
every node that canonicalizes to it) and the vertex -> canonical-position
mapping.  Nodes live in one module-wide table entered two ways:

* from scratch, through :func:`rank_node` (rank compression plus one
  lookup) — what :func:`minimum_dfs_code` and ``PatternInterner.intern``
  on a whole quotient do;
* by *transition*: ``node.children`` maps what one ``Subgraph`` push
  added — told relative to the parent, see ``repro.core.subgraph`` — to
  the child's node, so a DFS walk that requests a pattern at every leaf
  reaches each node by one small-tuple lookup instead of rebuilding and
  hashing the whole structure.

A node's template is searched the first time it is asked for
(:func:`template_of`), so a node that is only walked through — an
intermediate, possibly disconnected prefix — costs no search.

The tables are process-wide, so a process that forks inherits them and
what a child adds dies with it unless it is handed back: a multiprocess
worker calls :func:`start_journal` after fork, ships
:func:`export_journal` — its new nodes, transitions and template
searches as plain int tuples — and the driver folds that into its own
tables with :func:`absorb`, so the next fork starts warm.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "minimum_dfs_code",
    "code_to_edges",
    "flat_code",
    "nested_code",
    "clear_code_cache",
    "RankNode",
    "Template",
    "ROOT",
    "rank_node",
    "template_of",
    "take_transition",
    "start_journal",
    "export_journal",
    "absorb",
]

Code = Tuple[Tuple[int, int, int, int, int], ...]
# A code with its 5-tuples laid end to end: what a ``Pattern`` holds, what
# crosses a process boundary and what orders, hashes and compares exactly
# as the nested code does (every row has length 5, so the first differing
# integer of two flat codes sits in the first differing row of the nested
# ones, and a proper prefix is a prefix either way).
FlatCode = Tuple[int, ...]


def flat_code(code: Code) -> FlatCode:
    """``code``'s rows laid end to end."""
    return tuple(chain.from_iterable(code))


def nested_code(flat: FlatCode) -> Code:
    """Inverse of :func:`flat_code`: five integers per row."""
    return tuple(zip(*[iter(flat)] * 5))


class Template:
    """A minimum DFS code over label *ranks*.

    A pattern is a template plus the label values its ranks stand for;
    automorphisms preserve label *equality* only, so the
    canonical-position orbits are the template's too — ``orbits`` is
    filled by the first pattern asked for them (``Pattern.vertex_orbits``)
    and read by every other pattern of this template.

    Labels go in through one precomputed gather: every entry of the flat
    code (:func:`flat_code`) is either a constant — a discovery index, or
    the 1-vertex code's ``-1`` fillers — or the label some rank stands
    for, so the flat code of a labeling is ``itemgetter(*indices)`` over
    ``constants + vdistinct + edistinct``: one C call, no Python loop
    over the rows.  A template has a fixed number of distinct vertex
    ranks (rank compression leaves them dense), so the offsets of the
    two label runs are fixed too.
    """

    __slots__ = ("code", "orbits", "_constants", "_gather")

    def __init__(self, code: Code):
        self.code = code
        self.orbits: Optional[Tuple[int, ...]] = None
        if code[0][1] == 0:  # (0, 0, rank 0, -1, -1): the 1-vertex pattern
            self._constants: Tuple[int, ...] = (0, -1)
            indices = [0, 0, 2, 1, 1]
        else:
            n = 1 + max(j for _, j, _, _, _ in code)
            self._constants = tuple(range(n))
            e0 = n + 1 + max(max(li, lj) for _, _, li, _, lj in code)
            indices = [
                index
                for i, j, li, le, lj in code
                for index in (i, j, n + li, e0 + le, n + lj)
            ]
        self._gather = itemgetter(*indices)

    def flat_code(
        self, vdistinct: Tuple[int, ...], edistinct: Tuple[int, ...]
    ) -> FlatCode:
        """The flat code with rank ``r`` replaced by the ``r``-th label."""
        return self._gather(self._constants + vdistinct + edistinct)


class RankNode:
    """One ordered rank structure; see the module docstring.

    ``vranks[i]`` is the label rank of the ``i``-th vertex and ``redges``
    the sorted ``(a, b, edge-label rank)`` triples (``a < b``).
    ``template`` and ``mapping`` (vertex ``i`` -> canonical position) stay
    ``None`` until :func:`template_of` runs the search.
    """

    __slots__ = ("vranks", "redges", "children", "template", "mapping")

    def __init__(
        self,
        vranks: Tuple[int, ...],
        redges: Tuple[Tuple[int, int, int], ...],
    ):
        self.vranks = vranks
        self.redges = redges
        self.children: Dict[Tuple[int, ...], "RankNode"] = {}
        self.template: Optional[Template] = None
        self.mapping: Optional[Tuple[int, ...]] = None


# The module-wide node table (rank structure -> node) and the templates
# the nodes share (code over ranks -> template).  Structures are small
# (GPM patterns, <= ~8 vertices) and few: every labeling of a shape falls
# on one of a handful of nodes.
_NODES: Dict[Tuple, RankNode] = {}
_TEMPLATES: Dict[Code, Template] = {}

# The empty structure, where every walk starts.  It is not in ``_NODES``:
# the empty graph has no canonical form.
ROOT = RankNode((), ())

# What this process added to the tables since :func:`start_journal`: the
# new nodes, the new ``(parent, key, child)`` transitions and the nodes
# whose template was searched, each in the order they were added.
# ``None`` (the default) journals nothing.
_journal: Optional[Tuple[List[RankNode], List[tuple], List[RankNode]]] = None


def clear_code_cache() -> None:
    """Drop every memoized node, transition and template (tests/benchmarks).

    Subgraphs and interners made earlier keep working off the nodes they
    still hold, but no longer share templates — and so ``Pattern``
    objects — with structures resolved afterwards; make fresh ones.
    """
    _NODES.clear()
    _TEMPLATES.clear()
    ROOT.children.clear()


def _shared_template(code: Code) -> Template:
    template = _TEMPLATES.get(code)
    if template is None:
        template = _TEMPLATES[code] = Template(code)
    return template


def rank_node(
    vertex_labels: Sequence[int],
    edges: Sequence[Tuple[int, int, int]],
) -> Tuple[Tuple[int, ...], Tuple[int, ...], RankNode]:
    """Rank-compress a labeled structure and find its node.

    Returns ``(vdistinct, edistinct, node)``: the sorted distinct vertex
    and edge labels (rank ``r`` stands for the ``r``-th) and the node of
    the structure with every label replaced by its rank.  ``edges`` must
    be normalized (``a < b`` within each triple, sorted, no duplicates —
    what ``Subgraph.quotient`` emits) for equal structures to share a
    node; the node is created, unsearched, if this is its first visit.

    Raises:
        ValueError: if the structure is empty.
    """
    if not vertex_labels:
        raise ValueError("cannot canonicalize the empty graph")
    vdistinct = tuple(sorted(set(vertex_labels)))
    vrank = {label: r for r, label in enumerate(vdistinct)}
    edistinct = tuple(sorted({elabel for _, _, elabel in edges}))
    erank = {label: r for r, label in enumerate(edistinct)}
    key = (
        tuple([vrank[label] for label in vertex_labels]),
        tuple([(a, b, erank[elabel]) for a, b, elabel in edges]),
    )
    node = _NODES.get(key)
    if node is None:
        node = _NODES[key] = RankNode(*key)
        if _journal is not None:
            _journal[0].append(node)
    return vdistinct, edistinct, node


def take_transition(
    node: RankNode,
    key: Tuple[int, ...],
    vertex_labels: Sequence[int],
    edges: Sequence[Tuple[int, int, int]],
) -> RankNode:
    """Enter transition ``key`` out of ``node``, taken for the first time.

    ``vertex_labels`` / ``edges`` are the child's quotient (see
    :func:`rank_node`); its node is found from scratch and becomes
    ``node.children[key]``.  The one place a transition is written.
    """
    child = node.children[key] = rank_node(vertex_labels, edges)[2]
    if _journal is not None:
        _journal[1].append((node, key, child))
    return child


def template_of(node: RankNode) -> Template:
    """``node``'s template, searched on first request.

    Goes through :func:`minimum_dfs_code` as looked up on this module at
    call time, so a span wrapped around that name counts one call per
    template search.  A node's labels are ranks already, so the code that
    comes back is the template's own; it is ``node`` itself that gets
    filled, whether or not the table still holds it (a ``Subgraph`` level
    may outlive :func:`clear_code_cache`).

    Raises:
        ValueError: if the node's structure is empty or not connected.
    """
    if node.template is None:
        code, node.mapping = minimum_dfs_code(node.vranks, node.redges)
        node.template = _shared_template(code)
    return node.template


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

    The from-scratch entry of the node table: rank-compress, find the
    node, search its template if nobody has, and gather the labels back
    into it.  Distinct label values collapse onto few nodes (e.g. all
    29-label triangles share a handful), so almost every call is a dict
    lookup plus the gather.
    """
    vdistinct, edistinct, node = rank_node(vertex_labels, edges)
    template = node.template
    if template is None:
        code, node.mapping = _minimum_dfs_code_search(node.vranks, node.redges)
        template = node.template = _shared_template(code)
        if _journal is not None:
            _journal[2].append(node)
    return nested_code(template.flat_code(vdistinct, edistinct)), node.mapping


# ----------------------------------------------------------------------
# Handing the tables across a fork
# ----------------------------------------------------------------------


def start_journal() -> None:
    """Journal every node, transition and template search from now on.

    For a forked worker, whose tables start as the parent's: what it
    adds afterwards is exactly what :func:`export_journal` reports.
    """
    global _journal
    _journal = ([], [], [])


def export_journal() -> Optional[tuple]:
    """The journal as plain int tuples; ``None`` when nothing was added.

    ``(keys, transitions, templates)``: ``keys`` are the rank keys
    ``(vranks, redges)`` of every node the records name — the new ones
    first, in creation order; ``ROOT`` is ``((), ())`` — ``transitions``
    are ``(parent index, key, child index)`` triples and ``templates``
    ``(node index, flat code, mapping)`` triples, the code over ranks.
    """
    if _journal is None or not any(_journal):
        return None
    new_nodes, transitions, searched = _journal
    index: Dict[int, int] = {}
    keys: List[Tuple] = []

    def ref(node: RankNode) -> int:
        i = index.get(id(node))
        if i is None:
            i = index[id(node)] = len(keys)
            keys.append((node.vranks, node.redges))
        return i

    for node in new_nodes:
        ref(node)
    transitions = tuple(
        (ref(parent), key, ref(child)) for parent, key, child in transitions
    )
    templates = tuple(
        (ref(node), flat_code(node.template.code), node.mapping)
        for node in searched
    )
    return tuple(keys), transitions, templates


def absorb(journal: tuple) -> Tuple[int, int, int]:
    """Fold another process's :func:`export_journal` into these tables.

    Nodes are matched by rank key and whatever the tables hold already
    stays (first writer wins); nothing is searched.  A record that
    disagrees with the tables — a transition to another child, another
    template or mapping for a searched node — is a corrupt journal.
    Returns how many nodes, transitions and templates were new here.

    Raises:
        ValueError: on a record that contradicts the tables.
    """
    keys, transitions, templates = journal
    nodes: List[RankNode] = []
    new_nodes = new_transitions = new_templates = 0
    for key in keys:
        if not key[0]:  # no vertices: ROOT, the one node outside the table
            node = ROOT
        else:
            node = _NODES.get(key)
            if node is None:
                node = _NODES[key] = RankNode(*key)
                new_nodes += 1
        nodes.append(node)
    for parent, key, child in transitions:
        parent, child = nodes[parent], nodes[child]
        known = parent.children.get(key)
        if known is None:
            parent.children[key] = child
            new_transitions += 1
        elif (known.vranks, known.redges) != (child.vranks, child.redges):
            raise ValueError(
                f"journal transition {key} out of {parent.vranks, parent.redges} "
                f"leads to {child.vranks, child.redges}, the table to "
                f"{known.vranks, known.redges}"
            )
    for index, flat, mapping in templates:
        node = nodes[index]
        code = nested_code(flat)
        if node.template is None:
            node.template = _shared_template(code)
            node.mapping = mapping
            new_templates += 1
        elif node.template.code != code or node.mapping != mapping:
            raise ValueError(
                f"journal template of {node.vranks, node.redges} is "
                f"{code} / {mapping}, the table's "
                f"{node.template.code} / {node.mapping}"
            )
    return new_nodes, new_transitions, new_templates


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
