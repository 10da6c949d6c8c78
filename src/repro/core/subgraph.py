"""Subgraphs under enumeration.

A :class:`Subgraph` is the mutable unit of state threaded through the DFS
of Algorithm 1: primitives observe it, extension strategies grow and shrink
it (one word per enumeration level), and user callbacks read it.  Because a
single instance per core is reused across the whole depth-first traversal
(the paper's memory-efficiency argument, §4.1), mutation is strictly
stack-like: ``push`` on extension, ``pop`` on backtrack.

User callbacks must not retain references across calls; output operators
hand out immutable :class:`SubgraphResult` snapshots instead.

Pattern identity follows the same stack.  The subgraph keeps, per level,
where its prefix stands in the rank-structure table of
:mod:`repro.pattern.dfscode` — ``((sorted distinct vertex labels, sorted
distinct edge labels, node), vertices, edges)`` — and derives a level from
the one below by a *transition*: a small tuple saying what the push added,
relative to the parent (:meth:`Subgraph._levels_to_depth`).  Levels are
resolved only when a pattern is asked for at or above them and dropped on
``pop``/``clear``, so a push costs nothing and a leaf's pattern is one
transition lookup plus one lookup in the interner's table
(``PatternInterner.intern`` with the level's rank-compressed part handed
over) — the quotient is rebuilt only the first time a transition is taken.
A strategy's child visitor (``ExtensionStrategy.children``) may append a
child's level itself as it pushes, once the prefix's is resolved, from
:func:`level_tables` and :func:`vertex_code`; the request then finds it
in place.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import FrozenSet, List, Optional, Tuple

from ..graph.graph import Graph
from ..pattern import dfscode
from ..pattern.pattern import Pattern, PatternInterner

__all__ = ["Subgraph", "SubgraphResult"]


class Subgraph:
    """A connected subgraph being built word-by-word during enumeration.

    Words are vertices (vertex- and pattern-induced fractoids) or edges
    (edge-induced fractoids); in all cases the subgraph tracks both its
    vertex list and its edge list in addition order.
    """

    __slots__ = (
        "graph",
        "interner",
        "vertices",
        "edges",
        "vertex_set",
        "version",
        "_edges_per_level",
        "_vertices_per_level",
        "_pat_version",
        "_pat_cache",
        "_levels",
    )

    def __init__(self, graph: Graph, interner: Optional[PatternInterner] = None):
        self.graph = graph
        self.interner = interner if interner is not None else PatternInterner()
        self.vertices: List[int] = []
        self.edges: List[int] = []
        self.vertex_set: set = set()
        # Bumped on every mutation; extension strategies compare it to
        # detect out-of-band changes without scanning the word lists.
        self.version: int = 0
        # Per push bookkeeping so pops restore the exact previous state.
        self._edges_per_level: List[int] = []
        self._vertices_per_level: List[int] = []
        # Canonical-key memo: pattern()/pattern_with_positions() results
        # are stable for a given version, and aggregation key/value/update
        # callbacks routinely canonicalize the same subgraph two or three
        # times per record (FSM does), so one interner round-trip per
        # version is enough.
        self._pat_version: int = -1
        self._pat_cache: Optional[Tuple[Pattern, Tuple[int, ...]]] = None
        # _levels[d]: the prefix of the first d pushes in the rank-node
        # table; resolved lazily, never longer than depth + 1.
        self._levels: List[tuple] = [_ROOT_LEVEL]

    # ------------------------------------------------------------------
    # Stack-like mutation (used by extension strategies)
    # ------------------------------------------------------------------
    def push_vertex(self, v: int, incident_edges: List[int]) -> None:
        """Append vertex ``v`` together with its edges into the subgraph."""
        self.vertices.append(v)
        self.vertex_set.add(v)
        self.edges.extend(incident_edges)
        self.version += 1
        self._edges_per_level.append(len(incident_edges))
        self._vertices_per_level.append(1)

    def push_edge(self, eid: int) -> None:
        """Append edge ``eid``, adding endpoints not yet present.

        ``EdgeInducedStrategy.children`` inlines this method — keep
        them in step.
        """
        u, v = self.graph.edge(eid)
        added = 0
        if u not in self.vertex_set:
            self.vertices.append(u)
            self.vertex_set.add(u)
            added += 1
        if v not in self.vertex_set:
            self.vertices.append(v)
            self.vertex_set.add(v)
            added += 1
        self.edges.append(eid)
        self.version += 1
        self._edges_per_level.append(1)
        self._vertices_per_level.append(added)

    def pop(self) -> None:
        """Undo the most recent push.

        The fused child visitors (``VertexInducedStrategy.children``,
        ``EdgeInducedStrategy.children``,
        ``PatternInducedStrategy.children``) inline :meth:`push_vertex`
        or :meth:`push_edge` and this method, the level rule below
        included — keep them in step.
        """
        n_edges = self._edges_per_level.pop()
        n_vertices = self._vertices_per_level.pop()
        if n_edges:
            del self.edges[-n_edges:]
        for _ in range(n_vertices):
            self.vertex_set.discard(self.vertices.pop())
        self.version += 1
        # At most one level is resolved past the new depth.
        if len(self._levels) > len(self._edges_per_level) + 1:
            self._levels.pop()

    def clear(self) -> None:
        """Reset to the empty subgraph."""
        self.vertices.clear()
        self.edges.clear()
        self.vertex_set.clear()
        self.version += 1
        self._edges_per_level.clear()
        self._vertices_per_level.clear()
        del self._levels[1:]

    # ------------------------------------------------------------------
    # Read access (user callbacks and primitives)
    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        """Number of vertices in the subgraph."""
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        """Number of edges in the subgraph."""
        return len(self.edges)

    @property
    def edge_set(self) -> set:
        """The subgraph's edge ids as a fresh set (nothing on the
        enumeration path needs edge membership, so none is maintained)."""
        return set(self.edges)

    @property
    def depth(self) -> int:
        """Number of words pushed so far (enumeration depth)."""
        return len(self._edges_per_level)

    def last_vertex(self) -> int:
        """Most recently added vertex."""
        return self.vertices[-1]

    def last_edge(self) -> int:
        """Most recently added edge."""
        return self.edges[-1]

    def edges_added_last(self) -> int:
        """Edges contributed by the most recent push.

        The clique filter of Appendix A (Listing 2) checks that the last
        expansion contributed ``n_vertices - 1`` edges.
        """
        return self._edges_per_level[-1] if self._edges_per_level else 0

    def contains_vertex(self, v: int) -> bool:
        """Whether vertex ``v`` is part of the subgraph."""
        return v in self.vertex_set

    def vertex_labels(self) -> Tuple[int, ...]:
        """Labels of subgraph vertices in addition order."""
        labels = self.graph.vertex_labels()
        return tuple(labels[v] for v in self.vertices)

    def keywords(self) -> FrozenSet[str]:
        """Union of keywords over subgraph vertices and edges (L(S))."""
        words: set = set()
        for v in self.vertices:
            words.update(self.graph.vertex_keywords(v))
        for e in self.edges:
            words.update(self.graph.edge_keywords(e))
        return frozenset(words)

    # ------------------------------------------------------------------
    # Pattern identity
    # ------------------------------------------------------------------
    def quotient(self) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, int, int], ...]]:
        """Structure with vertices renamed to subgraph positions ``0..k-1``."""
        return self._quotient(len(self.vertices), len(self.edges))

    def _quotient(
        self, n_vertices: int, n_edges: int
    ) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, int, int], ...]]:
        """:meth:`quotient` of the first ``n_vertices`` / ``n_edges``."""
        # list.index beats building a dict for the small k of GPM
        # subgraphs; read the graph's edge columns directly instead of
        # going through per-edge accessor calls.
        graph = self.graph
        labels = graph.vertex_labels()
        src, dst, elabels = graph.edge_arrays()
        vertices = self.vertices
        index = vertices.index
        qedges = []
        for eid in self.edges[:n_edges]:
            pu = index(src[eid])
            pv = index(dst[eid])
            if pu > pv:
                pu, pv = pv, pu
            qedges.append((pu, pv, elabels[eid]))
        qedges.sort()
        return tuple([labels[v] for v in vertices[:n_vertices]]), tuple(qedges)

    def _levels_to_depth(self) -> tuple:
        """Resolve :attr:`_levels` up to the current depth; the last one.

        A level follows from the one below by the transition its push
        caused, keyed in ``node.children`` by a flat tuple: per new vertex
        ``~(2 * slot + new)`` — the slot its label takes among the
        parent's sorted distinct vertex labels, and whether it is a label
        not seen before — then per new edge its two positions and
        ``2 * slot + new`` for its label among the distinct edge labels.
        A new label shifts the ranks above its slot and the code says so,
        hence parent node and key determine the child's rank structure;
        vertex entries are the negative ones, so a key parses one way.
        A transition never taken before finds its child from scratch.

        ``VertexInducedStrategy.children`` builds the same key for one
        pushed vertex from :func:`level_tables` and :func:`vertex_code`
        and appends the level at push when the transition is known; a
        change to the key or the level format is a change there too.
        """
        levels = self._levels
        level = levels[-1]
        depth = len(self._edges_per_level)
        if len(levels) > depth:
            return level
        graph = self.graph
        vlabels = graph.vertex_labels()
        src, dst, elabels = graph.edge_arrays()
        vertices = self.vertices
        edges = self.edges
        index = vertices.index
        (vdistinct, edistinct, node), n_vertices, n_edges = level
        for d in range(len(levels) - 1, depth):
            key = []
            first = n_vertices
            n_vertices += self._vertices_per_level[d]
            for v in vertices[first:n_vertices]:
                code, vdistinct = vertex_code(vdistinct, vlabels[v])
                key.append(code)
            first = n_edges
            n_edges += self._edges_per_level[d]
            for eid in edges[first:n_edges]:
                key.append(index(src[eid]))
                key.append(index(dst[eid]))
                label = elabels[eid]
                if label in edistinct:
                    key.append(edistinct.index(label) << 1)
                else:
                    slot = bisect_left(edistinct, label)
                    key.append(slot << 1 | 1)
                    edistinct = edistinct[:slot] + (label,) + edistinct[slot:]
            key = tuple(key)
            child = node.children.get(key)
            if child is None:
                child = dfscode.take_transition(
                    node, key, *self._quotient(n_vertices, n_edges)
                )
            node = child
            level = ((vdistinct, edistinct, node), n_vertices, n_edges)
            levels.append(level)
        return level

    def pattern(self) -> Pattern:
        """Canonical pattern ρ(S) of this subgraph (interned)."""
        return self.pattern_with_positions()[0]

    def pattern_with_positions(self) -> Tuple[Pattern, Tuple[int, ...]]:
        """Canonical pattern plus each subgraph vertex's canonical position.

        Returns ``(pattern, positions)`` where ``positions[i]`` is the
        canonical pattern position of ``self.vertices[i]`` — the mapping
        minimum-image (MNI) support counting requires.  Memoized per
        :attr:`version`, so repeated calls at the same enumeration state
        (key_fn, value_fn and update_fn of one aggregation record) pay a
        single lookup.
        """
        if self._pat_version == self.version:
            return self._pat_cache
        ranked, n_vertices, n_edges = self._levels_to_depth()
        if n_vertices == len(self.vertices) and n_edges == len(self.edges):
            result = self.interner.intern(None, None, ranked)
        else:
            # The word lists were filled without push: no levels to walk.
            result = self.interner.intern(*self.quotient())
        self._pat_cache = result
        self._pat_version = self.version
        return result

    def pattern_memo(self) -> Optional[Tuple[Pattern, Tuple[int, ...]]]:
        """The memoized :meth:`pattern_with_positions` result, if current."""
        return self._pat_cache if self._pat_version == self.version else None

    def seed_pattern_memo(self, memo: Tuple[Pattern, Tuple[int, ...]]) -> None:
        """Adopt ``memo`` as this state's :meth:`pattern_with_positions`.

        For extension strategies that know the quotient of what they
        just pushed without deriving it (pattern-induced matching: it is
        fixed per depth); ``memo`` must be what this subgraph's interner
        returned for that quotient.
        """
        self._pat_cache = memo
        self._pat_version = self.version

    def freeze(self) -> "SubgraphResult":
        """Immutable snapshot for output operators."""
        return SubgraphResult(
            vertices=tuple(self.vertices),
            edges=tuple(self.edges),
            pattern=self.pattern() if self.vertices else None,
        )

    def __repr__(self) -> str:
        return f"Subgraph(vertices={self.vertices}, edges={self.edges})"


# Level 0 of every subgraph: the empty structure.
_ROOT_LEVEL = (((), (), dfscode.ROOT), 0, 0)


def vertex_code(
    vdistinct: Tuple[int, ...], label: int
) -> Tuple[int, Tuple[int, ...]]:
    """A new vertex's entry in a transition key, and the labels after it.

    ``~(2 * slot + new)`` for ``label`` among the sorted distinct vertex
    labels ``vdistinct`` (see :meth:`Subgraph._levels_to_depth`), with
    ``vdistinct`` itself or the copy that has ``label`` inserted.
    """
    if label in vdistinct:
        return ~(vdistinct.index(label) << 1), vdistinct
    slot = bisect_left(vdistinct, label)
    return ~(slot << 1 | 1), vdistinct[:slot] + (label,) + vdistinct[slot:]


def level_tables(level: tuple, n_vertices: int, n_edges: int) -> Optional[tuple]:
    """What a child visitor hoists from its prefix's resolved ``level``.

    ``(ecodes, child_of)``: the transition-key entry of every edge label
    the prefix has (a label it has not would shift ranks within one push
    — left to :meth:`Subgraph._levels_to_depth`) and the prefix node's
    ``children.get``.  ``None`` when the level does not describe a prefix
    of ``n_vertices`` and ``n_edges``: the word lists were filled without
    push and no transition says how.
    """
    (_, edistinct, node), level_vertices, level_edges = level
    if level_vertices != n_vertices or level_edges != n_edges:
        return None
    ecodes = {label: slot << 1 for slot, label in enumerate(edistinct)}
    return ecodes, node.children.get


class SubgraphResult:
    """An immutable enumerated subgraph, as returned by output operators."""

    __slots__ = ("vertices", "edges", "pattern")

    def __init__(
        self,
        vertices: Tuple[int, ...],
        edges: Tuple[int, ...],
        pattern: Optional[Pattern],
    ):
        self.vertices = vertices
        self.edges = edges
        self.pattern = pattern

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubgraphResult):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"SubgraphResult(vertices={self.vertices}, edges={self.edges})"
