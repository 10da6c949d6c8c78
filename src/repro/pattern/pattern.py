"""Patterns: canonical templates of subgraphs (paper §2.1).

A *pattern* is the equivalence class of all subgraphs isomorphic to each
other; the paper identifies patterns through a canonical labeling ρ(S)
computed with DFS coding [gSpan, Yan & Han 2002].  :class:`Pattern` is a
small labeled graph whose identity (hash and equality) is its canonical
code, so patterns can be used directly as aggregation keys — exactly how
the motif-counting and FSM applications of Appendix A use them.

Building a pattern per enumerated subgraph must be cheap: motif counting
canonicalizes every enumerated subgraph.  A pattern's identity splits into
a label-free part — the :class:`~repro.pattern.dfscode.Template` its rank
structure canonicalizes to — and the sorted distinct labels the ranks
stand for; :class:`PatternInterner` keeps one ``Pattern`` per such pair,
whichever way the rank structure's node was reached (by a ``Subgraph``'s
transitions or from scratch, off a whole quotient).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..graph.graph import Graph, GraphBuilder
from . import dfscode

__all__ = ["Pattern", "PatternInterner"]


class Pattern:
    """An immutable labeled graph template identified by its canonical code.

    Vertices are ``0..n-1``.  ``edges`` holds ``(a, b, edge_label)`` tuples
    with ``a < b``.  Two patterns compare equal iff their canonical DFS
    codes are equal, i.e. iff they are isomorphic as labeled graphs.
    """

    __slots__ = (
        "vertex_labels",
        "edges",
        "_code",
        "_canonical_map",
        "_adj",
        "_orbits",
        "_pos_orbits",
        "_hash",
        "_symcache",
        "_template",
        "_shuffle_hash",
    )

    def __init__(
        self,
        vertex_labels: Sequence[int],
        edges: Sequence[Tuple[int, int, int]],
    ):
        self.vertex_labels: Tuple[int, ...] = tuple(vertex_labels)
        normalized = []
        seen = set()
        n = len(self.vertex_labels)
        for a, b, elabel in edges:
            if a == b:
                raise ValueError("patterns cannot contain self-loops")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a}, {b}) out of range for {n} vertices")
            key = (a, b) if a < b else (b, a)
            if key in seen:
                raise ValueError(f"duplicate pattern edge {key}")
            seen.add(key)
            normalized.append((key[0], key[1], elabel))
        normalized.sort()
        self.edges: Tuple[Tuple[int, int, int], ...] = tuple(normalized)
        self._code: Optional[Tuple] = None
        self._canonical_map: Optional[Tuple[int, ...]] = None
        self._orbits: Optional[Tuple[int, ...]] = None
        self._pos_orbits: Optional[Tuple[int, ...]] = None
        self._hash: Optional[int] = None
        self._adj: Optional[List[List[Tuple[int, int]]]] = None
        # Lazy cache of compiled symmetry-breaking plans, managed by
        # ``repro.pattern.symmetry.symmetry_plan`` (keyed by construction
        # flavor, matching order and graph identity).
        self._symcache: Optional[dict] = None
        # The shared template of an interned pattern (orbits are computed
        # once on it); None for patterns constructed directly.
        self._template: Optional[dfscode.Template] = None
        # Shuffle-partition hash of the canonical code, managed by
        # ``repro.core.aggregation._stable_hash``.
        self._shuffle_hash: Optional[int] = None

    @classmethod
    def _from_normalized(
        cls,
        vertex_labels: Tuple[int, ...],
        edges: Tuple[Tuple[int, int, int], ...],
        code: Tuple,
        canonical_map: Tuple[int, ...],
    ) -> "Pattern":
        """Internal fast constructor for pre-validated, pre-canonicalized
        structures (``a < b``, sorted, no duplicates), skipping
        re-validation and a redundant code search.
        """
        pattern = cls.__new__(cls)
        pattern.vertex_labels = vertex_labels
        pattern.edges = edges
        pattern._code = code
        pattern._canonical_map = canonical_map
        pattern._orbits = None
        pattern._pos_orbits = None
        pattern._hash = None
        pattern._adj = None
        pattern._symcache = None
        pattern._template = None
        pattern._shuffle_hash = None
        return pattern

    @classmethod
    def from_canonical_code(cls, code: Tuple) -> "Pattern":
        """The pattern a canonical DFS code denotes, numbered by position.

        This is how a pattern is rebuilt after crossing a process
        boundary (only its code is shipped): vertex ``p`` *is* canonical
        position ``p``, so ``canonical_vertex_map()`` is the identity and
        the structure is ``dfscode.code_to_edges(code)`` — the same on
        every receiver, and the one every interner holds for the class.
        ``code`` is trusted to be a minimum DFS code (it came out of
        ``canonical_code()``); the search is not re-run.
        """
        vertex_labels, edges = dfscode.code_to_edges(code)
        return cls._from_normalized(
            vertex_labels, edges, code, tuple(range(len(vertex_labels)))
        )

    @property
    def adjacency(self) -> List[List[Tuple[int, int]]]:
        """Sorted ``(neighbor, edge_label)`` rows per vertex (lazy)."""
        if self._adj is None:
            adj: List[List[Tuple[int, int]]] = [
                [] for _ in range(len(self.vertex_labels))
            ]
            for a, b, elabel in self.edges:
                adj[a].append((b, elabel))
                adj[b].append((a, elabel))
            for row in adj:
                row.sort()
            self._adj = adj
        return self._adj

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edge_list(
        cls,
        edges: Sequence[Tuple[int, int]],
        vertex_labels: Optional[Sequence[int]] = None,
        edge_labels: Optional[Sequence[int]] = None,
    ) -> "Pattern":
        """Build a pattern from plain ``(a, b)`` pairs (labels default to 0)."""
        n = 0
        for a, b in edges:
            n = max(n, a + 1, b + 1)
        labels = list(vertex_labels) if vertex_labels is not None else [0] * n
        elabels = list(edge_labels) if edge_labels is not None else [0] * len(edges)
        triples = [(a, b, elabels[i]) for i, (a, b) in enumerate(edges)]
        return cls(labels, triples)

    @classmethod
    def from_graph(cls, graph: Graph) -> "Pattern":
        """Treat an entire (small) graph as a pattern."""
        labels = [graph.vertex_label(v) for v in graph.vertices()]
        triples = [
            (u, v, graph.edge_label(e))
            for e in graph.edges()
            for u, v in [graph.edge(e)]
        ]
        return cls(labels, triples)

    @classmethod
    def single_vertex(cls, label: int = 0) -> "Pattern":
        """The 1-vertex pattern."""
        return cls([label], [])

    @classmethod
    def clique(cls, k: int, label: int = 0) -> "Pattern":
        """The k-clique pattern."""
        edges = [(u, v, 0) for u in range(k) for v in range(u + 1, k)]
        return cls([label] * k, edges)

    def to_graph(self, name: str = "pattern") -> Graph:
        """Materialize the pattern as a :class:`~repro.graph.graph.Graph`."""
        builder = GraphBuilder(name=name)
        for label in self.vertex_labels:
            builder.add_vertex(label=label)
        for a, b, elabel in self.edges:
            builder.add_edge(a, b, label=elabel)
        return builder.build()

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        """Number of pattern vertices."""
        return len(self.vertex_labels)

    @property
    def n_edges(self) -> int:
        """Number of pattern edges."""
        return len(self.edges)

    def neighborhood(self, v: int) -> List[Tuple[int, int]]:
        """``(neighbor, edge_label)`` pairs of pattern vertex ``v``."""
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        """Degree of pattern vertex ``v``."""
        return len(self.adjacency[v])

    def are_adjacent(self, a: int, b: int) -> bool:
        """Whether pattern vertices ``a`` and ``b`` are connected."""
        return any(u == b for u, _ in self.adjacency[a])

    def edge_label_between(self, a: int, b: int) -> Optional[int]:
        """Edge label between ``a`` and ``b`` or None if not adjacent."""
        for u, elabel in self.adjacency[a]:
            if u == b:
                return elabel
        return None

    def is_connected(self) -> bool:
        """Whether the pattern is connected (Fractal mines connected subgraphs)."""
        n = self.n_vertices
        if n == 0:
            return True
        seen = {0}
        stack = [0]
        adj = self.adjacency
        while stack:
            v = stack.pop()
            for u, _ in adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == n

    def is_clique(self) -> bool:
        """Whether the pattern is complete."""
        k = self.n_vertices
        return self.n_edges == k * (k - 1) // 2

    # ------------------------------------------------------------------
    # Canonical identity (ρ)
    # ------------------------------------------------------------------
    def canonical_code(self) -> Tuple:
        """The canonical (minimum) DFS code of this pattern.

        Computed lazily and cached; equal codes <=> isomorphic patterns.
        """
        if self._code is None:
            self._code, self._canonical_map = dfscode.minimum_dfs_code(
                self.vertex_labels, self.edges
            )
        return self._code

    def canonical_vertex_map(self) -> Tuple[int, ...]:
        """Map pattern vertex -> canonical position (discovery index).

        The minimum-image (MNI) support of FSM counts distinct graph
        vertices per *canonical position*, so equality of positions across
        isomorphic subgraphs matters; this mapping provides it.
        """
        if self._canonical_map is None:
            self.canonical_code()
        assert self._canonical_map is not None
        return self._canonical_map

    def vertex_orbits(self) -> Tuple[int, ...]:
        """Automorphism orbit id of every pattern vertex (cached).

        Two vertices share an orbit id iff some automorphism maps one onto
        the other.  Minimum-image (MNI) support counting needs this: the
        domain of a pattern position is shared across its whole orbit,
        because every embedding re-matched through an automorphism places
        each vertex on every position of its orbit.

        Orbit ids are densely renumbered by first appearance in
        *canonical-position* order, not vertex order: the partition of
        canonical positions into orbits is an isomorphism invariant, so
        with this numbering two isomorphic Pattern instances (different
        representatives of one DFS-code class, e.g. interned by separate
        worker processes) agree on which orbit id names which position —
        DomainSupport slots merged across processes line up.
        """
        if self._orbits is None:
            template = self._template
            if template is not None and template.orbits is not None:
                self._orbits = self._pos_orbits = template.orbits
                return self._orbits
            from .isomorphism import automorphisms  # deferred: avoids cycle

            n = self.n_vertices
            orbit_of = list(range(n))
            for perm in automorphisms(self):
                for v in range(n):
                    a, b = orbit_of[v], orbit_of[perm[v]]
                    if a != b:
                        low, high = (a, b) if a < b else (b, a)
                        orbit_of = [low if o == high else o for o in orbit_of]
            # Renumber orbits densely in canonical-position order.
            mapping = self.canonical_vertex_map()
            vertex_at = [0] * n
            for vertex, position in enumerate(mapping):
                vertex_at[position] = vertex
            remap: dict = {}
            for position in range(n):
                o = orbit_of[vertex_at[position]]
                if o not in remap:
                    remap[o] = len(remap)
            self._orbits = tuple(remap[o] for o in orbit_of)
            if template is not None:
                # Vertex p is position p here, and automorphisms see label
                # equality only: these are every sibling pattern's orbits.
                template.orbits = self._pos_orbits = self._orbits
        return self._orbits

    def canonical_position_orbits(self) -> Tuple[int, ...]:
        """Orbit id per *canonical position* (see :meth:`vertex_orbits`).

        Cached: FSM support counting reads this once per enumerated
        subgraph through the shared interned representative.
        """
        if self._pos_orbits is None:
            orbits = self.vertex_orbits()
            if self._pos_orbits is None:  # else the template's, just adopted
                mapping = self.canonical_vertex_map()
                by_position = [0] * self.n_vertices
                for vertex, position in enumerate(mapping):
                    by_position[position] = orbits[vertex]
                self._pos_orbits = tuple(by_position)
        return self._pos_orbits

    def ship_words(self) -> int:
        """Serialized size in words when shipped as an aggregation key.

        A pattern wire format is one word per vertex label plus an
        ``(a, b, elabel)`` triple per edge.
        """
        return len(self.vertex_labels) + 3 * len(self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return self.canonical_code() == other.canonical_code()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.canonical_code())
        return self._hash

    def __lt__(self, other: "Pattern") -> bool:
        return self.canonical_code() < other.canonical_code()

    def __repr__(self) -> str:
        return (
            f"Pattern(n_vertices={self.n_vertices}, n_edges={self.n_edges}, "
            f"labels={self.vertex_labels})"
        )


class PatternInterner:
    """The one table of shared patterns: ``(template, labels) -> Pattern``.

    A subgraph's pattern is named by the template of its rank structure's
    node and the sorted distinct vertex and edge labels the ranks stand
    for.  :meth:`intern` looks that name up, finding the node from
    scratch unless the caller — a ``Subgraph``, by its transitions — has
    reached it already.  Either way one isomorphism class yields one
    ``Pattern`` object per interner, so downstream aggregation hashing
    compares precomputed codes of few objects.

    ``hits`` / ``misses`` count requests that found / created their
    pattern; ``len(interner)`` is the number of distinct patterns held.
    """

    def __init__(self):
        self._patterns: Dict[Tuple, Pattern] = {}
        self.misses = 0
        self.hits = 0

    def intern(
        self,
        vertex_labels: Tuple[int, ...],
        edges: Tuple[Tuple[int, int, int], ...],
        ranked: Optional[
            Tuple[Tuple[int, ...], Tuple[int, ...], dfscode.RankNode]
        ] = None,
    ) -> Tuple[Pattern, Tuple[int, ...]]:
        """The shared pattern of a quotient structure.

        Returns ``(pattern, canonical_map)`` where ``canonical_map[i]`` is
        the canonical position of input vertex ``i``.  The input is a
        *quotient* of a subgraph: vertices renamed ``0..k-1`` in any
        order (the vertex prefixes need not be connected), ``edges``
        normalized — ``a < b`` within each triple, sorted, without
        duplicates (what ``Subgraph.quotient`` emits); they are not
        re-validated here.

        A caller that holds the same structure rank-compressed already
        passes it as ``ranked`` — ``(vdistinct, edistinct, node)``, what
        ``dfscode.rank_node(vertex_labels, edges)`` returns — and the two
        sequences are not read.  The shared ``Pattern`` is numbered by
        canonical position, as :meth:`Pattern.from_canonical_code` builds
        it, so every interner — in whichever process, from whichever
        first-seen subgraph — holds the same representative.
        """
        if ranked is None:
            ranked = dfscode.rank_node(vertex_labels, edges)
        vdistinct, edistinct, node = ranked
        template = node.template
        if template is None:
            template = dfscode.template_of(node)
        key = (template, vdistinct, edistinct)
        pattern = self._patterns.get(key)
        if pattern is None:
            self.misses += 1
            pattern = self._patterns[key] = Pattern.from_canonical_code(
                template.substitute(vdistinct, edistinct)
            )
            pattern._template = template
        else:
            self.hits += 1
        return pattern, node.mapping

    def __len__(self) -> int:
        return len(self._patterns)
