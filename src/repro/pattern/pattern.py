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

    Vertices are ``0..n_vertices-1``.  ``edges`` holds the ``n_edges``
    ``(a, b, edge_label)`` tuples, ``a < b``.  Two patterns compare equal
    iff their canonical DFS codes are equal, i.e. iff they are isomorphic
    as labeled graphs.

    What a pattern *holds* depends on how it was made; everything else is
    a view, filled on first read and kept:

    * an **engine-made** pattern (:meth:`from_flat_code`: an interner
      miss, the wire decoder, unpickling) holds its flat canonical code —
      one tuple of ints, five per DFS-code tuple (``dfscode.FlatCode``) —
      and its hash.  Vertex ``p`` *is* canonical position ``p``, so
      ``vertex_labels`` / ``edges`` are ``dfscode.code_to_edges`` of the
      code and ``canonical_vertex_map()`` is the identity, but none of
      them exists until somebody reads it: a census of 50,000 patterns
      that are only counted builds 50,000 flat tuples and nothing else.
    * a **user-built** pattern (``Pattern(labels, edges)`` and the
      helpers below) holds the structure it was given, in the caller's
      vertex numbering; its flat code and canonical map come from one
      minimum-DFS-code search, run on first hash / compare /
      ``canonical_code()``.

    Identity is the flat code's either way: ``==``, ``hash`` and ``<``
    read it, and flat order *is* nested order (see ``dfscode.FlatCode``),
    so a user-built pattern equals, hashes with and sorts like its
    interned twin.  ``canonical_code()`` is the nested view, one more
    thing built on first read; ``n_vertices`` / ``n_edges`` (hence
    ``ship_words()``) are read off the code when there is no structure to
    ask, and none is built for them.

    The views are unset slots, not ``None``s: a read that finds its slot
    filled is a slot read (28 ns on CPython 3.11 — a class that defines
    ``__getattr__`` forgoes the interpreter's specialised 7 ns read, but
    a property per view would cost 45 ns on every read, filled or not),
    and one that does not lands in :meth:`__getattr__`, which fills it.
    """

    __slots__ = (
        "vertex_labels",
        "edges",
        "n_vertices",
        "n_edges",
        "_flat",
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
        self.n_vertices: int = n
        self.n_edges: int = len(self.edges)

    @classmethod
    def from_flat_code(cls, flat: dfscode.FlatCode) -> "Pattern":
        """The pattern a flat canonical DFS code denotes, numbered by position.

        The one way the engine makes a pattern — on an interner miss, on
        first sight of a code off the wire, on unpickling — and it keeps
        ``flat`` (and its hash) and builds nothing: see the class
        docstring for what the views will say.  The representative is the
        same on every receiver and in every interner.  ``flat`` is
        trusted to be a minimum DFS code; the search is not re-run.
        """
        pattern = cls.__new__(cls)
        pattern._flat = flat
        pattern._hash = hash(flat)
        return pattern

    def __getattr__(self, name: str):
        """Fill the unset slot ``name`` (only a miss gets here) and read it."""
        if name == "vertex_labels" or name == "edges":
            # Only an engine-made pattern lacks structure.
            self.vertex_labels, self.edges = dfscode.code_to_edges(
                self.canonical_code()
            )
        elif name == "n_vertices" or name == "n_edges":
            # Sizes of an engine-made pattern, read off its code (the shuffle
            # and ``DomainSupport`` size keys they never look inside): the
            # last vertex discovered is some row's ``j``, and there is one
            # row per edge but for the 1-vertex code (0, 0, label, -1, -1).
            flat = self._flat
            self.n_vertices = 1 + max(flat[1::5])
            self.n_edges = len(flat) // 5 if flat[1] else 0
        elif name == "_flat" or name == "_hash" or name == "_canonical_map":
            if _is_unset(self, "_flat"):  # user-built: one search fills all
                code, self._canonical_map = dfscode.minimum_dfs_code(
                    self.vertex_labels, self.edges
                )
                self._flat = dfscode.flat_code(code)
                self._hash = hash(self._flat)
            else:  # engine-made: the code and its hash came with it
                self._canonical_map = tuple(range(self.n_vertices))
        elif name == "_code":
            self._code = dfscode.nested_code(self._flat)
        elif name == "_adj":
            adj: List[List[Tuple[int, int]]] = [
                [] for _ in range(len(self.vertex_labels))
            ]
            for a, b, elabel in self.edges:
                adj[a].append((b, elabel))
                adj[b].append((a, elabel))
            for row in adj:
                row.sort()
            self._adj = adj
        elif name in _CACHE_SLOTS:
            setattr(self, name, None)
        else:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        return getattr(self, name)

    def __reduce__(self):
        """Ship what the pattern *is*, never the views it has filled.

        A pattern numbered by canonical position is its flat code — the
        receiver gets an engine-made pattern with no structure until
        read.  Any other numbering is the caller's (``pfractoid(pattern)``
        matches in it), so the constructor arguments go instead.
        """
        if not _is_unset(self, "_flat") and (
            _is_unset(self, "_canonical_map")
            or self._canonical_map == tuple(range(len(self._canonical_map)))
        ):
            return Pattern.from_flat_code, (self._flat,)
        return Pattern, (self.vertex_labels, self.edges)

    @property
    def adjacency(self) -> List[List[Tuple[int, int]]]:
        """Sorted ``(neighbor, edge_label)`` rows per vertex (lazy)."""
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
    def canonical_code(self) -> dfscode.Code:
        """The canonical (minimum) DFS code of this pattern.

        Equal codes <=> isomorphic patterns.  The nested view of the flat
        code the pattern holds, built on first call and kept; to sort or
        group patterns, use the patterns themselves and build nothing.
        """
        return self._code

    def canonical_vertex_map(self) -> Tuple[int, ...]:
        """Map pattern vertex -> canonical position (discovery index).

        The minimum-image (MNI) support of FSM counts distinct graph
        vertices per *canonical position*, so equality of positions across
        isomorphic subgraphs matters; this mapping provides it.
        """
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
        return self.n_vertices + 3 * self.n_edges

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return self._flat == other._flat

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Pattern") -> bool:
        return self._flat < other._flat

    def __repr__(self) -> str:
        return (
            f"Pattern(n_vertices={self.n_vertices}, n_edges={self.n_edges}, "
            f"labels={self.vertex_labels})"
        )


# Slots that read as None until somebody caches something there: orbit ids
# (by vertex, by canonical position); the compiled symmetry-breaking plans
# of ``repro.pattern.symmetry.symmetry_plan``; the shared template of an
# interned pattern (orbits are computed once on it); the shuffle-partition
# hash of ``repro.core.aggregation._stable_hash``.
_CACHE_SLOTS = frozenset(
    ("_orbits", "_pos_orbits", "_symcache", "_template", "_shuffle_hash")
)


def _is_unset(pattern: Pattern, slot: str) -> bool:
    """Whether ``slot`` is still empty, asked without filling it."""
    try:
        object.__getattribute__(pattern, slot)
    except AttributeError:
        return True
    return False


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
        sequences are not read.  A miss is the template's label gather
        (``Template.flat_code``, one C call) wrapped by
        :meth:`Pattern.from_flat_code`: the shared ``Pattern`` is numbered
        by canonical position, so every interner — in whichever process,
        from whichever first-seen subgraph — holds the same
        representative, and it has no structure until somebody reads it.
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
            pattern = self._patterns[key] = Pattern.from_flat_code(
                template.flat_code(vdistinct, edistinct)
            )
            pattern._template = template
        else:
            self.hits += 1
        return pattern, node.mapping

    def __len__(self) -> int:
        return len(self._patterns)
