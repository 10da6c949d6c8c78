"""Subgraph enumerators and extension strategies.

This module implements the paper's three extension strategies (Figure 1)
behind one interface, plus the :class:`SubgraphEnumerator` data structure
of Figure 7 — a prefix with a consumable set of precomputed extensions.
Enumerators are the unit of work sharing: consuming one extension is the
short critical section that makes fine-grained work stealing cheap
(paper §4.2), and a prefix plus one extension is an independent piece of
work that can be shipped to any worker.

Extension strategies:

* :class:`VertexInducedStrategy` — grow vertex-by-vertex; on each addition
  all edges to the current subgraph are included.  Duplicate subgraphs are
  avoided with Arabesque-style canonicality checking.
* :class:`EdgeInducedStrategy` — grow edge-by-edge with the analogous
  canonicality rule over edge ids.
* :class:`PatternInducedStrategy` — grow guided by a query pattern in a
  fixed matching order, with Grochow–Kellis symmetry breaking suppressing
  automorphic duplicates.

Custom enumerators (paper Appendix B) subclass :class:`ExtensionStrategy`
— see ``repro.apps.cliques.KClistStrategy``.

A strategy is walked through one protocol,
:meth:`ExtensionStrategy.children`: it visits the children of a prefix
from one frame, and the three built-in strategies fuse push, yield and
pop there and compute once per prefix what its extensions share — the
point of Figure 7's enumerator.  The sequential executor runs a visitor
to the end in a ``for``; the simulated cluster keeps one per enumerator
frame and resumes it one child per quantum, so thieves can cut the
frame's tail in between.  Only ``rebuild`` (a stolen prefix) pushes
outside a visitor.
"""

from __future__ import annotations

from functools import partial
from itertools import permutations
from typing import (
    AbstractSet,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..graph.graph import Graph
from ..pattern.pattern import Pattern, PatternInterner
from ..pattern.symmetry import symmetry_plan
from ..runtime.metrics import Metrics
from . import intersect
from .intersect import (
    LevelProgram,
    base_positions,
    compile_levels,
    plan_reads,
    shares_candidates,
)
from .levelwalk import MAX_POSITIONS, injective_positions, level_executor
from .planner import plan_matching_order, twin_tail
from .subgraph import Subgraph, SubgraphResult, level_tables, vertex_code

__all__ = [
    "ExtensionStrategy",
    "VertexInducedStrategy",
    "EdgeInducedStrategy",
    "PatternInducedStrategy",
    "SubgraphEnumerator",
    "matching_order",
    "plan_matching_order",
    "PATTERN_KERNELS",
    "DEFAULT_KERNEL",
]

#: Candidate-generation kernels of :class:`PatternInducedStrategy`.
#: ``"legacy"`` scans the first back-neighbor's whole adjacency and tests
#: each candidate; ``"indexed"`` intersects label-partitioned sorted
#: slices; ``"decomposed"`` additionally lets counting-only steps run
#: the core–fringe inclusion–exclusion planner
#: (:mod:`repro.pattern.decompose`) — the step planner intercepts eligible
#: steps, everything else enumerates exactly like ``"indexed"``.  Match
#: *sets* (and counts) are identical under all three.
PATTERN_KERNELS = ("legacy", "indexed", "decomposed")

#: The kernel a pattern-induced fractoid gets when none is named: indexed
#: enumeration in the cost-planned order, orbit counting, and the checked
#: chooser deciding per counting step whether to decompose.
DEFAULT_KERNEL = "decomposed"


#: ``level(matched, used)``: the extensions of the prefix ``matched``
#: (membership set ``used``) at one matching-order position.
_Level = Callable[[Sequence[int], AbstractSet[int]], Sequence[int]]


def _check_kernel(kernel: Optional[str]) -> str:
    """``kernel`` resolved (``None`` is :data:`DEFAULT_KERNEL`) and validated."""
    if kernel is None:
        return DEFAULT_KERNEL
    if kernel not in PATTERN_KERNELS:
        raise ValueError(
            f"kernel must be one of {PATTERN_KERNELS}, got {kernel!r}"
        )
    return kernel


def _check_pattern(pattern: Pattern) -> Pattern:
    if pattern.n_vertices == 0:
        raise ValueError("pattern must have at least one vertex")
    if not pattern.is_connected():
        raise ValueError("pattern-induced fractoids require a connected pattern")
    return pattern


class ExtensionStrategy:
    """How a fractoid extends subgraphs: candidates, push and pop.

    One strategy instance serves a whole execution; it owns the EC
    accounting (``metrics.extension_tests``) for the candidates it probes.
    Subclasses may keep per-level state by overriding :meth:`push` and
    :meth:`pop` (see the KClist enumerator in ``repro.apps.cliques``).
    """

    mode = "abstract"

    def __init__(self, graph: Graph, metrics: Metrics, interner: PatternInterner):
        self.graph = graph
        self.metrics = metrics
        self.interner = interner

    def make_subgraph(self) -> Subgraph:
        """Fresh empty subgraph bound to this strategy's graph/interner."""
        return Subgraph(self.graph, self.interner)

    def extensions(self, subgraph: Subgraph) -> List[int]:
        """Candidate words extending ``subgraph`` (already de-duplicated)."""
        raise NotImplementedError

    def push(self, subgraph: Subgraph, word: int) -> None:
        """Apply one extension word."""
        raise NotImplementedError

    def pop(self, subgraph: Subgraph) -> None:
        """Undo the most recent :meth:`push`."""
        subgraph.pop()

    def children(self, subgraph: Subgraph, words: Iterable[int]) -> Iterator[int]:
        """Visit the children of ``subgraph``: push each word, yield it, pop.

        The walk protocol of the sequential executor — the body of a
        ``for`` over this generator runs with the child in place.  A
        consumer that stops early (``break``, ``close()``, an exception
        in the body) leaves the current child pushed, exactly as a
        ``push`` without its ``pop`` would; :meth:`rebuild` recovers.

        The consumer may also resume the visitor one child at a time
        with ``next()`` and do other work in between, as the simulated
        cluster does per quantum: a resume pops the previous child before
        it pushes the next one, so a child stays pushed until then, and
        the resume that finds ``words`` exhausted pops the last child and
        ends the visitor.  Anything pushed on top meanwhile must be
        popped again before the resume.

        This spelling goes through :meth:`push`/:meth:`pop`, so a custom
        strategy inherits it unchanged.  :class:`VertexInducedStrategy`,
        :class:`EdgeInducedStrategy` and :class:`PatternInducedStrategy`
        override it with a fused body that inlines their own
        ``push``/``pop`` and computes what only the prefix determines once
        per call instead of once per word; the vertex-induced one also
        appends a child's pattern level at push when the prefix's is
        resolved.  The rule that comes with a fused body: it does not
        call ``push``/``pop``, so a subclass of those three that
        overrides either must override ``children`` as well
        (``children = ExtensionStrategy.children`` gets this spelling
        back), and to observe the walk per child wrap ``children`` — a
        ``push`` shadowed on an instance is not seen.
        """
        push = self.push
        pop = self.pop
        for word in words:
            push(subgraph, word)
            yield word
            pop(subgraph)

    def rebuild(self, subgraph: Subgraph, words: Sequence[int]) -> None:
        """Reset ``subgraph`` to the given word prefix (stolen work)."""
        subgraph.clear()
        self.reset_state()
        for word in words:
            self.push(subgraph, word)

    def reset_state(self) -> None:
        """Clear any per-level strategy state (for stateful subclasses)."""

    def word_count_limit(self) -> Optional[int]:
        """Maximum enumeration depth, if the strategy imposes one."""
        return None

    def wants_decomposed_count(self) -> bool:
        """Whether this strategy asked for the decomposed counting kernel.

        Only the pattern-induced strategy with resolved kernel
        ``"decomposed"`` answers ``True``; the step planner
        (:func:`repro.runtime.stepplan.plan_step`) then consults
        :func:`repro.pattern.decompose.plan_step_decomposition` to
        decide whether the step actually runs as a count (and falls back
        to enumeration otherwise, metering ``decomp_fallbacks``).
        """
        return False

    def supports_level_walk(self) -> bool:
        """Whether steps may skip the enumeration for the level walk — an
        orbit-multiplicity count or a listing (pattern-induced
        indexed-family kernels only)."""
        return False

    def kernel_info(self) -> Optional[dict]:
        """Describe the candidate kernel in use, if the strategy has one.

        ``None`` for strategies without a selectable kernel; the
        pattern-induced strategy reports its kernel and matching order
        for execution reports and the CLI.
        """
        return None


def _suffix_max(words: Sequence[int]) -> List[int]:
    """``suffmax[i] = max(words[i:])`` with sentinel ``-1`` past the end."""
    k = len(words)
    suffmax = [0] * (k + 1)
    suffmax[k] = -1
    for i in range(k - 1, -1, -1):
        word = words[i]
        suffmax[i] = word if word > suffmax[i + 1] else suffmax[i + 1]
    return suffmax


class VertexInducedStrategy(ExtensionStrategy):
    """Vertex-by-vertex extension with canonicality checking.

    A neighbor ``u`` of the current subgraph is a canonical extension iff
    ``u`` is greater than the first subgraph vertex and greater than every
    vertex added after ``u``'s first neighbor in the subgraph (otherwise
    the same subgraph would also be generated through an earlier addition
    of ``u``).

    The candidate map (vertex -> first adjacent prefix position,
    ``first_pos`` in the from-scratch kernel) is maintained
    *incrementally* across :meth:`push`/:meth:`pop` instead of being
    rebuilt from the whole prefix on every :meth:`extensions` call.
    Map updates are folded in lazily, one level at a time, the first time
    :meth:`extensions` runs at a depth — so branches killed by a filter
    and leaf-level pushes (which never ask for extensions) pay nothing.
    :meth:`pop` unwinds one fold via its undo record.

    EC metering is unchanged: ``metrics.extension_tests`` still counts
    the *logical* tests of the from-scratch kernel (the summed degree of
    the whole prefix per call), not the reduced number of physical
    probes — the paper's EC metric is a property of the enumeration
    problem, not of this shortcut.

    If the subgraph was rebuilt or mutated behind the strategy's back
    (stolen prefixes arrive via :meth:`rebuild`; tests may drive
    ``Subgraph`` directly), the state resyncs in O(prefix) and the next
    :meth:`extensions` call re-folds from scratch.
    """

    mode = "vertex"

    def __init__(self, graph: Graph, metrics: Metrics, interner: PatternInterner):
        super().__init__(graph, metrics, interner)
        self.reset_state()

    def reset_state(self) -> None:
        self._sub: Optional[Subgraph] = None
        self._ver: int = -1  # subgraph.version the state reflects
        self._degsum: List[int] = []  # cumulative prefix degree per folded level
        self._first: dict = {}  # candidate -> first adjacent prefix position
        self._undo: List[tuple] = []  # one (added, displaced) per folded level
        self._folded_set: set = set()  # words of folded levels

    def _resync(self, subgraph: Subgraph) -> None:
        """Re-anchor on ``subgraph``; the next fold rebuilds the map."""
        self._sub = subgraph
        self._ver = subgraph.version
        self._degsum = []
        self._first = {}
        self._undo = []
        self._folded_set = set()

    def extensions(self, subgraph: Subgraph) -> List[int]:
        words = subgraph.vertices
        graph = self.graph
        if not words:
            return list(graph.vertices())
        if self._sub is not subgraph or self._ver != subgraph.version:
            self._resync(subgraph)
        # Fold levels not yet reflected in the candidate map (replaying
        # exactly the history the from-scratch kernel would scan).  All
        # per-level bookkeeping — including the cumulative degree sums the
        # EC meter reads — happens here, so push/pop stay cheap.
        first = self._first
        undo = self._undo
        folded_set = self._folded_set
        degsum = self._degsum
        for i in range(len(undo), len(words)):
            w = words[i]
            displaced = first.pop(w, None)
            folded_set.add(w)
            added: List[int] = []
            pairs = graph.neighborhood(w)
            for u, _ in pairs:
                if u not in folded_set and u not in first:
                    first[u] = i
                    added.append(u)
            undo.append((added, displaced))
            degsum.append(degsum[-1] + len(pairs) if degsum else len(pairs))
        self.metrics.extension_tests += degsum[-1]
        suffmax = _suffix_max(words)
        first_word = words[0]
        result = [
            u
            for u, pos in first.items()
            if u > first_word and u > suffmax[pos + 1]
        ]
        result.sort()
        self.metrics.extensions_generated += len(result)
        return result

    def push(self, subgraph: Subgraph, word: int) -> None:
        graph = self.graph
        if self._sub is not subgraph or self._ver != subgraph.version:
            self._resync(subgraph)
        in_subgraph = subgraph.vertex_set
        pairs = graph.neighborhood(word)
        incident = [eid for u, eid in pairs if u in in_subgraph]
        self.metrics.adjacency_scans += len(pairs)
        subgraph.push_vertex(word, incident)
        self._ver = subgraph.version

    def pop(self, subgraph: Subgraph) -> None:
        if self._sub is subgraph and self._ver == subgraph.version:
            if self._undo and len(self._undo) == len(subgraph.vertices):
                # The popped level was folded into the map; unwind it.
                added, displaced = self._undo.pop()
                first = self._first
                for u in added:
                    del first[u]
                word = subgraph.vertices[-1]
                self._folded_set.discard(word)
                if displaced is not None:
                    first[word] = displaced
                self._degsum.pop()
            subgraph.pop()
            self._ver = subgraph.version
        else:
            self._sub = None
            subgraph.pop()

    def children(self, subgraph: Subgraph, words: Iterable[int]) -> Iterator[int]:
        """:meth:`push`, yield, :meth:`pop` per word, fused into one frame.

        Hoisted once per prefix: the sync check, the subgraph's lists
        and the prefix vertices' ``neighbor_set`` rows, ascending by
        vertex — a child's incident edges come out in :meth:`push`'s
        order from one lookup per prefix vertex instead of a scan of the
        word's adjacency.  When the prefix's level is resolved (an
        earlier sibling was asked for its pattern) the child's is
        appended right here, from the tables of
        :func:`~repro.core.subgraph.level_tables` and one lookup in the
        prefix node's transitions, and the request that follows finds it
        in place; a transition never taken, or an edge label the prefix
        does not have, appends nothing and resolves lazily as ever.

        Counters, subgraph and strategy state at every ``yield`` and
        after every pop are those of :meth:`push`/:meth:`pop`.  A
        subgraph mutated behind the strategy's back while a child is out
        is popped the slow way and the frame hoists again.

        Inlined here, to be changed in step with their originals:
        ``Subgraph.push_vertex``/``pop`` (as is
        :meth:`PatternInducedStrategy.children`) and the vertex half of
        the transition key of ``Subgraph._levels_to_depth``.
        """
        graph = self.graph
        metrics = self.metrics
        offsets = graph.csr()[0]
        vertices = subgraph.vertices
        edges = subgraph.edges
        vertex_set = subgraph.vertex_set
        edges_per_level = subgraph._edges_per_level
        vertices_per_level = subgraph._vertices_per_level
        levels = subgraph._levels
        stale = True
        for word in words:
            if stale:
                if self._sub is not subgraph or self._ver != subgraph.version:
                    self._resync(subgraph)
                depth = len(edges_per_level)
                k = len(vertices)
                n_edges = len(edges)
                rows = [graph.neighbor_set(v) for v in sorted(vertices)]
                parent = tables = None
                stale = False
            incident = []
            for row in rows:
                if word in row:
                    incident.append(row[word])
            metrics.adjacency_scans += offsets[word + 1] - offsets[word]
            vertices.append(word)
            vertex_set.add(word)
            edges.extend(incident)
            edges_per_level.append(len(incident))
            vertices_per_level.append(1)
            self._ver = subgraph.version = subgraph.version + 1
            if len(levels) > depth > 0:
                if levels[depth] is not parent:
                    parent = levels[depth]
                    tables = level_tables(parent, k, n_edges)
                    if tables is not None:
                        ecodes, child_of = tables
                        vcodes = {}  # label -> vertex_code(vdistinct, label)
                        vdistinct, edistinct, _ = parent[0]
                        vlabels = graph.vertex_labels()
                        src, dst, elabels = graph.edge_arrays()
                        position = {v: i for i, v in enumerate(vertices[:k])}
                if tables is not None:
                    label = vlabels[word]
                    entry = vcodes.get(label)
                    if entry is None:
                        entry = vcodes[label] = vertex_code(vdistinct, label)
                    key = [entry[0]]
                    for eid in incident:
                        code = ecodes.get(elabels[eid])
                        if code is None:
                            break
                        if src[eid] == word:
                            key += (k, position[dst[eid]], code)
                        else:
                            key += (position[src[eid]], k, code)
                    else:
                        child = child_of(tuple(key))
                        if child is not None:
                            levels.append(
                                (
                                    (entry[1], edistinct, child),
                                    k + 1,
                                    n_edges + len(incident),
                                )
                            )
            yield word
            if self._sub is subgraph and self._ver == subgraph.version:
                undo = self._undo
                if undo and len(undo) == k + 1:
                    added, displaced = undo.pop()
                    first = self._first
                    for u in added:
                        del first[u]
                    self._folded_set.discard(word)
                    if displaced is not None:
                        first[word] = displaced
                    self._degsum.pop()
                vertices_per_level.pop()
                if edges_per_level.pop():
                    del edges[n_edges:]
                vertex_set.discard(vertices.pop())
                self._ver = subgraph.version = subgraph.version + 1
                if len(levels) > depth + 1:
                    levels.pop()
            else:
                self._sub = None
                subgraph.pop()
                stale = True


class EdgeInducedStrategy(ExtensionStrategy):
    """Edge-by-edge extension with canonicality checking over edge ids.

    Maintains the candidate map (edge -> first incident prefix position)
    incrementally with the same lazy-fold scheme as
    :class:`VertexInducedStrategy`.  Folding a level scans only the
    neighborhoods of the pushed edge's *newly added* endpoints: an
    endpoint shared with an earlier prefix edge was already scanned when
    it first appeared, and an edge's first position is the minimum over
    its endpoints' first appearances — exactly what the from-scratch
    kernel's (endpoint-deduplicated) scan computes.  EC metering keeps
    the from-scratch semantics: every :meth:`extensions` call counts
    ``sum(deg(u) + deg(v))`` over all prefix edges, the logical test
    count of the reference kernel.
    """

    mode = "edge"

    def __init__(self, graph: Graph, metrics: Metrics, interner: PatternInterner):
        super().__init__(graph, metrics, interner)
        self.reset_state()

    def reset_state(self) -> None:
        self._sub: Optional[Subgraph] = None
        self._ver: int = -1  # subgraph.version the state reflects
        self._testsum: List[int] = []  # cumulative endpoint degrees per folded level
        self._first: dict = {}  # candidate edge -> first incident position
        self._undo: List[tuple] = []  # (added, displaced, new_endpoints)
        self._folded_eset: set = set()  # edges of folded levels
        self._folded_vset: set = set()  # endpoints of folded levels

    def _resync(self, subgraph: Subgraph) -> None:
        """Re-anchor on ``subgraph``; the next fold rebuilds the map."""
        self._sub = subgraph
        self._ver = subgraph.version
        self._testsum = []
        self._first = {}
        self._undo = []
        self._folded_eset = set()
        self._folded_vset = set()

    def extensions(self, subgraph: Subgraph) -> List[int]:
        words = subgraph.edges
        graph = self.graph
        if not words:
            return list(graph.edges())
        if self._sub is not subgraph or self._ver != subgraph.version:
            self._resync(subgraph)
        first = self._first
        undo = self._undo
        folded_eset = self._folded_eset
        folded_vset = self._folded_vset
        testsum = self._testsum
        for i in range(len(undo), len(words)):
            e = words[i]
            u, v = graph.edge(e)
            displaced = first.pop(e, None)
            new_endpoints = [x for x in (u, v) if x not in folded_vset]
            folded_eset.add(e)
            folded_vset.add(u)
            folded_vset.add(v)
            added: List[int] = []
            for x in new_endpoints:
                for _, eid in graph.neighborhood(x):
                    if eid not in folded_eset and eid not in first:
                        first[eid] = i
                        added.append(eid)
            undo.append((added, displaced, new_endpoints))
            delta = graph.degree(u) + graph.degree(v)
            testsum.append(testsum[-1] + delta if testsum else delta)
        self.metrics.extension_tests += testsum[-1]
        suffmax = _suffix_max(words)
        first_word = words[0]
        result = [
            e
            for e, pos in first.items()
            if e > first_word and e > suffmax[pos + 1]
        ]
        result.sort()
        self.metrics.extensions_generated += len(result)
        return result

    def push(self, subgraph: Subgraph, word: int) -> None:
        if self._sub is not subgraph or self._ver != subgraph.version:
            self._resync(subgraph)
        subgraph.push_edge(word)
        self._ver = subgraph.version

    def pop(self, subgraph: Subgraph) -> None:
        if self._sub is subgraph and self._ver == subgraph.version:
            if self._undo and len(self._undo) == len(subgraph.edges):
                added, displaced, new_endpoints = self._undo.pop()
                first = self._first
                for eid in added:
                    del first[eid]
                word = subgraph.edges[-1]
                self._folded_eset.discard(word)
                for x in new_endpoints:
                    self._folded_vset.discard(x)
                if displaced is not None:
                    first[word] = displaced
                self._testsum.pop()
            subgraph.pop()
            self._ver = subgraph.version
        else:
            self._sub = None
            subgraph.pop()

    def children(self, subgraph: Subgraph, words: Iterable[int]) -> Iterator[int]:
        """:meth:`push`, yield, :meth:`pop` per word, fused into one frame.

        Hoisted once per prefix: the sync check, the subgraph's lists
        and the graph's edge columns.  A child's pattern level resolves
        lazily, as after :meth:`push`.

        Counters, subgraph and strategy state at every ``yield`` and
        after every pop are those of :meth:`push`/:meth:`pop`.  A
        subgraph mutated behind the strategy's back while a child is out
        is popped the slow way and the frame hoists again.

        Inlined here, to be changed in step with their originals:
        ``Subgraph.push_edge``/``pop`` and :meth:`pop`'s undo record.
        """
        src, dst, _ = self.graph.edge_arrays()
        vertices = subgraph.vertices
        edges = subgraph.edges
        vertex_set = subgraph.vertex_set
        edges_per_level = subgraph._edges_per_level
        vertices_per_level = subgraph._vertices_per_level
        levels = subgraph._levels
        stale = True
        for word in words:
            if stale:
                if self._sub is not subgraph or self._ver != subgraph.version:
                    self._resync(subgraph)
                depth = len(edges_per_level)
                n_edges = len(edges)
                stale = False
            u = src[word]
            v = dst[word]
            added = 0
            if u not in vertex_set:
                vertices.append(u)
                vertex_set.add(u)
                added = 1
            if v not in vertex_set:
                vertices.append(v)
                vertex_set.add(v)
                added += 1
            edges.append(word)
            edges_per_level.append(1)
            vertices_per_level.append(added)
            self._ver = subgraph.version = subgraph.version + 1
            yield word
            if self._sub is subgraph and self._ver == subgraph.version:
                undo = self._undo
                if undo and len(undo) == n_edges + 1:
                    added_edges, displaced, new_endpoints = undo.pop()
                    first = self._first
                    for eid in added_edges:
                        del first[eid]
                    self._folded_eset.discard(word)
                    for x in new_endpoints:
                        self._folded_vset.discard(x)
                    if displaced is not None:
                        first[word] = displaced
                    self._testsum.pop()
                edges_per_level.pop()
                edges.pop()
                for _ in range(vertices_per_level.pop()):
                    vertex_set.discard(vertices.pop())
                self._ver = subgraph.version = subgraph.version + 1
                if len(levels) > depth + 1:
                    levels.pop()
            else:
                self._sub = None
                subgraph.pop()
                stale = True


def matching_order(pattern: Pattern) -> List[int]:
    """Connected matching order: highest-degree first, then most-connected.

    Starting dense keeps candidate sets small early, the standard heuristic
    for pattern matching by extension.
    """
    n = pattern.n_vertices
    if n == 0:
        return []
    start = max(range(n), key=lambda v: (pattern.degree(v), -v))
    order = [start]
    chosen = {start}
    while len(order) < n:
        best_vertex = -1
        best_rank = (-1, -1)
        for p in range(n):
            if p in chosen:
                continue
            connections = sum(1 for q, _ in pattern.neighborhood(p) if q in chosen)
            rank = (connections, pattern.degree(p))
            if rank > best_rank:
                best_rank = rank
                best_vertex = p
        order.append(best_vertex)
        chosen.add(best_vertex)
    return order


class PatternInducedStrategy(ExtensionStrategy):
    """Pattern-guided extension (subgraph querying, paper Listing 5).

    Pattern vertices are matched in a fixed connected order; position ``p``
    candidates come from the graph neighborhood of the already-matched
    *anchor* (a pattern back-neighbor of the vertex at ``p``), then are
    tested against vertex labels, the remaining pattern back edges, and the
    symmetry-breaking conditions.  Matching is non-induced: extra graph
    edges among matched vertices are permitted, and the subgraph contains
    the images of the pattern's edges.

    Three candidate kernels are available (``kernel``):

    * ``"legacy"`` — scan the whole neighborhood of the *first* back
      neighbor and test every entry (byte-identical to the original
      implementation, except that the back-edge ``edge_between`` probes
      are now metered into ``metrics.back_edge_probes``);
    * ``"indexed"`` — one label-partitioned sorted slice per back edge
      (:meth:`Graph.labeled_adjacency`), symmetry conditions converted to
      a ``[lo, hi)`` range binary-searched on the smallest slice, then
      sorted-set intersection — compiled once per step into one level
      program per position (:func:`repro.core.intersect.compile_levels`),
      a position that reads only part of its prefix sharing each
      candidate set between the sibling prefixes of a root;
    * ``"decomposed"`` — enumerates exactly like ``"indexed"``, but
      additionally marks the strategy as *counting-decomposable*
      (:meth:`wants_decomposed_count`): the step planner intercepts pure
      full-pattern counting steps and runs the core–fringe
      inclusion–exclusion plan of :mod:`repro.pattern.decompose` when
      the cost-based chooser favors it, falling back to this strategy's
      enumeration otherwise.

    All kernels produce the same candidate *set* at every position, in
    ascending vertex order, so with the same matching order the whole
    enumeration stream is identical; under different orders the final
    match sets still agree.  The matching order follows from the kernel:
    ``"legacy"`` — the paper-faithful preset — matches in the static
    degree-greedy order (:func:`matching_order`), the indexed kernels in
    the statistics-based one (:func:`plan_matching_order`).
    ``kernel=None`` means :data:`DEFAULT_KERNEL`.  Kernel, order,
    restriction set and level programs are fixed by the constructor;
    nothing re-plans a strategy afterwards.
    """

    mode = "pattern"

    def __init__(
        self,
        graph: Graph,
        metrics: Metrics,
        interner: PatternInterner,
        pattern: Pattern,
        kernel: Optional[str] = None,
    ):
        super().__init__(graph, metrics, interner)
        self.pattern = _check_pattern(pattern)
        self._kernel = _check_kernel(kernel)
        if self._kernel == "legacy":
            self.order = matching_order(pattern)
            # The legacy order stays statistics-free: restriction-set
            # scoring uses the generic fan-out model, keeping legacy runs
            # independent of graph label statistics.
            score_graph = None
            self._twins: List[int] = []
        else:
            self.order = plan_matching_order(pattern, graph)
            score_graph = graph
            self._twins = twin_tail(pattern)
        plan = symmetry_plan(pattern, self.order, score_graph, self.metrics)
        self._conditions = plan.conditions
        self._sym_heuristic_size = plan.heuristic_size
        self._sym_group_order = plan.group_order
        self._checks = plan.checks
        self._orbit_tail: Optional[Tuple[int, int]] = None
        # back_edges[pos]: (earlier position, edge label) pairs required.
        self._back_edges: List[List[tuple]] = []
        position_of = {p: i for i, p in enumerate(self.order)}
        for pos, p in enumerate(self.order):
            backs = [
                (position_of[q], elabel)
                for q, elabel in pattern.neighborhood(p)
                if position_of[q] < pos
            ]
            backs.sort()
            self._back_edges.append(backs)
        self._labels = [pattern.vertex_labels[p] for p in self.order]
        # bases[pos]: the earlier position whose candidates ``pos`` starts
        # from (intersect.base_positions); the legacy scan reuses nothing.
        if self._kernel == "legacy":
            self._bases: List[Optional[int]] = [None] * len(self.order)
        else:
            self._bases = base_positions(self._labels, self._back_edges, self._checks)
        # The plan's part of a generated walk's cache key (levelwalk.Shape).
        self._shape = (
            tuple(self._labels),
            tuple(tuple(backs) for backs in self._back_edges),
            tuple(tuple(checks) for checks in self._checks),
            tuple(self._bases),
        )
        # The quotient of a matched prefix is fixed by the order (labels
        # and back-edge labels are enforced by the candidate filter):
        # one (Pattern, positions) per depth, learned from the first
        # embedding whose pattern is asked for (see push/pop).
        self._depth_patterns: List[Optional[tuple]] = [None] * len(self.order)
        # The enumeration's match plan (:meth:`extensions`; counts and
        # listings run a generated walk instead, :meth:`_execute`):
        # ``self._levels[pos](matched, used)`` returns the
        # extensions of the prefix ``matched`` (with membership set
        # ``used``) at matching-order position ``pos`` and meters them on
        # ``self.metrics``.  The indexed kernels take their programs from
        # :func:`repro.core.intersect.compile_levels`, so a position that
        # does not read its whole prefix computes each candidate set once
        # per root and hands siblings the stored tuple (read-only — see
        # :meth:`extensions`); the legacy kernel shares nothing.
        self._forget: Optional[Callable[[], None]] = None
        if self._kernel == "legacy":
            self._levels: List[_Level] = [
                partial(self._legacy_level, pos) for pos in range(len(self.order))
            ]
        else:
            programs, self._forget = compile_levels(
                graph, self._labels, self._back_edges, self._checks, self._bases
            )
            self._levels = [self._injective(program) for program in programs]

    def reset_state(self) -> None:
        """Drop the shared levels' entries: a new walk shares nothing
        with the one before it."""
        if self._forget is not None:
            self._forget()

    def _injective(self, candidates: LevelProgram) -> _Level:
        """``candidates`` minus the matched vertices, metered as generated."""

        def level(matched: Sequence[int], used: AbstractSet[int]) -> Sequence[int]:
            metrics = self.metrics
            found = candidates(matched, metrics)
            if not used.isdisjoint(found):
                found = [v for v in found if v not in used]
            metrics.extensions_generated += len(found)
            return found

        return level

    def wants_decomposed_count(self) -> bool:
        return self._kernel == "decomposed"

    def kernel_info(self) -> dict:
        tail, _ = self.orbit_tail()
        sharing = self._kernel != "legacy"
        if sharing:
            injective = injective_positions(
                self._labels, self._back_edges, self._checks
            )
        else:
            # The legacy scan tests every candidate against the whole prefix.
            injective = [range(pos) for pos in range(len(self.order))]
        levels = []
        reads = plan_reads(self._back_edges, self._checks, self._bases)
        for pos in range(len(self.order)):
            levels.append(
                {
                    "reads": list(reads[pos]),
                    "shared": sharing and shares_candidates(pos, reads[pos]),
                    "injective": list(injective[pos]),
                    "base": self._bases[pos],
                }
            )
        return {
            "kernel": self._kernel,
            "order": list(self.order),
            # Per matching-order position: the earlier positions its
            # candidates depend on, whether siblings share them, the
            # earlier positions a candidate is still tested against for
            # injectivity at run time (the rest are proven distinct), and
            # the earlier position whose candidates it starts from.
            "levels": levels,
            "symmetry": {
                "conditions": len(self._conditions),
                "heuristic_conditions": self._sym_heuristic_size,
                "group_order": self._sym_group_order,
                "orbit_tail": tail,
                # The pattern vertices the planner matched last as twins.
                "twins": list(self._twins),
            },
        }

    def supports_level_walk(self) -> bool:
        """Whether steps may run via :meth:`count_matches` /
        :meth:`list_matches`.

        Gated on the indexed-family kernels so ``"legacy"`` stays
        byte-identical to the original implementation, and on the
        pattern size a walk is generated for
        (:data:`~repro.core.levelwalk.MAX_POSITIONS`).
        """
        return self._kernel != "legacy" and len(self.order) <= MAX_POSITIONS

    def orbit_tail(self) -> Tuple[int, int]:
        """``(tau, arrangements)``: the interchangeable matching-order tail.

        ``tau`` is the length of the longest suffix of the matching order
        whose positions are pairwise non-adjacent in the pattern and carry
        identical constraints towards the non-tail prefix: same vertex
        label, same back edges (all into the prefix) and same symmetry
        checks against prefix positions.  Such positions are mutually
        automorphic, so they draw from one shared candidate set ``C`` and
        every ``tau``-subset of ``C`` yields the same number of
        completions: ``arrangements``, the count of rank-orders of the
        tail satisfying its internal symmetry checks.  ``tau >= 1``
        always (a bare leaf level counts its own candidates).  This only
        reads the order: the indexed-family planner puts a pattern's
        twins last (:func:`~repro.core.planner.plan_matching_order`),
        which is where a tail longer than one comes from.
        """
        if self._orbit_tail is not None:
            return self._orbit_tail
        n = len(self.order)
        best = (1, 1) if n else (0, 1)
        for tau in range(2, n):
            cut = n - tau
            base_backs = self._back_edges[cut]
            base_label = self._labels[cut]
            base_checks = sorted(self._checks[cut])
            intra: List[Tuple[int, int, bool]] = []
            ok = True
            for pos in range(cut, n):
                if self._labels[pos] != base_label:
                    ok = False
                    break
                backs = self._back_edges[pos]
                # A back edge into the tail means two tail positions are
                # adjacent — their candidates would not be interchangeable.
                if any(back_pos >= cut for back_pos, _ in backs):
                    ok = False
                    break
                if list(backs) != list(base_backs):
                    ok = False
                    break
                outside = sorted(
                    check for check in self._checks[pos] if check[0] < cut
                )
                if outside != base_checks:
                    ok = False
                    break
                intra.extend(
                    (pos - cut, earlier - cut, greater)
                    for earlier, greater in self._checks[pos]
                    if earlier >= cut
                )
            if not ok:
                continue
            arrangements = 0
            for ranks in permutations(range(tau)):
                if all(
                    (ranks[i] > ranks[j]) == greater
                    for i, j, greater in intra
                ):
                    arrangements += 1
            if arrangements > 0:
                best = (tau, arrangements)
        self._orbit_tail = best
        return best

    def _execute(self, leaf: str, roots: Optional[Sequence[int]]):
        """Run the plan's generated walk (:func:`level_executor`).

        ``roots`` replace the level-0 candidates — vertices with the first
        position's label, as every backend hands them out — and are not
        metered: the caller produced them.  Without them the walk starts
        from the root level, metered as its level program meters it.
        """
        metrics = self.metrics
        graph = self.graph
        if roots is None:
            roots = graph.vertices_with_label(self._labels[0])
            metrics.index_slices += 1
            metrics.extension_tests += len(roots)
            metrics.extensions_generated += len(roots)
        else:
            roots = list(roots)
        tail = self.orbit_tail() if leaf == "count" else None
        walk = level_executor(self._shape + (leaf, tail))
        index, lnbr, _ = graph.labeled_adjacency()
        return walk(
            index, lnbr, graph.n_vertices, graph.neighbor_set, metrics,
            intersect.GALLOP_CROSSOVER, roots, self._first_pattern,
        )

    def _first_pattern(self, words: Sequence[int]) -> Pattern:
        """The pattern of the match ``words``, frozen through a :class:`Subgraph`."""
        subgraph = self.make_subgraph()
        for word in words:
            self.push(subgraph, word)
        return subgraph.freeze().pattern

    def count_matches(self, roots: Optional[Sequence[int]] = None) -> int:
        """Exact match count via orbit-multiplicity bulk counting.

        The generated walk to the orbit tail's cut position; there, every
        ``tau``-subset of the shared candidate set ``C`` contributes
        ``arrangements`` complete embeddings, so the subtree collapses to
        ``C(|C|, tau) * arrangements`` without matching a tail vertex.
        Bulk-credited embeddings land in ``orbit_multiplied_embeddings``.
        A listing step takes the same walk: :meth:`list_matches`.
        """
        total = self._execute("count", roots)
        self.metrics.orbit_multiplied_embeddings += total
        return total

    def list_matches(
        self, roots: Optional[Sequence[int]] = None
    ) -> List[SubgraphResult]:
        """Every match, exactly as a listing step's enumeration emits it.

        The generated walk to the last position: vertices in matching
        order; per position one edge per back edge, in back-edge order,
        looked up as :meth:`children` does; one pattern for all, a
        match's quotient being fixed by the order — the first match's,
        frozen through a :class:`Subgraph`.  Same order, and every
        :class:`Metrics` counter (``results_emitted`` included) moves as
        the enumeration's would.
        """
        return self._execute("list", roots)

    def word_count_limit(self) -> Optional[int]:
        return self.pattern.n_vertices

    def extensions(self, subgraph: Subgraph) -> List[int]:
        pos = len(subgraph.vertices)
        if pos >= self.pattern.n_vertices:
            return []
        found = self._levels[pos](subgraph.vertices, subgraph.vertex_set)
        # A shared level hands out its stored tuple; enumerator frames are
        # stolen from by popping, so each gets a list of its own.
        return list(found) if type(found) is tuple else found

    def _legacy_level(
        self, pos: int, matched: Sequence[int], in_subgraph: AbstractSet[int]
    ) -> List[int]:
        """The original kernel: scan the anchor's neighborhood, test each."""
        graph = self.graph
        metrics = self.metrics
        wanted_label = self._labels[pos]
        checks = self._checks[pos]
        if pos == 0:
            metrics.extension_tests += graph.n_vertices
            result = [
                v for v in graph.vertices() if graph.vertex_label(v) == wanted_label
            ]
            self.metrics.extensions_generated += len(result)
            return result
        backs = self._back_edges[pos]
        anchor_pos, anchor_elabel = backs[0]
        anchor_vertex = matched[anchor_pos]
        result = []
        for v, eid in graph.neighborhood(anchor_vertex):
            metrics.extension_tests += 1
            if v in in_subgraph:
                continue
            if graph.edge_label(eid) != anchor_elabel:
                continue
            if graph.vertex_label(v) != wanted_label:
                continue
            if not self._back_edges_ok(graph, matched, v, backs):
                continue
            if not self._symmetry_ok(matched, v, checks):
                continue
            result.append(v)
        self.metrics.extensions_generated += len(result)
        return result

    def _back_edges_ok(self, graph: Graph, matched, v: int, backs) -> bool:
        metrics = self.metrics
        for back_pos, elabel in backs[1:]:
            metrics.back_edge_probes += 1
            eid = graph.edge_between(v, matched[back_pos])
            if eid < 0 or graph.edge_label(eid) != elabel:
                return False
        return True

    @staticmethod
    def _symmetry_ok(matched, v: int, checks) -> bool:
        for earlier_pos, must_be_greater in checks:
            if must_be_greater:
                if v <= matched[earlier_pos]:
                    return False
            elif v >= matched[earlier_pos]:
                return False
        return True

    def push(self, subgraph: Subgraph, word: int) -> None:
        pos = len(subgraph.vertices)
        graph = self.graph
        matched = subgraph.vertices
        incident = [
            graph.edge_between(word, matched[back_pos])
            for back_pos, _ in self._back_edges[pos]
        ]
        subgraph.push_vertex(word, incident)
        memo = self._depth_patterns[pos]
        if memo is not None:
            subgraph.seed_pattern_memo(memo)

    def pop(self, subgraph: Subgraph) -> None:
        depth = len(subgraph.vertices) - 1
        if self._depth_patterns[depth] is None:
            self._depth_patterns[depth] = subgraph.pattern_memo()
        subgraph.pop()

    def children(self, subgraph: Subgraph, words: Iterable[int]) -> Iterator[int]:
        """:meth:`push`, yield, :meth:`pop` per word, fused into one frame.

        The position, its depth's pattern memo and the ``neighbor_set``
        rows of the matched back neighbours are the prefix's: a child's
        incident edges are one lookup per back edge in rows its siblings
        share, not one ``edge_between`` call building a row per word.
        Nothing is resolved at push here — a matched prefix's pattern is
        fixed by its depth and seeded from ``_depth_patterns``.
        """
        vertices = subgraph.vertices
        edges = subgraph.edges
        vertex_set = subgraph.vertex_set
        edges_per_level = subgraph._edges_per_level
        vertices_per_level = subgraph._vertices_per_level
        levels = subgraph._levels
        depth_patterns = self._depth_patterns
        rows = None
        for word in words:
            if rows is None:
                # Not before the first word: past the pattern's size
                # there are no words and no back edges to look up.
                pos = len(vertices)
                n_edges = len(edges)
                depth = len(edges_per_level)
                neighbor_set = self.graph.neighbor_set
                rows = [
                    neighbor_set(vertices[back_pos])
                    for back_pos, _ in self._back_edges[pos]
                ]
            for row in rows:
                edges.append(row.get(word, -1))
            vertices.append(word)
            vertex_set.add(word)
            edges_per_level.append(len(rows))
            vertices_per_level.append(1)
            subgraph.version = version = subgraph.version + 1
            memo = depth_patterns[pos]
            if memo is not None:
                subgraph._pat_cache = memo
                subgraph._pat_version = version
            yield word
            if memo is None:
                depth_patterns[pos] = subgraph.pattern_memo()
            edges_per_level.pop()
            vertices_per_level.pop()
            del edges[n_edges:]
            vertex_set.discard(vertices.pop())
            subgraph.version += 1
            if len(levels) > depth + 1:
                levels.pop()


class SubgraphEnumerator:
    """Paper Figure 7: a prefix with a consumable extension cursor.

    The simulated cluster keeps one enumerator per enumeration level on
    each core's stack.  Iterating a frame consumes its extensions at the
    cursor — the short critical section of the paper's thread-safe
    ``extend()`` — and idle cores steal from the tail of a victim's
    shallowest non-empty enumerator, which the iteration sees at its
    next word.  A core walks a frame through its ``visitor``: the
    strategy's :meth:`~ExtensionStrategy.children` over the frame,
    created on the frame's first quantum and resumed once per quantum
    after that — a resume pops the previous child and pushes the next,
    so a leaf child stays pushed until its frame is resumed again.
    """

    __slots__ = (
        "prefix_words",
        "extensions",
        "cursor",
        "primitive_index",
        "stealable",
        "visitor",
    )

    def __init__(
        self,
        prefix_words: Sequence[int],
        extensions: List[int],
        primitive_index: int = 0,
        stealable: bool = True,
    ):
        self.prefix_words = tuple(prefix_words)
        self.extensions = extensions
        self.cursor = 0
        self.primitive_index = primitive_index
        # A frame holding work already claimed by a thief is not re-shared
        # until it spawns deeper enumerators (which are stealable again);
        # otherwise idle cores could bounce a single extension among
        # themselves forever without anybody processing it.
        self.stealable = stealable
        self.visitor: Optional[Iterator[int]] = None

    def __iter__(self) -> Iterator[int]:
        """Consume the extensions at the cursor, one per step, until a
        step finds none left (thieves may have cut the tail meanwhile)."""
        extensions = self.extensions
        while self.cursor < len(extensions):
            word = extensions[self.cursor]
            self.cursor += 1
            yield word

    def has_next(self) -> bool:
        """Whether unconsumed extensions remain."""
        return self.cursor < len(self.extensions)

    def remaining(self) -> int:
        """Number of unconsumed extensions."""
        return len(self.extensions) - self.cursor

    def steal_chunk(self, count: int) -> List[int]:
        """Steal up to ``count`` extensions from the tail, in original order.

        The one-at-a-time policy is the ``count == 1`` special case.  The
        victim keeps its cursor and the head of the list; the tail slice is
        handed to the thief untouched, preserving enumeration order of each
        individual extension no matter how the work was partitioned.
        """
        available = len(self.extensions) - self.cursor
        count = min(count, available)
        if count <= 0:
            return []
        words = self.extensions[-count:]
        del self.extensions[-count:]
        return words

    def __repr__(self) -> str:
        return (
            f"SubgraphEnumerator(prefix={list(self.prefix_words)}, "
            f"remaining={self.remaining()})"
        )
