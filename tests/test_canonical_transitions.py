"""Property test: transition-derived canonicalization ≡ from scratch.

``Subgraph`` no longer rebuilds, hashes and canonicalizes its quotient per
pattern request: it walks the rank-node table of ``repro.pattern.dfscode``
one transition per push.  This file drives vertex- and edge-induced DFS
walks over random labeled graphs and requires, at every node, that the
transition path returns exactly what the from-scratch path returns — the
code and positions of ``minimum_dfs_code(*subgraph.quotient())``, checked
against the raw branch-and-bound search so the node table never vouches
for itself — and the *same* ``Pattern`` object however the class was
reached.  ``tests/test_dfscode.py`` stays the reference for the search.

The strategies' child visitor (``ExtensionStrategy.children``) resolves a
child's level *at push* once its prefix's is resolved, so the same walks
also run with siblings visited through ``children()``: every level found
in place at a node must be the very level the lazy path resolves for that
state.  The examples at the end pin when a level is resolved at push and
when it must not be.
"""

from __future__ import annotations

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from repro.core.enumerator import EdgeInducedStrategy, VertexInducedStrategy
from repro.core.subgraph import Subgraph
from repro.graph.graph import GraphBuilder
from repro.pattern import dfscode
from repro.pattern.pattern import PatternInterner
from repro.runtime.metrics import Metrics

MAX_DEPTH = 5
STRATEGIES = {"vertex": VertexInducedStrategy, "edge": EdgeInducedStrategy}


@st.composite
def labeled_graph_specs(draw):
    """``(vertex labels, (u, v, edge label) triples)`` of a connected graph
    over >= 3 vertex labels and >= 2 edge labels."""
    n = draw(st.integers(min_value=2, max_value=7))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n_vlabels = rng.randint(3, 5)
    n_elabels = rng.randint(2, 3)
    labels = [rng.randrange(n_vlabels) for _ in range(n)]
    pairs = {(rng.randrange(v), v) for v in range(1, n)}  # spanning tree
    for u in range(n):
        for v in range(u + 1, n):
            if len(pairs) < 10 and rng.random() < 0.3:
                pairs.add((u, v))
    edges = [(u, v, rng.randrange(n_elabels)) for u, v in sorted(pairs)]
    rng.shuffle(edges)
    return tuple(labels), tuple(edges)


def _build(spec):
    labels, edges = spec
    builder = GraphBuilder()
    for label in labels:
        builder.add_vertex(label=label)
    for u, v, elabel in edges:
        builder.add_edge(u, v, label=elabel)
    return builder.build()


def _shuffled_quotient(graph, subgraph, rng):
    """The subgraph's quotient with its vertices in a random order, so a
    vertex prefix is usually disconnected (the baselines' ESU order)."""
    order = list(subgraph.vertices)
    rng.shuffle(order)
    qedges = []
    for eid in subgraph.edges:
        u, v = graph.edge(eid)
        a, b = sorted((order.index(u), order.index(v)))
        qedges.append((a, b, graph.edge_label(eid)))
    labels = tuple(graph.vertex_label(v) for v in order)
    return labels, tuple(sorted(qedges))


class _Checker:
    """Everything required of one DFS node, against the raw search."""

    def __init__(self, graph, mode, interner, rng):
        self.graph = graph
        self.mode = mode
        self.interner = interner
        self.rng = rng
        # A second core's strategy and subgraph: receives every prefix as
        # stolen work, reusing one Subgraph across rebuilds.
        self.thief = STRATEGIES[mode](graph, Metrics(), interner)
        self.thief_subgraph = self.thief.make_subgraph()
        self.nodes = 0
        self.resolved_at_push = 0

    def at_push(self, subgraph):
        """A level the child visitor appended is the one the lazy path —
        ``push`` by ``push`` on another core, then one request — resolves."""
        assert len(subgraph._levels) == subgraph.depth + 1
        words = subgraph.vertices if self.mode == "vertex" else subgraph.edges
        self.thief.rebuild(self.thief_subgraph, list(words))
        assert len(self.thief_subgraph._levels) == 1
        assert self.thief_subgraph._levels_to_depth() == subgraph._levels[-1]
        self.resolved_at_push += 1

    def __call__(self, subgraph, seed_memo):
        graph, interner = self.graph, self.interner
        quotient = subgraph.quotient()
        raw_code, raw_positions = dfscode._minimum_dfs_code_search(*quotient)
        assert dfscode.minimum_dfs_code(*quotient) == (raw_code, raw_positions)

        if seed_memo:
            # What a strategy that knows its quotient does (pattern-induced
            # matching): the seeded level itself is never resolved, yet its
            # descendants must still derive from it.
            memo = interner.intern(*quotient)
            subgraph.seed_pattern_memo(memo)
            assert subgraph.pattern_with_positions() is memo
        pattern, positions = subgraph.pattern_with_positions()
        assert pattern.canonical_code() == raw_code
        assert positions == raw_positions
        assert subgraph.pattern() is pattern
        # The representative is the code's own structure, by position.
        assert (pattern.vertex_labels, pattern.edges) == dfscode.code_to_edges(
            raw_code
        )
        assert pattern.canonical_vertex_map() == tuple(range(len(positions)))

        # Word lists filled without push: no levels, same object.
        filled = Subgraph(graph, interner)
        filled.vertices.extend(subgraph.vertices)
        filled.edges.extend(subgraph.edges)
        assert filled.pattern_with_positions() == (pattern, positions)
        assert filled.pattern() is pattern

        # The prefix as stolen work on another core.
        words = subgraph.vertices if self.mode == "vertex" else subgraph.edges
        self.thief.rebuild(self.thief_subgraph, list(words))
        stolen, stolen_positions = self.thief_subgraph.pattern_with_positions()
        assert stolen is pattern
        assert stolen_positions == positions

        # intern() on an order whose prefixes are disconnected.
        shuffled = _shuffled_quotient(graph, subgraph, self.rng)
        other, other_positions = interner.intern(*shuffled)
        assert other is pattern
        assert (raw_code, other_positions) == dfscode._minimum_dfs_code_search(
            *shuffled
        )
        self.nodes += 1


def _walk(strategy, subgraph, depth, check, rng, check_inner, via_children):
    """DFS over every canonical extension; siblings exercise pop-then-push
    of a different word on top of already-resolved levels."""
    extensions = strategy.extensions(subgraph) if depth < MAX_DEPTH else []
    if depth and (check_inner or not extensions):
        check(subgraph, seed_memo=rng.random() < 0.2)
    if via_children:
        for _ in strategy.children(subgraph, extensions):
            # No resolved level outlives its push.
            assert len(subgraph._levels) <= depth + 2
            if len(subgraph._levels) == depth + 2:
                check.at_push(subgraph)
            _walk(strategy, subgraph, depth + 1, check, rng, check_inner, True)
        return
    for word in extensions:
        strategy.push(subgraph, word)
        _walk(strategy, subgraph, depth + 1, check, rng, check_inner, False)
        strategy.pop(subgraph)


# A path whose last edge brings an unseen, *smaller* edge label and whose
# last vertex an unseen smaller vertex label: both shift the ranks of
# everything resolved so far.
_RANK_SHIFT = ((5, 6, 7, 1), ((0, 1, 4), (1, 2, 4), (2, 3, 2)))


@settings(max_examples=60, deadline=None)
@given(
    spec=labeled_graph_specs(),
    mode=st.sampled_from(sorted(STRATEGIES)),
    check_inner=st.booleans(),
    cold=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
    via_children=st.booleans(),
)
@example(
    spec=_RANK_SHIFT, mode="vertex", check_inner=True, cold=True, seed=0,
    via_children=False,
)
@example(
    spec=_RANK_SHIFT, mode="edge", check_inner=False, cold=True, seed=0,
    via_children=False,
)
@example(
    spec=_RANK_SHIFT, mode="vertex", check_inner=True, cold=False, seed=0,
    via_children=True,
)
@example(
    spec=_RANK_SHIFT, mode="edge", check_inner=True, cold=False, seed=0,
    via_children=True,
)
def test_transition_derived_equals_from_scratch(
    spec, mode, check_inner, cold, seed, via_children
):
    if cold:
        dfscode.clear_code_cache()
    graph = _build(spec)
    rng = random.Random(seed)
    interner = PatternInterner()
    strategy = STRATEGIES[mode](graph, Metrics(), interner)
    check = _Checker(graph, mode, interner, rng)
    # check_inner=False asks at the leaves only, so inner levels resolve
    # lazily, several at a time, from whatever a sibling left behind.
    subgraph = strategy.make_subgraph()
    _walk(strategy, subgraph, 0, check, rng, check_inner, via_children)
    assert check.nodes > 0
    assert subgraph._levels == [subgraph._levels[0]]
    # One table: every request above found or created its class there.
    assert len(interner) == len(
        {pattern.canonical_code() for pattern in interner._patterns.values()}
    )


@settings(max_examples=60, deadline=None)
@given(
    spec=labeled_graph_specs(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_levels_survive_pushes_and_pops_in_any_order(spec, seed):
    # Unlike a DFS, this walk pops and pushes in any order between two
    # requests, clears, answers some requests from a seeded memo (which
    # resolves no level) and has the version bumped from outside: no
    # resolved level may outlive the push it stands for.
    graph = _build(spec)
    rng = random.Random(seed)
    subgraph = Subgraph(graph, PatternInterner())
    for _ in range(60):
        op = rng.random()
        if subgraph.vertices:
            frontier = sorted(
                {
                    eid
                    for v in subgraph.vertices
                    for _, eid in graph.neighborhood(v)
                    if eid not in subgraph.edge_set
                }
            )
        else:
            frontier = list(graph.edges())
        if op < 0.4 and frontier and subgraph.depth < MAX_DEPTH:
            subgraph.push_edge(rng.choice(frontier))
        elif op < 0.65 and subgraph.depth:
            subgraph.pop()
        elif op < 0.7:
            subgraph.clear()
        elif op < 0.75:
            subgraph.version += 1
        elif subgraph.depth:
            raw = dfscode._minimum_dfs_code_search(*subgraph.quotient())
            if op < 0.8:
                subgraph.seed_pattern_memo(
                    subgraph.interner.intern(*subgraph.quotient())
                )
            pattern, positions = subgraph.pattern_with_positions()
            assert (pattern.canonical_code(), positions) == raw


def test_empty_subgraph_has_no_pattern(triangle_graph):
    subgraph = Subgraph(triangle_graph)
    with pytest.raises(ValueError, match="empty"):
        subgraph.pattern()
    with pytest.raises(ValueError, match="empty"):
        PatternInterner().intern((), ())


def test_disconnected_prefix_is_walked_through_but_not_canonicalized():
    # Two disjoint edges of a 4-path, then the edge joining them: the
    # middle level is disconnected, so only asking *there* fails.
    builder = GraphBuilder()
    for label in (1, 2, 3, 4):
        builder.add_vertex(label=label)
    first = builder.add_edge(0, 1)
    joining = builder.add_edge(1, 2)
    last = builder.add_edge(2, 3)
    graph = builder.build()
    subgraph = Subgraph(graph)
    subgraph.push_edge(first)
    subgraph.push_edge(last)
    subgraph.push_edge(joining)
    pattern, positions = subgraph.pattern_with_positions()
    assert (pattern.canonical_code(), positions) == dfscode.minimum_dfs_code(
        *subgraph.quotient()
    )
    subgraph.pop()
    with pytest.raises(ValueError, match="connected"):
        subgraph.pattern()


def test_clear_code_cache_drops_nodes_transitions_and_templates(triangle_graph):
    subgraph = Subgraph(triangle_graph)
    subgraph.push_vertex(0, [])
    subgraph.pattern()
    assert dfscode.ROOT.children and dfscode._NODES and dfscode._TEMPLATES
    dfscode.clear_code_cache()
    assert not dfscode.ROOT.children
    assert not dfscode._NODES
    assert not dfscode._TEMPLATES


def test_level_held_across_a_clear_still_resolves(triangle_graph):
    # Asking at depth 2 resolves depth 1 without searching it; the table
    # is dropped; the subgraph pops back onto the node it still holds.
    dfscode.clear_code_cache()
    graph = triangle_graph
    subgraph = Subgraph(graph)
    subgraph.push_vertex(0, [])
    subgraph.push_vertex(1, [graph.edge_between(0, 1)])
    subgraph.pattern()
    held = subgraph._levels[1][0][2]
    assert held.template is None
    dfscode.clear_code_cache()
    subgraph.pop()
    pattern, positions = subgraph.pattern_with_positions()
    assert held.template is not None
    assert (pattern.canonical_code(), positions) == dfscode.minimum_dfs_code(
        *subgraph.quotient()
    )


# ----------------------------------------------------------------------
# Levels resolved at push by the child visitor
# ----------------------------------------------------------------------


def _visit_children(graph, prefix, between=None):
    """Rebuild ``prefix`` and visit its children through ``children()``,
    asking every child for its pattern.  Per child: its word, whether its
    level was in place before the request, the level after it, and the
    request checked against the raw search."""
    interner = PatternInterner()
    strategy = VertexInducedStrategy(graph, Metrics(), interner)
    subgraph = strategy.make_subgraph()
    strategy.rebuild(subgraph, prefix)
    depth = subgraph.depth
    seen = []
    for word in strategy.children(subgraph, strategy.extensions(subgraph)):
        at_push = len(subgraph._levels) == depth + 2
        pattern, positions = subgraph.pattern_with_positions()
        assert (
            pattern.canonical_code(),
            positions,
        ) == dfscode._minimum_dfs_code_search(*subgraph.quotient())
        assert len(subgraph._levels) == depth + 2
        seen.append((word, at_push, subgraph._levels[-1]))
        if between is not None:
            between()
    # No resolved level outlives its push: the prefix's own is the last.
    assert len(subgraph._levels) == depth + 1
    return seen, interner


def test_new_smaller_vertex_label_arriving_last_is_resolved_at_push():
    # Prefix 0-1 with labels (5, 6); its children 2 (label 7) and 3 (label
    # 1: unseen and smaller, so every rank resolved so far shifts).
    graph = _build(((5, 6, 7, 1), ((0, 1, 4), (1, 2, 4), (1, 3, 4))))
    dfscode.clear_code_cache()
    cold, _ = _visit_children(graph, [0, 1])
    # Cold table: the first child resolves its prefix lazily; the second
    # finds the prefix resolved but its transition was never taken.
    assert [(word, at_push) for word, at_push, _ in cold] == [
        (2, False),
        (3, False),
    ]
    warm, _ = _visit_children(graph, [0, 1])
    assert [(word, at_push) for word, at_push, _ in warm] == [
        (2, False),  # nobody asked under this prefix yet
        (3, True),
    ]
    # The level found in place is the one the lazy path had resolved.
    assert warm[1][2] == cold[1][2]
    assert warm[1][2][0][0] == (1, 5, 6)


def test_new_edge_label_among_the_incident_edges_falls_back():
    # Child 3 arrives over an edge label (2) its prefix does not have: a
    # new edge label shifts ranks within the push, so even a warm table
    # leaves it to the lazy path.
    graph = _build(((5, 6, 7, 7), ((0, 1, 4), (1, 2, 4), (1, 3, 2))))
    dfscode.clear_code_cache()
    _visit_children(graph, [0, 1])
    warm, _ = _visit_children(graph, [0, 1])
    assert [(word, at_push) for word, at_push, _ in warm] == [
        (2, False),
        (3, False),
    ]
    assert warm[1][2][0][1] == (2, 4)
    # The same child over a label the prefix has is resolved at push.
    graph = _build(((5, 6, 7, 7), ((0, 1, 4), (1, 2, 4), (1, 3, 4))))
    _visit_children(graph, [0, 1])
    warm, _ = _visit_children(graph, [0, 1])
    assert [at_push for _, at_push, _ in warm] == [False, True]


def test_table_cleared_between_siblings():
    # The subgraph keeps walking off the nodes it holds; every request
    # after the clear is still checked against the raw search.
    graph = _build(
        ((5, 6, 7, 1, 7), ((0, 1, 4), (1, 2, 4), (1, 3, 4), (0, 4, 4), (2, 4, 4)))
    )
    dfscode.clear_code_cache()
    _visit_children(graph, [0, 1])
    seen, _ = _visit_children(graph, [0, 1], between=dfscode.clear_code_cache)
    assert [word for word, _, _ in seen] == [2, 3, 4]


def test_prefix_never_asked_resolves_nothing():
    # A filter-only walk (the clique filter of Listing 2) never asks for a
    # pattern: no level is resolved at push and nobody calls intern().
    graph = _build(
        (
            (1, 2, 3, 1, 2),
            ((0, 1, 0), (0, 2, 0), (1, 2, 0), (1, 3, 0), (2, 3, 0), (3, 4, 0)),
        )
    )
    interner = PatternInterner()
    strategy = VertexInducedStrategy(graph, Metrics(), interner)
    subgraph = strategy.make_subgraph()
    cliques = []

    def walk(depth):
        for _ in strategy.children(subgraph, strategy.extensions(subgraph)):
            assert len(subgraph._levels) == 1
            if subgraph.edges_added_last() != subgraph.n_vertices - 1:
                continue
            if depth == 2:
                cliques.append(tuple(subgraph.vertices))
            else:
                walk(depth + 1)

    walk(0)
    assert cliques == [(0, 1, 2), (1, 2, 3)]
    assert interner.hits + interner.misses == 0
