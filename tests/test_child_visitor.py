"""The child visitor ≡ push / yield / pop.

``ExtensionStrategy.children`` is how the sequential executor and the
simulated cluster visit the children of a prefix; the vertex-, edge- and
pattern-induced strategies fuse ``push``, the yield and ``pop`` into one
frame that hoists what only the prefix determines.  This
file walks the same DFS twice — through ``children()`` and through the
test-local reference below, which is the loop the executor used to spell
out — and requires the same subgraph state and the same ``Pattern``
objects at every node, and the same value in *every* ``Metrics`` counter
at the end.  The rest pins the protocol's edges: no words, a consumer
that stops early, a subgraph mutated behind the strategy's back, and
subclasses that bring their own ``push``/``pop``.
"""

from __future__ import annotations

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.apps.cliques import KClistStrategy
from repro.apps.sampling import SamplingStrategy
from repro.core.enumerator import (
    EdgeInducedStrategy,
    ExtensionStrategy,
    PatternInducedStrategy,
    VertexInducedStrategy,
)
from repro.graph import erdos_renyi_graph
from repro.graph.graph import GraphBuilder
from repro.pattern.pattern import Pattern, PatternInterner
from repro.runtime.metrics import Metrics

MAX_DEPTH = 4


def reference_children(strategy, subgraph, words):
    """The loop ``children()`` replaces, word for word."""
    for word in words:
        strategy.push(subgraph, word)
        yield word
        strategy.pop(subgraph)


def fused_children(strategy, subgraph, words):
    return strategy.children(subgraph, words)


@st.composite
def labeled_graphs(draw):
    """A connected graph with a few vertex and edge labels."""
    n = draw(st.integers(min_value=3, max_value=9))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n_vlabels = rng.randint(1, 4)
    n_elabels = rng.randint(1, 3)
    builder = GraphBuilder()
    for _ in range(n):
        builder.add_vertex(label=rng.randrange(n_vlabels))
    pairs = {(rng.randrange(v), v) for v in range(1, n)}  # spanning tree
    for u in range(n):
        for v in range(u + 1, n):
            if len(pairs) < 14 and rng.random() < 0.35:
                pairs.add((u, v))
    edges = sorted(pairs)
    rng.shuffle(edges)
    for u, v in edges:
        builder.add_edge(u, v, label=rng.randrange(n_elabels))
    return builder.build()


def _some_pattern(graph) -> Pattern:
    """The pattern of the first connected 3-vertex subgraph, so a
    pattern-induced walk of ``graph`` has at least one match."""
    strategy = VertexInducedStrategy(graph, Metrics(), PatternInterner())
    subgraph = strategy.make_subgraph()
    while subgraph.depth < 3:
        strategy.push(subgraph, strategy.extensions(subgraph)[0])
    return subgraph.pattern()


def _sampled_half(graph, metrics, interner):
    return SamplingStrategy(graph, metrics, interner, probability=0.5, seed=7)


def _factories(graph):
    pattern = _some_pattern(graph)
    return {
        "vertex": VertexInducedStrategy,
        "edge": EdgeInducedStrategy,
        "pattern-legacy": lambda g, m, i: PatternInducedStrategy(
            g, m, i, pattern, kernel="legacy"
        ),
        "pattern-indexed": lambda g, m, i: PatternInducedStrategy(
            g, m, i, pattern, kernel="indexed"
        ),
        "kclist": KClistStrategy,
        "sampling": _sampled_half,
    }


KINDS = ("vertex", "edge", "pattern-legacy", "pattern-indexed", "kclist", "sampling")


def _trace(strategy, visit, ask, seed):
    """Every node of the DFS as seen from inside the visit, in order."""
    rng = random.Random(seed)
    subgraph = strategy.make_subgraph()
    strategy.reset_state()
    nodes = []

    def walk(depth):
        words = strategy.extensions(subgraph) if depth < MAX_DEPTH else []
        for word in visit(strategy, subgraph, words):
            # No resolved level outlives its push.
            assert len(subgraph._levels) <= subgraph.depth + 1
            asked = subgraph.pattern_with_positions() if rng.random() < ask else None
            nodes.append(
                (
                    word,
                    tuple(subgraph.vertices),
                    tuple(subgraph.edges),
                    frozenset(subgraph.vertex_set),
                    subgraph.depth,
                    subgraph.edges_added_last(),
                    asked,
                )
            )
            walk(depth + 1)

    walk(0)
    assert subgraph.depth == 0 and not subgraph.vertices and not subgraph.edges
    assert len(subgraph._levels) == 1
    return nodes


@settings(max_examples=120, deadline=None)
@given(
    graph=labeled_graphs(),
    kind=st.sampled_from(KINDS),
    ask=st.sampled_from((0.0, 0.4, 1.0)),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_children_equals_push_yield_pop(graph, kind, ask, seed):
    factory = _factories(graph)[kind]
    interner = PatternInterner()  # shared: the same Pattern *objects*
    traces = []
    snapshots = []
    for visit in (reference_children, fused_children):
        metrics = Metrics()
        strategy = factory(graph, metrics, interner)
        # The walk's counters: planning in the constructor is the same
        # code on both sides, but the second side hits its plan cache.
        planned = metrics.snapshot()
        traces.append(_trace(strategy, visit, ask, seed))
        snapshots.append(
            {name: value - planned[name] for name, value in metrics.snapshot().items()}
        )
    reference, fused = traces
    assert len(reference) == len(fused) > 0
    for expected, got in zip(reference, fused):
        assert got[:6] == expected[:6]
        if expected[6] is None:
            assert got[6] is None
        else:
            assert got[6][0] is expected[6][0]
            assert got[6][1] == expected[6][1]
    assert snapshots[1] == snapshots[0]


# ----------------------------------------------------------------------
# Edge cases of the protocol
# ----------------------------------------------------------------------

@pytest.fixture
def graph():
    return erdos_renyi_graph(14, 30, n_labels=2, seed=5)


def _at_depth(graph, kind, depth):
    """A strategy and its subgraph ``depth`` words deep, each the first
    extension that leaves at least two of its own."""
    metrics = Metrics()
    strategy = _factories(graph)[kind](graph, metrics, PatternInterner())
    subgraph = strategy.make_subgraph()
    words = []
    for _ in range(depth):
        for word in strategy.extensions(subgraph):
            strategy.push(subgraph, word)
            if len(strategy.extensions(subgraph)) >= 2:
                words.append(word)
                break
            strategy.pop(subgraph)
        else:
            raise AssertionError("fixture graph too sparse for this strategy")
    return strategy, subgraph, words


def _state(strategy, subgraph):
    return (
        list(subgraph.vertices),
        list(subgraph.edges),
        set(subgraph.vertex_set),
        subgraph.depth,
        subgraph.version,
        list(subgraph._levels),
        strategy.metrics.snapshot(),
    )


@pytest.mark.parametrize("kind", KINDS)
def test_no_words_touches_nothing(graph, kind):
    strategy, subgraph, _ = _at_depth(graph, kind, 1)
    subgraph.version += 1  # out of sync: even a resync would show
    before = _state(strategy, subgraph)
    synced = getattr(strategy, "_sub", None), getattr(strategy, "_ver", None)
    assert list(strategy.children(subgraph, [])) == []
    assert list(strategy.children(subgraph, iter(()))) == []
    assert _state(strategy, subgraph) == before
    assert (getattr(strategy, "_sub", None), getattr(strategy, "_ver", None)) == synced


@pytest.mark.parametrize("kernel", ("legacy", "indexed"))
def test_past_the_patterns_size_there_is_nothing_to_look_up(graph, kernel):
    pattern = _some_pattern(graph)
    strategy = PatternInducedStrategy(
        graph, Metrics(), PatternInterner(), pattern, kernel=kernel
    )
    subgraph = strategy.make_subgraph()
    while subgraph.depth < pattern.n_vertices:
        strategy.push(subgraph, strategy.extensions(subgraph)[0])
    # One position past the order: no back edges to index.
    assert strategy.extensions(subgraph) == []
    assert list(strategy.children(subgraph, strategy.extensions(subgraph))) == []
    assert subgraph.depth == pattern.n_vertices


@pytest.mark.parametrize("how", ("break", "close", "raise"))
@pytest.mark.parametrize("kind", KINDS)
def test_stopping_early_leaves_the_child_pushed(graph, kind, how):
    strategy, subgraph, words = _at_depth(graph, kind, 1)
    extensions = strategy.extensions(subgraph)
    assert len(extensions) >= 2

    # What the spelled-out loop leaves behind when its body stops at the
    # second child.
    expected_strategy, expected, _ = _at_depth(graph, kind, 1)
    expected_strategy.extensions(expected)
    expected_strategy.push(expected, extensions[0])
    expected_strategy.pop(expected)
    expected_strategy.push(expected, extensions[1])

    visitor = strategy.children(subgraph, extensions)
    if how == "break":
        for word in visitor:
            if word == extensions[1]:
                break
    elif how == "close":
        next(visitor)
        next(visitor)
        visitor.close()
    else:
        with pytest.raises(RuntimeError, match="callback"):
            for word in visitor:
                if word == extensions[1]:
                    raise RuntimeError("callback failed")
    del visitor
    assert _state(strategy, subgraph) == _state(expected_strategy, expected)
    assert subgraph.depth == 2

    strategy.rebuild(subgraph, words)
    expected_strategy.rebuild(expected, words)
    assert subgraph.depth == 1
    assert strategy.extensions(subgraph) == extensions
    assert expected_strategy.extensions(expected) == extensions
    assert strategy.metrics.snapshot() == expected_strategy.metrics.snapshot()


def test_subgraph_mutated_behind_the_strategys_back_resyncs(graph):
    def walk(visit):
        strategy, subgraph, _ = _at_depth(graph, "vertex", 1)
        seen = []
        for word in visit(strategy, subgraph, strategy.extensions(subgraph)):
            deeper = strategy.extensions(subgraph)  # folds this level
            # A test driving the Subgraph directly: same words on top,
            # but the version the strategy's state reflects is gone.
            subgraph.push_vertex(deeper[0], [])
            subgraph.pop()
            asked = subgraph.pattern_with_positions()
            seen.append((word, deeper, tuple(subgraph.edges), asked[1]))
        seen.append(strategy.extensions(subgraph))
        return seen, _state(strategy, subgraph)

    assert walk(fused_children) == walk(reference_children)


class _Counting:
    """Mixed in ahead of a built-in strategy: its own push and pop."""

    pushes = pops = 0

    def push(self, subgraph, word):
        self.pushes += 1
        super().push(subgraph, word)

    def pop(self, subgraph):
        self.pops += 1
        super().pop(subgraph)


class _CountingVertex(_Counting, VertexInducedStrategy):
    # The rule: a fused visitor does not call push/pop, so a subclass
    # that overrides them brings the visitor that does.
    children = ExtensionStrategy.children


class _CountingPattern(_Counting, PatternInducedStrategy):
    children = ExtensionStrategy.children


class _CountingEdge(_Counting, EdgeInducedStrategy):
    children = ExtensionStrategy.children


def _walk_two_levels(strategy):
    subgraph = strategy.make_subgraph()
    roots = strategy.extensions(subgraph)
    for _ in strategy.children(subgraph, roots):
        for _ in strategy.children(subgraph, strategy.extensions(subgraph)):
            pass
    return roots


@pytest.mark.parametrize("cls", (_CountingVertex, _CountingEdge, _CountingPattern))
def test_a_subclass_with_its_own_push_and_pop_brings_the_base_visitor(graph, cls):
    args = (_some_pattern(graph),) if cls is _CountingPattern else ()
    strategy = cls(graph, Metrics(), PatternInterner(), *args)
    roots = _walk_two_levels(strategy)
    assert strategy.pushes == strategy.pops > len(roots)


def test_a_fused_visitor_does_not_call_push_or_pop(graph):
    # The other half of the rule, pinned so that nobody relies on the
    # opposite: without ``children`` of its own the subclass is walked by
    # the inherited fused body, and its push/pop are not called.
    class Forgot(_Counting, VertexInducedStrategy):
        pass

    strategy = Forgot(graph, Metrics(), PatternInterner())
    assert _walk_two_levels(strategy)
    assert strategy.pushes == strategy.pops == 0


def test_who_gets_which_visitor():
    # Custom strategies walk through push/pop; the three built-in ones
    # bring a fused body.
    for cls in (KClistStrategy, SamplingStrategy):
        assert cls.children is ExtensionStrategy.children
    for cls in (VertexInducedStrategy, EdgeInducedStrategy, PatternInducedStrategy):
        assert "children" in cls.__dict__
