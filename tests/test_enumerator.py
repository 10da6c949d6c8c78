"""Tests for extension strategies and the SubgraphEnumerator structure."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import FractalContext, Pattern
from repro.core import (
    EdgeInducedStrategy,
    PatternInducedStrategy,
    SubgraphEnumerator,
    VertexInducedStrategy,
    matching_order,
)
from repro.graph import erdos_renyi_graph, path_graph, star_graph
from repro.pattern import PatternInterner
from repro.runtime import Metrics

from conftest import (
    brute_connected_edge_subgraphs,
    brute_connected_induced,
)


def _enumerate_all(strategy, max_depth):
    """Exhaustive DFS over a strategy: returns frozensets of words."""
    subgraph = strategy.make_subgraph()
    strategy.reset_state()
    results = []

    def recurse(depth):
        if depth == max_depth:
            if strategy.mode == "edge":
                results.append(frozenset(subgraph.edges))
            else:
                results.append(frozenset(subgraph.vertices))
            return
        for word in strategy.extensions(subgraph):
            strategy.push(subgraph, word)
            recurse(depth + 1)
            strategy.pop(subgraph)

    recurse(0)
    return results


class TestVertexInducedStrategy:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_counts_match_brute_force(self, k):
        graph = erdos_renyi_graph(18, 40, seed=2)
        strategy = VertexInducedStrategy(graph, Metrics(), PatternInterner())
        results = _enumerate_all(strategy, k)
        assert len(results) == brute_connected_induced(graph, k)

    def test_no_duplicates(self):
        graph = erdos_renyi_graph(15, 35, seed=3)
        strategy = VertexInducedStrategy(graph, Metrics(), PatternInterner())
        results = _enumerate_all(strategy, 3)
        assert len(results) == len(set(results))

    def test_extension_cost_counted(self):
        graph = erdos_renyi_graph(15, 35, seed=3)
        metrics = Metrics()
        strategy = VertexInducedStrategy(graph, metrics, PatternInterner())
        _enumerate_all(strategy, 2)
        assert metrics.extension_tests > 0
        assert metrics.extensions_generated > 0

    def test_push_collects_induced_edges(self, triangle_graph):
        strategy = VertexInducedStrategy(
            triangle_graph, Metrics(), PatternInterner()
        )
        subgraph = strategy.make_subgraph()
        strategy.push(subgraph, 0)
        strategy.push(subgraph, 1)
        strategy.push(subgraph, 2)
        assert subgraph.n_edges == 3  # all triangle edges materialized


class TestEdgeInducedStrategy:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_counts_match_brute_force(self, k):
        graph = erdos_renyi_graph(14, 26, seed=5)
        strategy = EdgeInducedStrategy(graph, Metrics(), PatternInterner())
        results = _enumerate_all(strategy, k)
        assert len(results) == brute_connected_edge_subgraphs(graph, k)

    def test_no_duplicates(self):
        graph = erdos_renyi_graph(14, 26, seed=5)
        strategy = EdgeInducedStrategy(graph, Metrics(), PatternInterner())
        results = _enumerate_all(strategy, 3)
        assert len(results) == len(set(results))


class TestPatternInducedStrategy:
    def test_rejects_disconnected_pattern(self):
        graph = erdos_renyi_graph(10, 15, seed=1)
        bad = Pattern([0, 0, 0], [(0, 1, 0)])
        with pytest.raises(ValueError):
            PatternInducedStrategy(graph, Metrics(), PatternInterner(), bad)

    def test_word_limit(self):
        graph = erdos_renyi_graph(10, 15, seed=1)
        strategy = PatternInducedStrategy(
            graph, Metrics(), PatternInterner(), Pattern.clique(3)
        )
        assert strategy.word_count_limit() == 3

    def test_star_counts(self):
        star = star_graph(5)
        p3 = Pattern.from_edge_list([(0, 1), (1, 2)])
        strategy = PatternInducedStrategy(star, Metrics(), PatternInterner(), p3)
        results = _enumerate_all(strategy, 3)
        assert len(results) == 10  # C(5, 2) paths through the hub

    def test_label_filtering(self):
        graph = path_graph(4, labels=[1, 2, 2, 1])
        query = Pattern([1, 2], [(0, 1, 0)])
        strategy = PatternInducedStrategy(
            graph, Metrics(), PatternInterner(), query
        )
        results = _enumerate_all(strategy, 2)
        assert len(results) == 2  # edges (0,1) and (2,3)

    def test_extensions_exhausted_beyond_pattern(self, triangle_graph):
        strategy = PatternInducedStrategy(
            triangle_graph, Metrics(), PatternInterner(), Pattern.clique(3)
        )
        subgraph = strategy.make_subgraph()
        for word in (0, 1, 2):
            strategy.push(subgraph, word)
        assert strategy.extensions(subgraph) == []


class TestMatchingOrder:
    def test_connected_order(self):
        p = Pattern.from_edge_list([(0, 1), (1, 2), (2, 3)])
        order = matching_order(p)
        placed = {order[0]}
        for v in order[1:]:
            assert any(p.are_adjacent(v, u) for u in placed)
            placed.add(v)

    def test_starts_at_max_degree(self):
        p = Pattern.from_edge_list([(0, 1), (0, 2), (0, 3)])
        assert matching_order(p)[0] == 0

    def test_covers_all_vertices(self):
        p = Pattern.clique(5)
        assert sorted(matching_order(p)) == [0, 1, 2, 3, 4]


class TestSubgraphEnumerator:
    def test_take_consumes_in_order(self):
        enum = SubgraphEnumerator((1, 2), [10, 11, 12])
        assert enum.has_next()
        assert enum.remaining() == 3
        words = iter(enum)
        assert next(words) == 10
        assert next(words) == 11
        assert enum.remaining() == 1

    def test_steal_takes_from_tail(self):
        enum = SubgraphEnumerator((), [10, 11, 12])
        words = iter(enum)
        assert next(words) == 10
        assert enum.steal_chunk(1) == [12]
        assert enum.remaining() == 1
        # The iteration sees the cut tail at its next word.
        assert next(words) == 11
        assert enum.steal_chunk(1) == []
        assert next(words, None) is None

    def test_stealable_flag(self):
        private = SubgraphEnumerator((), [1], stealable=False)
        assert not private.stealable
        assert SubgraphEnumerator((), [1]).stealable


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=5, max_value=14),
    st.integers(min_value=0, max_value=5000),
    st.integers(min_value=2, max_value=3),
)
def test_vertex_enumeration_completeness_property(n, seed, k):
    """Canonical enumeration visits every connected induced subgraph once."""
    m = min(n * 2, n * (n - 1) // 2)
    graph = erdos_renyi_graph(n, m, seed=seed)
    strategy = VertexInducedStrategy(graph, Metrics(), PatternInterner())
    results = _enumerate_all(strategy, k)
    assert len(results) == len(set(results))
    assert len(results) == brute_connected_induced(graph, k)
