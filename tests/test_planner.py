"""The indexed-family matching order: the greedy, then the twins.

``repro.core.planner.plan_matching_order`` orders the core of a pattern
with the label-statistics greedy (``cost_order``) and matches one class
of *twins* — same vertex label, same neighbourhood, edge labels
included — last, so they form the orbit tail the count leaf collapses
into ``C(|C|, tau) * arrangements`` and the listing walks from one
shared candidate list.  Here:

* the order of q1-q8 (only the diamond q3 moves off the greedy's);
* which vertices are twins and which class goes last;
* what a run reports (``kernel_info()["symmetry"]["twins"]``);
* the decomposition chooser pricing the order enumeration runs in.

``tests/test_list_walk.py`` draws twin classes on random labeled graphs
and checks counts and listings against the ``"legacy"`` preset on the
sequential, simulated and multiprocess backends.
"""

from __future__ import annotations

import pytest

from repro import FractalContext, Pattern
from repro.apps import QUERY_PATTERNS
from repro.apps.queries import query_fractoid
from repro.core.enumerator import PatternInducedStrategy
from repro.core.planner import cost_order, plan_matching_order, twin_tail
from repro.graph import erdos_renyi_graph, mico_like
from repro.pattern import decompose
from repro.pattern.pattern import PatternInterner
from repro.runtime.metrics import Metrics

GRAPHS = {
    "unlabeled": erdos_renyi_graph(40, 260, n_labels=1, seed=5),
    "mico": mico_like(),
}

# query: (planned order, orbit tail, twins).  The greedy alone — the order
# before twins were placed — differs only on q3, where a tie on the
# estimate went to apex 1 before the chord's other end 2.
EXPECTED_PLANS = {
    "q1": ([0, 1, 2], 1, []),
    # Two twin classes, {0, 2} and {1, 3}; either removed leaves two
    # non-adjacent vertices, so neither is placed.
    "q2": ([0, 1, 2, 3], 1, []),
    "q3": ([0, 2, 1, 3], 2, [1, 3]),
    "q4": ([0, 1, 2, 3], 1, []),
    "q5": ([0, 1, 2, 3, 4], 1, []),
    "q6": ([0, 1, 4, 2, 3], 1, []),
    # Already last under the greedy.
    "q7": ([0, 1, 2, 3, 4, 5], 4, [2, 3, 4, 5]),
    # No two vertices of a cycle longer than four share a neighbourhood.
    "q8": ([0, 1, 2, 3, 4], 1, []),
}


@pytest.mark.parametrize("graph", sorted(GRAPHS))
@pytest.mark.parametrize("name", sorted(EXPECTED_PLANS))
def test_the_plans_of_the_fig15_queries(graph, name):
    pattern = QUERY_PATTERNS[name]
    order, tau, twins = EXPECTED_PLANS[name]
    assert plan_matching_order(pattern, GRAPHS[graph]) == order
    greedy = cost_order(pattern, GRAPHS[graph], range(pattern.n_vertices))
    assert (greedy != order) == (name == "q3")
    strategy = PatternInducedStrategy(
        GRAPHS[graph], Metrics(), PatternInterner(), pattern, kernel="indexed"
    )
    assert strategy.order == order
    assert strategy.orbit_tail()[0] == tau
    assert strategy.kernel_info()["symmetry"]["twins"] == twins


def _diamond(labels=(0, 0, 0, 0), edge_labels=(0, 0, 0, 0, 0)):
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
    return Pattern(list(labels), [(u, v, el) for (u, v), el in zip(edges, edge_labels)])


def test_the_diamond_wings_are_twins():
    assert twin_tail(_diamond()) == [1, 3]


def test_twins_carry_one_vertex_label():
    assert twin_tail(_diamond(labels=(0, 0, 0, 1))) == []


def test_twins_carry_the_same_edge_labels():
    # Wing 3's edge to vertex 0 carries another label than wing 1's.
    assert twin_tail(_diamond(edge_labels=(0, 0, 0, 1, 0))) == []


def test_the_larger_class_goes_last():
    # Core edge 3-4; three twins off 4 (vertices 0-2, the lowest ids)
    # and two off 3 (vertices 5, 6).
    pattern = Pattern.from_edge_list(
        [(3, 4), (0, 4), (1, 4), (2, 4), (3, 5), (3, 6)]
    )
    assert twin_tail(pattern) == [0, 1, 2]
    assert plan_matching_order(pattern, GRAPHS["unlabeled"])[-3:] == [0, 1, 2]


def test_equal_classes_go_to_the_lowest_vertex_id():
    pattern = Pattern.from_edge_list([(0, 1), (1, 2), (1, 3), (0, 4), (0, 5)])
    assert twin_tail(pattern) == [2, 3]


def test_a_class_that_disconnects_the_core_stays_in_place():
    square = QUERY_PATTERNS["q2"]
    assert twin_tail(square) == []
    # K(2,3): either class removed leaves independent vertices.
    k23 = Pattern.from_edge_list([(u, v) for u in (0, 1) for v in (2, 3, 4)])
    assert twin_tail(k23) == []
    graph = GRAPHS["unlabeled"]
    for pattern in (square, k23):
        assert plan_matching_order(pattern, graph) == cost_order(
            pattern, graph, range(pattern.n_vertices)
        )


def test_the_legacy_preset_reports_no_twins():
    strategy = PatternInducedStrategy(
        GRAPHS["unlabeled"], Metrics(), PatternInterner(), QUERY_PATTERNS["q3"],
        kernel="legacy",
    )
    # The degree-greedy order happens to match the wings last too; the
    # preset plans no twins and says so.
    assert strategy.order == [0, 2, 1, 3]
    assert strategy.kernel_info()["symmetry"]["twins"] == []


@pytest.mark.parametrize("name", ["q3", "q7"])
def test_counts_and_listings_match_the_legacy_preset(name):
    fg = FractalContext().from_graph(GRAPHS["unlabeled"])
    pattern = QUERY_PATTERNS[name]
    legacy = query_fractoid(fg, pattern, kernel="legacy").execute(collect="subgraphs")
    listed = query_fractoid(fg, pattern, kernel="indexed").execute(collect="subgraphs")
    assert sorted(sorted(r.vertices) for r in listed.subgraphs) == sorted(
        sorted(r.vertices) for r in legacy.subgraphs
    )
    for kernel in ("indexed", "decomposed"):
        assert query_fractoid(fg, pattern, kernel=kernel).count() == legacy.result_count


def test_the_chooser_prices_the_planned_order(monkeypatch):
    graph = GRAPHS["mico"]
    pattern = QUERY_PATTERNS["q3"]
    priced = []
    real = decompose._walk_estimate

    def recording(pattern, graph, order, cost_model):
        priced.append(list(order))
        return real(pattern, graph, order, cost_model)

    monkeypatch.setattr(decompose, "_walk_estimate", recording)
    decompose.estimate_enumeration_units(pattern, graph)
    assert priced == [plan_matching_order(pattern, graph)] == [[0, 2, 1, 3]]
