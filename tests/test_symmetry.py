"""Tests for Grochow–Kellis / GraphZero-style symmetry breaking.

The load-bearing oracles (hypothesis-driven, satellite of the symmetry
PR):

* **exactly one representative** — for random patterns up to 7 vertices,
  the optimized (minimal) restriction set admits exactly one assignment
  per automorphism class over every permutation of a candidate vertex
  set;
* **restricted count x multiplicity** — on random labeled graphs, the
  number of injective embeddings satisfying the conditions times
  ``|Aut(P)|`` equals the unrestricted embedding count;
* **minimal never larger than heuristic** — the anchor-search optimizer
  can only match or beat the classic min-anchor construction;
* orbit-multiplicity counting and the decomposed restricted core walk
  agree with plain enumeration (see also ``test_decomposed_kernel``).
"""

import math
import random
from itertools import permutations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro import FractalContext, Pattern
from repro.apps import QUERY_PATTERNS, query_fractoid
from repro.graph import erdos_renyi_graph
from repro.harness import bench_patents
from repro.pattern import (
    all_connected_patterns,
    automorphisms,
    conditions_by_position,
    count_pattern_matches,
    heuristic_symmetry_breaking_conditions,
    minimal_restriction_set,
    satisfies_conditions,
    symmetry_breaking_conditions,
    symmetry_plan,
)
from repro.runtime.metrics import Metrics


def _with_query_examples(test):
    """Pin q1-q8 as explicit inputs of a hypothesis pattern test."""
    for name in sorted(QUERY_PATTERNS):
        test = hypothesis.example(QUERY_PATTERNS[name])(test)
    return test


class TestConditions:
    def test_trivial_group_no_conditions(self):
        p = Pattern([0, 1, 2], [(0, 1, 0), (1, 2, 0)])
        assert symmetry_breaking_conditions(p) == []

    def test_clique_chain_order(self):
        conditions = symmetry_breaking_conditions(Pattern.clique(3))
        # K3 needs a *total* order over its three vertices, but its
        # transitive reduction is a chain of two conditions — the
        # GraphZero observation the optimizer implements.
        assert conditions == [(0, 1), (1, 2)]
        k4 = symmetry_breaking_conditions(Pattern.clique(4))
        assert k4 == [(0, 1), (1, 2), (2, 3)]

    def test_exactly_one_representative_per_automorphism_class(self):
        # For every pattern, over all permutations of a candidate vertex
        # set, the number of assignments satisfying the conditions times
        # |Aut| must equal the number of all assignments.
        patterns = [
            Pattern.clique(3),
            Pattern.clique(4),
            Pattern.from_edge_list([(0, 1), (1, 2)]),
            Pattern.from_edge_list([(0, 1), (0, 2), (0, 3)]),
            Pattern.from_edge_list([(0, 1), (1, 2), (2, 3), (3, 0)]),
            Pattern.from_edge_list([(0, 1), (1, 2), (2, 0), (2, 3)]),
        ]
        for pattern in patterns:
            n = pattern.n_vertices
            auts = automorphisms(pattern)
            conditions = symmetry_breaking_conditions(pattern)
            vertex_ids = list(range(10, 10 + n))
            satisfying = 0
            total = 0
            for assignment in permutations(vertex_ids):
                total += 1
                if satisfies_conditions(assignment, conditions):
                    satisfying += 1
            assert satisfying * len(auts) == total, pattern

    def test_conditions_consistent_with_automorphisms(self):
        # A condition (a, b) must only relate vertices within one orbit
        # chain: applying it never eliminates all members of a class.
        p = Pattern.from_edge_list([(0, 1), (1, 2), (2, 3), (3, 0)])
        conditions = symmetry_breaking_conditions(p)
        ids = [4, 9, 2, 7]
        survivors = [
            assignment
            for assignment in permutations(ids)
            if satisfies_conditions(assignment, conditions)
        ]
        assert survivors  # at least one representative exists


# ----------------------------------------------------------------------
# Hypothesis oracles over random patterns
# ----------------------------------------------------------------------


@st.composite
def random_pattern(draw, max_vertices=7):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    all_pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    # Random edge subset; retry via assume for connectivity-free validity
    # (conditions are defined for any simple pattern, connected or not).
    mask = draw(
        st.lists(st.booleans(), min_size=len(all_pairs), max_size=len(all_pairs))
    )
    edges = [pair for pair, keep in zip(all_pairs, mask) if keep]
    hypothesis.assume(edges)
    n_labels = draw(st.sampled_from([1, 1, 2]))
    vlabels = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_labels - 1),
            min_size=n,
            max_size=n,
        )
    )
    return Pattern(vlabels, [(a, b, 0) for a, b in edges])


class TestMinimalRestrictionOracles:
    @given(random_pattern())
    @settings(max_examples=60, deadline=None)
    def test_exactly_one_representative(self, pattern):
        n = pattern.n_vertices
        auts = automorphisms(pattern)
        conditions = symmetry_breaking_conditions(pattern)
        satisfying = sum(
            1
            for assignment in permutations(range(n))
            if satisfies_conditions(assignment, conditions)
        )
        assert satisfying * len(auts) == math.factorial(n)

    @given(random_pattern())
    @settings(max_examples=60, deadline=None)
    @_with_query_examples
    def test_minimal_never_larger_than_heuristic(self, pattern):
        plan = minimal_restriction_set(pattern)
        heuristic = heuristic_symmetry_breaking_conditions(pattern)
        assert plan.heuristic_size == len(heuristic)
        assert len(plan.conditions) <= len(heuristic)

    @given(
        random_pattern(max_vertices=5),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_restricted_count_times_multiplicity_is_unrestricted(
        self, pattern, seed
    ):
        # On a random labeled graph: |restricted embeddings| x |Aut(P)|
        # == |all injective embeddings|, by brute force over injective
        # vertex assignments.
        n = pattern.n_vertices
        graph = erdos_renyi_graph(10, 24, n_labels=2, seed=seed)
        conditions = symmetry_breaking_conditions(pattern)

        def is_embedding(assignment):
            for v in range(n):
                if graph.vertex_label(assignment[v]) != pattern.vertex_labels[v]:
                    return False
            for a, b, elabel in pattern.edges:
                eid = graph.edge_between(assignment[a], assignment[b])
                if eid < 0 or graph.edge_label(eid) != elabel:
                    return False
            return True

        unrestricted = 0
        restricted = 0
        for assignment in permutations(range(graph.n_vertices), n):
            if not is_embedding(assignment):
                continue
            unrestricted += 1
            if satisfies_conditions(assignment, conditions):
                restricted += 1
        assert restricted * len(automorphisms(pattern)) == unrestricted


# ----------------------------------------------------------------------
# Orbit-multiplicity counting agrees with the embedding oracle
# ----------------------------------------------------------------------


class TestOrbitCounting:
    @given(
        random_pattern(max_vertices=5),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_count_matches_equals_oracle(self, pattern, seed):
        hypothesis.assume(pattern.is_connected())
        graph = erdos_renyi_graph(14, 40, n_labels=2, seed=seed)
        expected = count_pattern_matches(pattern, graph)
        fc = FractalContext(engine="sequential")
        fr = fc.from_graph(graph).pfractoid(pattern, kernel="indexed").expand(
            pattern.n_vertices
        )
        report = fr.execute(collect="count")
        assert report.result_count == expected
        info = report.steps[-1].kernel_info
        assert info["orbit_count"]["executed"] is True

    def test_default_kernel_walks_fewer_nodes_than_legacy(self):
        # Minimal restriction sets + orbit counting + the decomposed count
        # against the walk-every-embedding baseline, over the k=3,4 motif
        # census patterns: same counts, >= 2x fewer walked tree nodes
        # (geomean; stars and paths carry it, cliques sit at ~1x).
        graph = bench_patents(labeled=False)
        log_ratios = []
        for k in (3, 4):
            for pattern in all_connected_patterns(k):
                walked = {}
                counts = {}
                for kernel in ("legacy", None):
                    report = query_fractoid(
                        FractalContext().from_graph(graph), pattern, kernel=kernel
                    ).execute(collect="count")
                    metrics = report.metrics
                    counts[kernel] = report.result_count
                    walked[kernel] = (
                        metrics.subgraphs_enumerated
                        + metrics.decomp_core_embeddings
                    )
                assert counts[None] == counts["legacy"]
                log_ratios.append(math.log(walked["legacy"] / walked[None]))
        assert math.exp(sum(log_ratios) / len(log_ratios)) >= 2.0


# ----------------------------------------------------------------------
# Per-pattern plan caching
# ----------------------------------------------------------------------


class TestSymmetryPlanCache:
    def test_cache_hits_are_metered(self):
        pattern = Pattern.clique(3)
        metrics = Metrics()
        order = [0, 1, 2]
        first = symmetry_plan(pattern, order, None, metrics)
        assert metrics.symmetry_cache_hits == 0
        second = symmetry_plan(pattern, order, None, metrics)
        assert metrics.symmetry_cache_hits == 1
        assert second is first

    def test_distinct_orders_cache_separately(self):
        pattern = Pattern.from_edge_list([(0, 1), (1, 2)])
        metrics = Metrics()
        a = symmetry_plan(pattern, [0, 1, 2], None, metrics)
        b = symmetry_plan(pattern, [1, 0, 2], None, metrics)
        assert metrics.symmetry_cache_hits == 0
        assert a.conditions == b.conditions  # same set, different checks
        assert a.checks != b.checks


class TestConditionsByPosition:
    def test_reindexing(self):
        conditions = [(0, 1), (0, 2)]
        order = [2, 0, 1]
        checks = conditions_by_position(conditions, order)
        # Position of vertex 0 is 1; vertex 1 is at 2; vertex 2 at 0.
        # (0, 1): 0 earlier than 1 -> at position 2, must be greater than
        # match at position 1.
        assert (1, True) in checks[2]
        # (0, 2): 2 is at position 0, earlier than 0 at position 1 -> at
        # position 1, vertex 0's match must be smaller than position 0's.
        assert (0, False) in checks[1]

    def test_incremental_equals_final(self):
        rng = random.Random(3)
        p = Pattern.from_edge_list([(0, 1), (0, 2), (0, 3)])
        conditions = symmetry_breaking_conditions(p)
        order = [0, 1, 2, 3]
        checks = conditions_by_position(conditions, order)
        for _ in range(50):
            assignment = rng.sample(range(100), 4)
            final = satisfies_conditions(assignment, conditions)
            incremental = True
            for pos in range(4):
                for earlier, greater in checks[pos]:
                    if greater and assignment[pos] <= assignment[earlier]:
                        incremental = False
                    if not greater and assignment[pos] >= assignment[earlier]:
                        incremental = False
            assert incremental == final
