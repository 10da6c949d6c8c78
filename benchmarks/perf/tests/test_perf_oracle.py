"""The brute-force oracle on graphs whose answers are known by hand."""

from itertools import combinations

import oracle


def complete(n, labels=None):
    labels = labels or [0] * n
    return labels, [(u, v, 0) for u, v in combinations(range(n), 2)]


def test_canonical_form_is_a_relabeling_invariant():
    path = oracle.canonical_form([1, 2, 1], [(0, 1, 0), (1, 2, 0)])
    assert path == oracle.canonical_form([2, 1, 1], [(0, 1, 0), (0, 2, 0)])
    assert path != oracle.canonical_form([1, 1, 2], [(0, 1, 0), (1, 2, 0)])


def test_motif_census_of_k5_and_a_star():
    labels, edges = complete(5)
    census = oracle.motif_census(labels, edges, 4)
    assert list(census.values()) == [5]  # five 4-cliques, nothing else
    star = ([0] * 5, [(0, i, 0) for i in range(1, 5)])
    census = oracle.motif_census(*star, 3)
    assert list(census.values()) == [6]  # C(4,2) induced 2-paths


def test_pattern_instances_counts_subgraphs_not_embeddings():
    labels, edges = complete(4)
    triangle = ([0, 0, 0], [(0, 1, 0), (1, 2, 0), (0, 2, 0)])
    square = ([0] * 4, [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)])
    assert len(oracle.pattern_instances(labels, edges, *triangle)) == 4
    # K4 holds three distinct 4-cycles on the same four vertices.
    assert len(oracle.pattern_instances(labels, edges, *square)) == 3
    # Labels must match.
    assert not oracle.pattern_instances([1] * 4, edges, *triangle)


def test_mni_support_shares_domains_within_an_orbit():
    # A star with 4 leaves: the single-edge pattern's two positions are one
    # orbit, so its domain is all 5 vertices; the 2-path's centre position
    # only ever holds the hub.
    star = ([0] * 5, [(0, i, 0) for i in range(1, 5)])
    frequent = oracle.frequent_subgraphs(*star, min_support=1, max_edges=2)
    edge = oracle.canonical_form([0, 0], [(0, 1, 0)])
    path = oracle.canonical_form([0, 0, 0], [(0, 1, 0), (1, 2, 0)])
    assert frequent == {edge: 5, path: 1}
    assert oracle.frequent_subgraphs(*star, min_support=2, max_edges=2) == {edge: 5}
