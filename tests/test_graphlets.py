"""Tests for graphlet degree vectors."""

import pytest

from repro import ClusterConfig, FractalContext
from repro.apps import (
    gdv_similarity,
    graphlet_degree_vectors,
    motif_census_by_pattern,
    motif_counts_ignoring_labels,
    motifs,
)
from repro.graph import complete_graph, erdos_renyi_graph, path_graph, star_graph
from repro.runtime.mp_backend import MultiprocessConfig


class TestGraphletDegreeVectors:
    def test_star_orbits(self):
        # Star with 3 leaves, k=3 graphlets: every graphlet is a path
        # through the hub.  The hub sits at the path center C(3,2)=3
        # times; each leaf at a path end twice.
        star = star_graph(3)
        gdv = graphlet_degree_vectors(FractalContext().from_graph(star), 3)
        hub_vector = gdv[0]
        (pattern, orbit), = [
            key for key, count in hub_vector.items() if count == 3
        ]
        assert pattern.n_edges == 2  # the path
        for leaf in (1, 2, 3):
            assert sum(gdv[leaf].values()) == 2

    def test_path_center_vs_end(self):
        graph = path_graph(3)
        gdv = graphlet_degree_vectors(FractalContext().from_graph(graph), 3)
        # One graphlet: the path itself.  Center and ends get different
        # orbits of the same pattern.
        center_key, = gdv[1].keys()
        end_key, = gdv[0].keys()
        assert center_key[0] == end_key[0]  # same pattern
        assert center_key[1] != end_key[1]  # different orbit

    def test_clique_single_orbit(self):
        k4 = complete_graph(4)
        gdv = graphlet_degree_vectors(FractalContext().from_graph(k4), 3)
        # Triangles only; all positions share one orbit; each vertex is in
        # C(3,2) = 3 of the 4 triangles.
        for v in range(4):
            (key, count), = gdv[v].items()
            assert count == 3
            assert key[0].is_clique()

    def test_counts_consistent_with_motif_census(self):
        """Sum over vertices per (pattern, orbit) = instances x orbit size."""
        graph = erdos_renyi_graph(20, 50, seed=6)
        fg = FractalContext().from_graph(graph)
        gdv = graphlet_degree_vectors(fg, 3)
        census = motifs(FractalContext().from_graph(graph), 3)
        census_by_code = {p.canonical_code(): c for p, c in census.items()}

        totals = {}
        for vector in gdv.values():
            for (pattern, orbit), count in vector.items():
                key = (pattern.canonical_code(), orbit)
                totals[key] = totals.get(key, 0) + count
        for (code, orbit), total in totals.items():
            pattern = next(
                p for p in census if p.canonical_code() == code
            )
            orbit_size = sum(
                1 for o in pattern.canonical_position_orbits() if o == orbit
            )
            assert total == census_by_code[code] * orbit_size

    def test_validates_k(self):
        fg = FractalContext().from_graph(path_graph(3))
        with pytest.raises(ValueError):
            graphlet_degree_vectors(fg, 0)

    def test_isolated_vertices_absent(self):
        from repro.graph import GraphBuilder

        builder = GraphBuilder()
        builder.add_vertices(3)
        builder.add_edge(0, 1)
        graph = builder.build()
        gdv = graphlet_degree_vectors(FractalContext().from_graph(graph), 2)
        assert 2 not in gdv  # the isolated vertex joins no 2-graphlet


class TestGDVSimilarity:
    def test_identical_vectors(self):
        graph = erdos_renyi_graph(15, 35, seed=7)
        gdv = graphlet_degree_vectors(FractalContext().from_graph(graph), 3)
        v = next(iter(gdv))
        assert gdv_similarity(gdv[v], gdv[v]) == pytest.approx(1.0)

    def test_empty_vectors(self):
        assert gdv_similarity({}, {}) == 1.0

    def test_symmetry(self):
        graph = erdos_renyi_graph(15, 35, seed=7)
        gdv = graphlet_degree_vectors(FractalContext().from_graph(graph), 3)
        vertices = list(gdv)
        a, b = vertices[0], vertices[1]
        assert gdv_similarity(gdv[a], gdv[b]) == pytest.approx(
            gdv_similarity(gdv[b], gdv[a])
        )

    def test_structural_twins_more_similar(self):
        # In a star, two leaves are structurally identical; leaf-vs-hub
        # similarity must be lower.
        star = star_graph(4)
        gdv = graphlet_degree_vectors(FractalContext().from_graph(star), 3)
        leaf_leaf = gdv_similarity(gdv[1], gdv[2])
        leaf_hub = gdv_similarity(gdv[1], gdv[0])
        assert leaf_leaf > leaf_hub
        assert leaf_leaf == pytest.approx(1.0)

    def test_bounded(self):
        graph = erdos_renyi_graph(15, 35, seed=8)
        gdv = graphlet_degree_vectors(FractalContext().from_graph(graph), 3)
        vertices = list(gdv)
        for a in vertices[:5]:
            for b in vertices[:5]:
                s = gdv_similarity(gdv[a], gdv[b])
                assert 0.0 <= s <= 1.0


@pytest.mark.parametrize(
    "engine",
    [
        "sequential",
        ClusterConfig(workers=2, cores_per_worker=2),
        MultiprocessConfig(num_procs=2),
    ],
    ids=["sequential", "simulator", "multiprocess"],
)
@pytest.mark.parametrize("k", [3, 4])
def test_census_by_pattern_equals_motifs_on_every_backend(engine, k):
    """Per-pattern counting + Möbius transform == the aggregation census."""
    fg = FractalContext().from_graph(erdos_renyi_graph(30, 130, n_labels=2, seed=9))
    expected = motif_counts_ignoring_labels(motifs(fg, k))
    assert motif_census_by_pattern(fg, k, engine=engine) == expected
