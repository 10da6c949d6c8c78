"""Tests for Pattern construction, identity and orbits."""

import pytest

from repro import Pattern
from repro.graph import complete_graph
from repro.pattern import PatternInterner


class TestPatternConstruction:
    def test_from_edge_list(self):
        p = Pattern.from_edge_list([(0, 1), (1, 2)])
        assert p.n_vertices == 3
        assert p.n_edges == 2
        assert p.vertex_labels == (0, 0, 0)

    def test_normalizes_edge_orientation(self):
        p = Pattern([0, 0], [(1, 0, 5)])
        assert p.edges == ((0, 1, 5),)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Pattern([0], [(0, 0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            Pattern([0, 0], [(0, 1, 0), (1, 0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Pattern([0, 0], [(0, 5, 0)])

    def test_clique_and_single_vertex(self):
        k4 = Pattern.clique(4)
        assert k4.n_edges == 6
        assert k4.is_clique()
        single = Pattern.single_vertex(label=3)
        assert single.n_vertices == 1
        assert single.vertex_labels == (3,)

    def test_from_graph_and_to_graph_round_trip(self):
        g = complete_graph(4)
        p = Pattern.from_graph(g)
        g2 = p.to_graph()
        assert g2.n_vertices == 4
        assert g2.n_edges == 6
        assert Pattern.from_graph(g2) == p

    def test_connectivity(self):
        assert Pattern.from_edge_list([(0, 1), (1, 2)]).is_connected()
        assert not Pattern([0, 0, 0], [(0, 1, 0)]).is_connected()


class TestPatternIdentity:
    def test_isomorphic_patterns_equal(self):
        p1 = Pattern.from_edge_list([(0, 1), (1, 2), (2, 0), (2, 3)])
        p2 = Pattern.from_edge_list([(3, 2), (2, 1), (1, 3), (0, 1)])
        assert p1 == p2
        assert hash(p1) == hash(p2)
        # The code is computed once per instance, then handed out as is.
        assert p1.canonical_code() is p1.canonical_code()

    def test_non_isomorphic_differ(self):
        triangle_tail = Pattern.from_edge_list([(0, 1), (1, 2), (2, 0), (2, 3)])
        path = Pattern.from_edge_list([(0, 1), (1, 2), (2, 3)])
        assert triangle_tail != path

    def test_labels_matter(self):
        p1 = Pattern([0, 1], [(0, 1, 0)])
        p2 = Pattern([0, 0], [(0, 1, 0)])
        assert p1 != p2

    def test_edge_labels_matter(self):
        p1 = Pattern([0, 0], [(0, 1, 0)])
        p2 = Pattern([0, 0], [(0, 1, 1)])
        assert p1 != p2

    def test_ordering_is_total(self):
        p1 = Pattern.clique(3)
        p2 = Pattern.from_edge_list([(0, 1), (1, 2)])
        assert (p1 < p2) != (p2 < p1)

    def test_neighborhood_and_degree(self):
        p = Pattern.from_edge_list([(0, 1), (0, 2)])
        assert p.degree(0) == 2
        assert p.degree(1) == 1
        assert p.are_adjacent(0, 1)
        assert not p.are_adjacent(1, 2)
        assert p.edge_label_between(0, 1) == 0
        assert p.edge_label_between(1, 2) is None


class TestOrbits:
    def test_clique_single_orbit(self):
        orbits = Pattern.clique(4).vertex_orbits()
        assert len(set(orbits)) == 1

    def test_path_orbits(self):
        # P3: endpoints are one orbit, the center another.
        orbits = Pattern.from_edge_list([(0, 1), (1, 2)]).vertex_orbits()
        assert orbits[0] == orbits[2]
        assert orbits[1] != orbits[0]

    def test_labeled_path_trivial_orbits(self):
        p = Pattern([0, 0, 1], [(0, 1, 0), (1, 2, 0)])
        assert len(set(p.vertex_orbits())) == 3

    def test_star_orbits(self):
        p = Pattern.from_edge_list([(0, 1), (0, 2), (0, 3)])
        orbits = p.vertex_orbits()
        assert orbits[1] == orbits[2] == orbits[3]
        assert orbits[0] != orbits[1]

    def test_canonical_position_orbits_align(self):
        p = Pattern.from_edge_list([(0, 1), (0, 2), (0, 3)])
        by_position = p.canonical_position_orbits()
        assert sorted(by_position) == sorted(p.vertex_orbits())

    def test_position_orbits_representative_invariant(self):
        # Separate interners (as in separate worker processes) may pick
        # different representatives for one isomorphism class; their
        # position -> orbit labelings must still agree or cross-process
        # DomainSupport merges would mix slots.
        pa, _ = PatternInterner().intern(
            (1, 0, 0, 0), ((0, 1, 0), (0, 2, 0), (0, 3, 0))
        )
        pb, _ = PatternInterner().intern(
            (0, 0, 0, 1), ((0, 3, 0), (1, 3, 0), (2, 3, 0))
        )
        assert pa == pb
        assert pa is not pb
        assert pa.canonical_position_orbits() == pb.canonical_position_orbits()


class TestPatternInterner:
    def test_cache_hit(self):
        interner = PatternInterner()
        key = ((0, 0, 0), ((0, 1, 0), (1, 2, 0)))
        p1, map1 = interner.intern(*key)
        p2, map2 = interner.intern(*key)
        assert p1 is p2
        assert map1 == map2
        assert interner.hits == 1
        assert interner.misses == 1

    def test_isomorphic_structures_share_instance(self):
        interner = PatternInterner()
        p1, _ = interner.intern((0, 0, 0), ((0, 1, 0), (1, 2, 0)))
        p2, _ = interner.intern((0, 0, 0), ((0, 2, 0), (1, 2, 0)))
        assert p1 is p2
        # len() counts distinct patterns held, not the ways they arrived.
        assert len(interner) == 1
        assert (interner.hits, interner.misses) == (1, 1)

    def test_mapping_points_to_canonical_positions(self):
        interner = PatternInterner()
        # Path a-b-c presented with the center at local index 2.
        pattern, mapping = interner.intern(
            (0, 0, 0), ((0, 2, 0), (1, 2, 0))
        )
        # The center vertex (local 2) must map to the same canonical
        # position as the center of the canonical path.
        center_position = mapping[2]
        orbit_of = pattern.canonical_position_orbits()
        endpoint_positions = [mapping[0], mapping[1]]
        assert orbit_of[endpoint_positions[0]] == orbit_of[endpoint_positions[1]]
        assert orbit_of[center_position] != orbit_of[endpoint_positions[0]]

    def test_orbits_are_searched_once_per_template(self, monkeypatch):
        from repro.pattern import dfscode, isomorphism

        dfscode.clear_code_cache()  # templates are module-wide
        searches = []
        real = isomorphism.automorphisms

        def counting(pattern):
            searches.append(pattern)
            return real(pattern)

        monkeypatch.setattr(isomorphism, "automorphisms", counting)
        interner = PatternInterner()
        # Three labelings of the path end-center-end with equal ends, fed
        # in different vertex orders: one template.
        first, _ = interner.intern((9, 4, 4), ((0, 1, 2), (0, 2, 2)))
        second, _ = interner.intern((1, 7, 1), ((0, 1, 0), (1, 2, 0)))
        third, _ = interner.intern((5, 5, 6), ((0, 2, 3), (1, 2, 3)))
        assert len({first, second, third}) == 3
        orbits = first.canonical_position_orbits()
        assert second.canonical_position_orbits() is orbits
        assert third.vertex_orbits() is orbits
        assert len(searches) == 1
        # A later interner finds them on the template, too.
        again, _ = PatternInterner().intern((2, 3, 2), ((0, 1, 1), (1, 2, 1)))
        assert again.vertex_orbits() is orbits
        assert len(searches) == 1
        # Same answer as a pattern built directly, which searches itself.
        direct = Pattern(second.vertex_labels, second.edges)
        assert direct.canonical_position_orbits() == orbits
        assert len(searches) == 2
