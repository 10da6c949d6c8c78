"""What a ``Pattern`` holds, and that it is one identity however made.

A pattern's identity is its flat canonical code (``dfscode.FlatCode``).
Three ways lead to a pattern of a given class — an interner miss, the
user's ``Pattern(labels, edges)``, the wire decoder — and they must be
indistinguishable through ``==`` / ``hash`` / ``<`` and every view; an
engine-made pattern must *hold* nothing but the code until a view is
read, across pickling too, and stay inside a per-pattern memory budget.
"""

import copy
import gc
import pickle
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FractalContext
from repro.apps import motifs
from repro.core.aggregation import decode_entries, encode_entries
from repro.graph import mico_like
from repro.pattern import dfscode
from repro.pattern.pattern import Pattern, PatternInterner

STRUCTURE_SLOTS = ("vertex_labels", "edges", "_code", "_canonical_map", "_adj")


def filled(pattern, slot):
    """Whether ``slot`` holds a value — asked of the slot descriptor,
    because ``hasattr`` would fill it."""
    try:
        getattr(Pattern, slot).__get__(pattern)
    except AttributeError:
        return False
    return True


def holds_code_only(pattern):
    return filled(pattern, "_flat") and not any(
        filled(pattern, slot) for slot in STRUCTURE_SLOTS
    )


# Vertex labels leave the wire's int8 packing both ways (negative, > 127);
# edge label -1 collides with the 1-vertex code's filler value.
vertex_label = st.one_of(st.integers(-2, 3), st.sampled_from([-300, 128, 70000]))
edge_label = st.integers(-1, 2)


@st.composite
def quotients(draw, max_vertices=5):
    """A random connected labeled graph as ``intern`` takes it:
    ``(vertex_labels, normalized edges)``, the 1-vertex graph included."""
    n = draw(st.integers(1, max_vertices))
    labels = tuple(draw(st.lists(vertex_label, min_size=n, max_size=n)))
    edges = {}
    for v in range(1, n):  # a random spanning tree keeps it connected
        edges[(draw(st.integers(0, v - 1)), v)] = draw(edge_label)
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) not in edges and draw(st.booleans()):
                edges[(a, b)] = draw(edge_label)
    return labels, tuple(sorted((a, b, e) for (a, b), e in edges.items()))


def three_ways(labels, edges):
    interned, _ = PatternInterner().intern(labels, edges)
    built = Pattern(labels, edges)
    ((shipped, _),) = decode_entries(encode_entries([(built, 0)]), {})
    return interned, built, shipped


@settings(max_examples=200, deadline=None)
@given(st.lists(quotients(), min_size=1, max_size=4))
def test_one_identity_three_ways_in(graphs):
    made = []
    for labels, edges in graphs:
        # The raw search is the oracle: every other way to a code — and
        # ``minimum_dfs_code`` itself — goes through the template gather.
        code, mapping = dfscode._minimum_dfs_code_search(labels, edges)
        assert dfscode.minimum_dfs_code(labels, edges) == (code, mapping)
        ways = three_ways(labels, edges)
        assert holds_code_only(ways[0]) and holds_code_only(ways[2])
        for a, b in combinations(ways, 2):
            assert a == b and hash(a) == hash(b)
            assert not a < b and not b < a
        for pattern in ways:
            assert pattern.canonical_code() == code
            assert (pattern.n_vertices, pattern.n_edges) == (
                len(labels), len(edges)
            )
            assert pattern.ship_words() == len(labels) + 3 * len(edges)
        assert ways[1].canonical_vertex_map() == mapping
        for pattern in (ways[0], ways[2]):  # numbered by canonical position
            assert (
                pattern.vertex_labels, pattern.edges
            ) == dfscode.code_to_edges(code)
            assert pattern.canonical_vertex_map() == tuple(range(len(labels)))
        made.extend((code, pattern) for pattern in ways)
    # Flat order is nested order, whichever way either side was made.
    for (code_a, a), (code_b, b) in combinations(made, 2):
        assert (a < b) == (code_a < code_b)
        assert (b < a) == (code_b < code_a)
        assert (a == b) == (code_a == code_b)


def test_flat_order_is_nested_order_across_lengths():
    """A code that is a proper prefix of another sorts first, and a short
    code with a larger row sorts after a long one — both ways of reading."""
    path2 = Pattern([0, 0], [(0, 1, 0)])
    path3 = Pattern([0, 0, 0], [(0, 1, 0), (1, 2, 0)])
    heavy2 = Pattern([0, 1], [(0, 1, 0)])
    assert path3.canonical_code()[:1] == path2.canonical_code()
    assert path2 < path3 and not path3 < path2
    assert path3 < heavy2 and not heavy2 < path3
    for a, b in combinations((path2, path3, heavy2), 2):
        assert (a < b) == (a.canonical_code() < b.canonical_code())


def test_census_keys_hold_only_their_code_until_read():
    fc = FractalContext()
    census = motifs(fc.from_graph(mico_like(0.1, labeled=True)), 3)
    assert len(census) > 100
    assert all(holds_code_only(pattern) for pattern in census)
    # Counting, sizing and sorting read the code alone...
    ordered = sorted(census.items(), key=lambda kv: (-kv[1], kv[0]))
    assert {p.n_vertices for p in census} == {3}
    assert {p.ship_words() for p in census} <= {3 + 3 * 2, 3 + 3 * 3}
    assert all(holds_code_only(pattern) for pattern in census)
    assert [p for p, _ in ordered] == [
        p for p, _ in sorted(
            census.items(), key=lambda kv: (-kv[1], kv[0].canonical_code())
        )
    ]
    # ...and a view, once read, is filled on that pattern alone.
    first, second = ordered[0][0], ordered[1][0]
    assert filled(first, "_code") and filled(second, "_code")
    second_labels = second.vertex_labels
    assert filled(second, "vertex_labels") and filled(second, "edges")
    assert second.vertex_labels is second_labels
    assert not filled(first, "vertex_labels")


def test_repr_of_a_user_built_pattern_runs_no_search():
    pattern = Pattern([1, 2, 3], [(0, 1, 0), (1, 2, 0)])
    assert repr(pattern) == "Pattern(n_vertices=3, n_edges=2, labels=(1, 2, 3))"
    assert not filled(pattern, "_flat")
    # Nor does it raise on a pattern that has no canonical code at all.
    assert "n_vertices=3" in repr(Pattern([0, 0, 0], [(0, 1, 0)]))


def test_mixed_key_types_keep_entry_order_through_the_codec():
    keys = [
        "word", Pattern.single_vertex(-1), (1, 2), Pattern.clique(3, label=300),
        17, Pattern([0, 1], [(0, 1, -1)]), None,
    ]
    decoded = decode_entries(
        encode_entries([(key, i) for i, key in enumerate(keys)]), {}
    )
    assert decoded == [(key, i) for i, key in enumerate(keys)]


def test_patterns_compare_equal_across_a_cache_clear():
    labels, edges = (5, 7, 5), ((0, 1, 0), (1, 2, 1))
    old_interner = PatternInterner()
    old, _ = old_interner.intern(labels, edges)
    old_built = Pattern(labels, edges)
    hash(old_built)
    dfscode.clear_code_cache()
    new, _ = PatternInterner().intern(labels, edges)
    new_built = Pattern(labels, edges)
    # The old interner no longer shares templates with the new tables, so
    # it may hand out a second object for the class: an equal one.
    again, _ = old_interner.intern(labels, edges)
    everyone = (old, old_built, new, new_built, again)
    for a, b in combinations(everyone, 2):
        assert a == b and hash(a) == hash(b)
    assert len(set(everyone)) == 1


# ----------------------------------------------------------------------
# Pickling and copying ship what a pattern is, not what it has filled
# ----------------------------------------------------------------------
def _views(pattern):
    return (
        pattern.canonical_code(),
        pattern.vertex_labels,
        pattern.edges,
        pattern.canonical_vertex_map(),
        pattern.vertex_orbits(),
    )


ROUND_TRIPS = {
    "pickle": lambda p: pickle.loads(pickle.dumps(p, pickle.HIGHEST_PROTOCOL)),
    "pickle-protocol-2": lambda p: pickle.loads(pickle.dumps(p, 2)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
@pytest.mark.parametrize("read_first", [False, True])
def test_engine_made_pattern_round_trips_as_its_code(how, read_first):
    labels, edges = (3, -300, 3, 128), ((0, 1, 0), (0, 2, -1), (1, 3, 0), (2, 3, 2))
    original, _ = PatternInterner().intern(labels, edges)
    if read_first:  # every view filled on the sender: none of them travels
        _views(original)
        original.adjacency
    clone = ROUND_TRIPS[how](original)
    assert holds_code_only(clone)
    assert clone == original and hash(clone) == hash(original)
    assert _views(clone) == _views(original)


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
@pytest.mark.parametrize("searched_first", [False, True])
def test_user_built_pattern_round_trips_in_the_callers_numbering(
    how, searched_first
):
    # Vertex 0 is not canonical position 0: the numbering is the caller's.
    original = Pattern([9, 1, 1], [(0, 1, 0), (0, 2, 4)])
    if searched_first:
        assert original.canonical_vertex_map() != (0, 1, 2)
    clone = ROUND_TRIPS[how](original)
    assert (clone.vertex_labels, clone.edges) == (
        (9, 1, 1), original.edges
    )
    assert clone == original and hash(clone) == hash(original)
    assert _views(clone) == _views(original)


def test_a_pattern_pickles_smaller_than_its_slots_did():
    """Bytes per pickled 4-vertex labeled pattern, alone / as one of 100
    in a payload: 459 (550 once its views were read) / 140 by slots at
    the parent; 149 / 48 now, views read or not — the flat code plus one
    constructor reference per payload."""
    pattern, _ = PatternInterner().intern(
        (1, 12, 23, 28),
        ((0, 1, 0), (0, 2, 0), (0, 3, 0), (1, 2, 0), (2, 3, 0)),
    )
    _views(pattern)
    size = len(pickle.dumps(pattern, pickle.HIGHEST_PROTOCOL))
    print(f"pickled 4-vertex pattern: {size} bytes")
    assert size <= 160
    # Many in one payload share the constructor reference.
    many = [
        PatternInterner().intern((a, 12, 23, 28), ((0, 1, 0), (1, 2, 0), (2, 3, 0)))[0]
        for a in range(100)
    ]
    assert len(pickle.dumps(many, pickle.HIGHEST_PROTOCOL)) / 100 <= 60


# ----------------------------------------------------------------------
# Memory budget
# ----------------------------------------------------------------------
def test_a_census_pattern_stays_inside_its_memory_budget(capsys):
    """Retained bytes per distinct pattern of a fresh-context 4-vertex
    census, before any view is read: <= 800 (1,278 at the parent, when
    every pattern was born with structure, nested code and map)."""
    graph = mico_like(0.25, labeled=True)
    motifs(FractalContext().from_graph(graph), 3)  # warm module-wide tables
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fc = FractalContext()
        census = motifs(fc.from_graph(graph), 4)
        gc.collect()
        unread = tracemalloc.get_traced_memory()[0] - before
        assert all(holds_code_only(pattern) for pattern in census)
        for pattern in census:  # what a pattern was born with at the parent
            pattern.canonical_code(), pattern.vertex_labels, pattern.edges
            pattern.canonical_vertex_map()
        gc.collect()
        read = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n = len(census)
    with capsys.disabled():
        print(
            f"\n[memory] {n} patterns: {unread / n:.0f} B/pattern unread, "
            f"{read / n:.0f} B/pattern with code, structure and map read"
        )
    assert n > 10000
    assert unread / n <= 800
