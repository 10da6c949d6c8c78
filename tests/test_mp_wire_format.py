"""The multiprocess backend's wire format and in-order driver fold.

Three contracts:

* a ``Pattern`` key crosses a process boundary as its canonical DFS code
  and comes back numbered by canonical position, without the minimum
  DFS-code search being re-run (``encode_entries`` / ``decode_entries``);
* folding chunk payloads in chunk-index order as they arrive
  (``_ChunkFold``) equals rebuilding one storage per chunk and merging
  them with ``merge_storages_streaming`` — entries, key order and the
  early per-key-monotone filter — under any arrival order, duplicate
  delivery and late in-driver execution;
* a multiprocess result's pattern representatives do not depend on
  which worker shipped first.
"""

import multiprocessing
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FractalContext, MultiprocessConfig
from repro.apps import fsm, motifs
from repro.core.aggregation import (
    AggregationStorage,
    DomainSupport,
    decode_entries,
    encode_entries,
    merge_storages_streaming,
)
from repro.graph import erdos_renyi_graph
from repro.pattern import dfscode
from repro.pattern.pattern import Pattern
from repro.runtime.faults import FaultPlan, MpWorkerStall
from repro.runtime.metrics import Metrics
from repro.runtime.mp_backend import _ChunkFold, _encode_chunk

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="multiprocess backend requires fork start method",
)


# ----------------------------------------------------------------------
# Wire format round trip
# ----------------------------------------------------------------------
@st.composite
def connected_patterns(draw, max_vertices=6):
    """Random connected labeled patterns, the 1-vertex pattern included."""
    n = draw(st.integers(1, max_vertices))
    # Mostly small labels (the int8 packing), sometimes wide ones.
    label = st.one_of(st.integers(0, 4), st.integers(-3, 70000), st.just(2**40))
    vertex_labels = draw(st.lists(label, min_size=n, max_size=n))
    edge_label = st.integers(0, 2)
    edges = {}
    for v in range(1, n):  # a random spanning tree keeps it connected
        edges[(draw(st.integers(0, v - 1)), v)] = draw(edge_label)
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) not in edges and draw(st.booleans()):
                edges[(a, b)] = draw(edge_label)
    order = draw(st.permutations(range(n)))  # arbitrary vertex numbering
    return Pattern(
        [vertex_labels[order.index(v)] for v in range(n)],
        [(order[a], order[b], elabel) for (a, b), elabel in edges.items()],
    )


@settings(max_examples=150, deadline=None)
@given(st.lists(connected_patterns(), min_size=0, max_size=8))
def test_pattern_keys_round_trip_by_canonical_code(patterns):
    pairs = [(pattern, i) for i, pattern in enumerate(patterns)]
    buffer = encode_entries(pairs)
    codes = [pattern.canonical_code() for pattern in patterns]
    with mock.patch.object(
        dfscode, "minimum_dfs_code", side_effect=AssertionError("re-searched")
    ):
        decoded = decode_entries(buffer, {})
        assert [value for _, value in decoded] == list(range(len(patterns)))
        for (shipped, _), original, code in zip(decoded, patterns, codes):
            assert shipped.canonical_code() == code
            assert shipped == original and hash(shipped) == hash(original)
            n = shipped.n_vertices
            assert shipped.canonical_vertex_map() == tuple(range(n))
            assert (shipped.vertex_labels, shipped.edges) == (
                dfscode.code_to_edges(code)
            )
            assert shipped.ship_words() == original.ship_words()
    for (shipped, _), original in zip(decoded, patterns):
        assert (
            shipped.canonical_position_orbits()
            == original.canonical_position_orbits()
        )
        # The shipped structure really is the class the code names.
        rebuilt = Pattern(shipped.vertex_labels, shipped.edges)
        assert rebuilt.canonical_code() == original.canonical_code()


def test_decode_builds_one_pattern_per_distinct_code():
    triangle = Pattern.clique(3, label=5)
    same_class = Pattern([5, 5, 5], [(2, 0, 0), (1, 2, 0), (0, 1, 0)])
    patterns = {}
    first = decode_entries(encode_entries([(triangle, 1)]), patterns)
    second = decode_entries(
        encode_entries([(same_class, 2), (Pattern.single_vertex(9), 3)]),
        patterns,
    )
    assert first[0][0] is second[0][0]
    assert len(patterns) == 2


def test_other_key_types_and_values_pass_through_in_order():
    support = DomainSupport(2, n_positions=2)
    support.add_embedding([7, 8], [0, 1])
    pairs = [
        ("word", 1),
        (Pattern.single_vertex(3), [1, 2]),
        ((1, 2), support),
        (Pattern.clique(3), None),
        (17, 0.5),
    ]
    decoded = decode_entries(encode_entries(pairs), {})
    assert [key for key, _ in decoded] == [key for key, _ in pairs]
    assert decoded[1][1] == [1, 2] and decoded[3][1] is None
    assert decoded[2][1].domain_sizes() == (1, 1)
    assert decode_entries(encode_entries([]), {}) == []


def test_labeled_four_vertex_patterns_ship_compactly():
    """<= 80 bytes per entry over a 1 000-entry payload (slots took 143)."""
    pairs = []
    for a in range(10):
        for b in range(10):
            for c in range(10):
                labels = [a, b + 10, c + 20, 28]
                edges = [(0, 1, 0), (1, 2, 0), (2, 3, 0), (0, 3, 0), (0, 2, 0)]
                pairs.append((Pattern(labels, edges), a + b + c))
    assert len({pattern for pattern, _ in pairs}) == 1000
    per_entry = len(encode_entries(pairs)) / len(pairs)
    assert per_entry <= 80
    # The 6-edge clique is the largest 4-vertex code; it fits too.
    cliques = [
        (Pattern([a, b, 28, 28], Pattern.clique(4).edges), 1)
        for a in range(28)
        for b in range(a, 28)
    ]
    assert len(encode_entries(cliques)) / len(cliques) <= 80


# ----------------------------------------------------------------------
# In-order fold == per-chunk rebuild + streaming merge
# ----------------------------------------------------------------------
_KEY_POOL = [
    Pattern.single_vertex(1),
    Pattern.clique(3),
    Pattern.clique(3, label=2),
    Pattern([0, 1, 2], [(0, 1, 0), (1, 2, 1)]),
    Pattern([0, 0, 0, 0], [(0, 1, 0), (1, 2, 0), (2, 3, 0)]),
    Pattern.clique(4),
]
MIN_SUPPORT = 3
UID = 7


def _support(vertices):
    support = DomainSupport(MIN_SUPPORT, n_positions=2)
    for vertex in vertices:
        support.add_embedding([vertex, vertex + 1], [0, 1])
    return support


def _storage(filtered=True):
    if not filtered:
        return AggregationStorage("support", lambda a, b: a.aggregate(b))
    return AggregationStorage(
        "support",
        lambda a, b: a.aggregate(b),
        agg_filter=lambda key, support: support.has_enough_support(),
        filter_monotone=True,
    )


def _chunk_storage(chunk, filtered=True):
    storage = _storage(filtered)
    storage.merge_pairs(
        (_KEY_POOL[k], _support(vertices)) for k, vertices in chunk
    )
    return storage


def _view(storage):
    return [
        (key.canonical_code(), [sorted(d) for d in support._domains])
        for key, support in storage.entries()
    ]


chunk_lists = st.lists(
    st.lists(
        st.tuples(
            st.integers(0, len(_KEY_POOL) - 1),
            st.lists(st.integers(0, 9), min_size=1, max_size=3),
        ),
        max_size=6,
    ),
    min_size=1,
    max_size=7,
)


@settings(max_examples=120, deadline=None)
@given(chunk_lists, st.data())
def test_in_order_fold_equals_rebuild_and_streaming_merge(chunks, data):
    n = len(chunks)
    expected = merge_storages_streaming(
        [_chunk_storage(chunk) for chunk in chunks]
    )

    payloads = [
        _encode_chunk({UID: _chunk_storage(chunk)}, {"results_emitted": 1}, None)
        for chunk in chunks
    ]
    fold = _ChunkFold({UID: _storage()}, Metrics(), None)
    # One chunk is "quarantined": it reaches the fold only after every
    # other chunk, as if the driver had executed it last.
    late = data.draw(st.integers(0, n - 1))
    arrival = data.draw(st.permutations([c for c in range(n) if c != late]))
    for cidx in arrival:
        assert fold.ack(cidx, payloads[cidx])
        fold.fold_ready()
        assert fold.folded <= late
        # A re-executed chunk's second result is dropped, not folded.
        assert not fold.ack(cidx, payloads[late])
    assert fold.folded == late
    assert fold.ack(late, payloads[late])
    fold.fold_ready()
    assert fold.folded == n and fold.acked == set(range(n))
    assert fold.metrics.results_emitted == n

    folded = fold.storages[UID]
    unfiltered = merge_storages_streaming(
        [_chunk_storage(chunk, filtered=False) for chunk in chunks]
    )
    assert _view(folded) == _view(unfiltered)
    folded.prefilter()
    assert _view(folded) == _view(expected)
    assert list(folded.finalize()) == [key for key, _ in folded.entries()]


def test_fold_keeps_subgraphs_in_chunk_order():
    fold = _ChunkFold({}, Metrics(), "subgraphs")
    for cidx in (2, 0, 1):
        fold.ack(cidx, _encode_chunk({}, {}, [f"s{cidx}a", f"s{cidx}b"]))
        fold.fold_ready()
    assert fold.subgraphs == ["s0a", "s0b", "s1a", "s1b", "s2a", "s2b"]
    assert _ChunkFold({}, Metrics(), None).subgraphs is None


# ----------------------------------------------------------------------
# Representative independence on real worker processes
# ----------------------------------------------------------------------
def _perturbed(num_procs=2):
    """Worker 0 sleeps before its first chunk: arrival order changes,
    nothing times out, no chunk is re-executed."""
    plan = FaultPlan(
        mp_worker_stalls=(MpWorkerStall(worker_id=0, after_chunks=0, seconds=0.4),)
    )
    return MultiprocessConfig(num_procs=num_procs, fault_plan=plan)


def _representatives(mapping):
    return [(key.vertex_labels, key.edges) for key in mapping]


def _assert_position_numbered(mapping):
    for key in mapping:
        assert key.canonical_vertex_map() == tuple(range(key.n_vertices))
        assert (key.vertex_labels, key.edges) == dfscode.code_to_edges(
            key.canonical_code()
        )


@needs_fork
def test_motif_representatives_independent_of_arrival_order():
    graph = erdos_renyi_graph(40, 110, n_labels=3, seed=3)

    def run(engine):
        context = FractalContext(engine=engine)
        result = motifs(context.from_graph(graph), 3)
        summary = context.last_report.backend_summary()
        assert summary["backend"] == "multiprocess"
        assert summary["workers_lost"] == 0
        assert summary["entries_shipped"] >= len(result)
        assert summary["shipped_bytes"] > 0
        return result

    calm = run(MultiprocessConfig(num_procs=2))
    stalled = run(_perturbed())
    assert list(calm.items()) == list(stalled.items())
    assert _representatives(calm) == _representatives(stalled)
    _assert_position_numbered(calm)
    sequential = motifs(FractalContext().from_graph(graph), 3)
    assert dict(calm) == dict(sequential)


@needs_fork
def test_fsm_representatives_and_support_slots_independent_of_arrival_order():
    graph = erdos_renyi_graph(40, 110, n_labels=2, seed=3)

    def run(engine):
        return fsm(FractalContext(engine=engine).from_graph(graph), 3, 2).frequent

    calm = run(MultiprocessConfig(num_procs=2))
    stalled = run(_perturbed())
    assert calm and list(calm) == list(stalled)
    assert _representatives(calm) == _representatives(stalled)
    _assert_position_numbered(calm)
    sequential = run("sequential")
    assert set(calm) == set(sequential)
    for key, support in calm.items():
        # DomainSupport slots are orbit ids in canonical-position order.
        assert len(support._domains) == max(key.canonical_position_orbits()) + 1
        assert support._domains == stalled[key]._domains
        assert support._domains == sequential[key]._domains
