"""Two-level aggregation pipeline: equivalence and metering properties.

The pipeline's correctness contract: for commutative/associative reduce
functions, neither the merge order nor the hash partitioning may change
a finalized aggregation view.  The hypothesis suites below drive
randomized key/value streams and cluster shapes through every
combination and compare against the seed's flat sequential merge; the
app-level tests re-assert the same on real motifs/FSM workloads,
including the update_fn (in-place combining) path and the early
(streaming, per-key-monotone) aggregation filter.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterConfig, FractalContext
from repro.apps import fsm, motifs
from repro.core.aggregation import (
    AggregationStorage,
    merge_storages_streaming,
    ship_words,
    stable_partition,
)
from repro.graph import mico_like
from repro.runtime.costmodel import CostModel

# ----------------------------------------------------------------------
# Strategies: streams of (key, value) records partitioned across cores
# ----------------------------------------------------------------------
_records = st.lists(
    st.tuples(st.integers(min_value=0, max_value=12), st.integers(-50, 50)),
    max_size=80,
)
_core_streams = st.lists(_records, min_size=1, max_size=6)


def _flat_seed_merge(storages):
    """The seed's collection loop: flat merge in core order."""
    merged = None
    for storage in storages:
        if merged is None:
            merged = storage
        else:
            merged.merge(storage)
    return merged


def _fill(storage, records):
    for key, value in records:
        storage.add(key, value)
    return storage


@settings(max_examples=60, deadline=None)
@given(streams=_core_streams)
def test_streaming_merge_matches_flat_merge(streams):
    """Streaming k-way merge == the seed's sequential merge, byte for byte."""
    reduce_fn = lambda a, b: a + b
    build = lambda: [
        _fill(AggregationStorage("s", reduce_fn), records) for records in streams
    ]
    expected = _flat_seed_merge(build()).finalize().to_dict()
    actual = merge_storages_streaming(build()).finalize().to_dict()
    assert actual == expected
    # Byte-identical under default config: key order matches too.
    assert list(actual) == list(expected)


@settings(max_examples=60, deadline=None)
@given(streams=_core_streams, threshold=st.integers(-20, 20))
def test_early_monotone_filter_matches_late_filter(streams, threshold):
    """A per-key-monotone agg_filter applied during the merge == finalize."""
    reduce_fn = lambda a, b: a + b
    agg_filter = lambda key, value: value >= threshold

    def build(monotone):
        return [
            _fill(
                AggregationStorage("s", reduce_fn, agg_filter, monotone), records
            )
            for records in streams
        ]

    late = merge_storages_streaming(build(False)).finalize().to_dict()
    early = merge_storages_streaming(build(True)).finalize().to_dict()
    assert early == late
    assert list(early) == list(late)


@settings(max_examples=40, deadline=None)
@given(
    streams=_core_streams,
    n_partitions=st.integers(min_value=1, max_value=8),
)
def test_partitioning_covers_all_keys_deterministically(streams, n_partitions):
    """Hash partitioning is stable, total, and never changes merged data."""
    reduce_fn = lambda a, b: a + b
    merged = merge_storages_streaming(
        [_fill(AggregationStorage("s", reduce_fn), r) for r in streams]
    )
    parts = {}
    for key, value in merged.entries():
        p = stable_partition(key, n_partitions)
        assert 0 <= p < max(1, n_partitions)
        assert stable_partition(key, n_partitions) == p  # repeatable
        parts.setdefault(p, {})[key] = value
    reassembled = {}
    for p in sorted(parts):
        reassembled.update(parts[p])
    assert reassembled == merged.finalize().to_dict()


@settings(max_examples=40, deadline=None)
@given(streams=_core_streams)
def test_update_fn_path_equals_add_path(streams):
    """add_inplace(update_fn) must equal add(value_fn) record by record."""
    reduce_fn = lambda a, b: a + b
    plain = AggregationStorage("s", reduce_fn)
    inplace = AggregationStorage("s", reduce_fn)
    value_fn = lambda subgraph, computation: subgraph  # records pose as values
    update_fn = lambda value, subgraph, computation: value + subgraph
    for records in streams:
        for key, value in records:
            plain.add(key, value)
            inplace.add_inplace(key, value, None, value_fn, update_fn)
    assert plain.finalize().to_dict() == inplace.finalize().to_dict()


def test_ship_words_shapes():
    assert ship_words(7) == 1
    assert ship_words("abcd") == 4
    assert ship_words((1, 2, 3)) == 3
    assert ship_words(()) == 1

    class Custom:
        def ship_words(self):
            return 42

    assert ship_words(Custom()) == 42


def test_stable_partition_is_process_independent_for_strings():
    # str hash randomization must not leak into partition choice.
    assert stable_partition("pattern-key", 7) == stable_partition("pattern-key", 7)
    assert stable_partition((1, "a", 2), 5) == stable_partition((1, "a", 2), 5)


# ----------------------------------------------------------------------
# App-level equivalence on the simulated cluster
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_graph():
    return mico_like(scale=0.25)


CLUSTER_SHAPES = [
    ClusterConfig(workers=1, cores_per_worker=4),
    ClusterConfig(workers=2, cores_per_worker=3),
    ClusterConfig(workers=3, cores_per_worker=2),
]


@pytest.mark.parametrize("config", CLUSTER_SHAPES)
def test_motifs_views_identical_across_pipeline_configs(small_graph, config):
    expected = motifs(FractalContext().from_graph(small_graph), 3)
    actual = motifs(FractalContext(engine=config).from_graph(small_graph), 3)
    assert dict(actual) == dict(expected)


@pytest.mark.parametrize("config", CLUSTER_SHAPES)
def test_fsm_results_identical_across_pipeline_configs(small_graph, config):
    expected = fsm(
        FractalContext().from_graph(small_graph), min_support=5, max_edges=2
    )
    actual = fsm(
        FractalContext(engine=config).from_graph(small_graph),
        min_support=5,
        max_edges=2,
    )
    assert set(actual.frequent) == set(expected.frequent)
    for pattern in expected.frequent:
        assert actual.support_of(pattern) == expected.support_of(pattern)


def test_metered_shuffle_reaches_report_and_makespan(small_graph):
    config = ClusterConfig(workers=2, cores_per_worker=2)
    context = FractalContext(engine=config)
    motifs(context.from_graph(small_graph), 3)
    report = context.last_report
    summary = report.aggregation_shuffle_summary()
    assert summary["entries_shipped"] > 0
    assert summary["ship_units"] > 0
    assert summary["combine_units"] > 0
    assert summary["messages"] > 0
    assert 0.0 < summary["combine_ratio"] <= 1.0
    assert report.metrics.agg_ship_units > 0
    # The shuffle charge lands on exactly one core per worker.
    step = report.steps[-1].cluster
    chargers = [c for c in step.cores if c.agg_ship_units > 0]
    assert len(chargers) == config.workers
    assert all(c.agg_entries_shipped > 0 for c in chargers)
    # The charge is on those cores' clocks: what they report is the whole
    # metered combine + ship cost, and it is part of their busy time.
    charged = sum(c.agg_ship_units for c in chargers)
    assert charged == pytest.approx(
        report.metrics.agg_ship_units + report.metrics.agg_combine_units
    )
    assert all(c.busy_units > c.agg_ship_units for c in chargers)


def test_agg_messages_separate_from_steal_messages(small_graph):
    config = ClusterConfig(workers=2, cores_per_worker=2, ws_internal=False)
    context = FractalContext(engine=config)
    motifs(context.from_graph(small_graph), 3)
    metrics = context.last_report.metrics
    # Steal messages still follow the 2-per-external-steal protocol;
    # aggregation traffic is counted on its own meter.
    assert metrics.steal_messages == 2 * metrics.steals_external
    assert metrics.agg_messages > 0


def test_peak_aggregation_entries_populated_on_cluster(small_graph):
    config = ClusterConfig(workers=2, cores_per_worker=2)
    context = FractalContext(engine=config)
    motifs(context.from_graph(small_graph), 3)
    assert context.last_report.metrics.peak_aggregation_entries > 0


def test_agg_cost_model_helpers():
    cost = CostModel()
    assert cost.agg_combine_cost(10) == 10 * cost.agg_combine_units_per_entry
    assert cost.agg_ship_cost(0, 0, 0) == 0.0
    assert cost.agg_ship_cost(4, 20, 2) == (
        4 * cost.agg_ship_units_per_entry
        + 20 * cost.agg_ship_units_per_word
        + 2 * cost.agg_message_units
    )


def test_subgraph_pattern_memo_invalidated_by_mutation(small_graph):
    from repro.core.subgraph import Subgraph

    subgraph = Subgraph(small_graph)
    v0 = next(iter(small_graph.vertices()))
    subgraph.push_vertex(v0, [])
    first = subgraph.pattern_with_positions()
    assert subgraph.pattern_with_positions() is first  # memo hit
    neighbors = [u for u, _ in small_graph.neighborhood(v0)]
    if neighbors:
        eid = small_graph.edge_between(v0, neighbors[0])
        subgraph.push_vertex(neighbors[0], [eid] if eid is not None else [])
        second = subgraph.pattern_with_positions()
        assert second is not first
        assert second[0].n_vertices == 2
        subgraph.pop()
    assert subgraph.pattern_with_positions()[0] is first[0]
