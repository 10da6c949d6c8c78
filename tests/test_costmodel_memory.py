"""Tests for the cost model and the Table 2 memory model."""

import pytest

from repro.graph import erdos_renyi_graph, wikidata_like
from repro.runtime import DEFAULT_COST_MODEL, CostModel, MemoryModel, Metrics


class TestCostModel:
    def test_seconds_conversion(self):
        cost = CostModel(units_per_second=1000.0)
        assert cost.seconds(2000.0) == 2.0

    def test_specialized_rate(self):
        cost = CostModel(units_per_second=1000.0, framework_factor=2.0)
        assert cost.specialized_seconds(2000.0) == 1.0

    def test_step_units_weights(self):
        metrics = Metrics()
        metrics.extension_tests = 10
        metrics.filter_calls = 5
        metrics.aggregate_updates = 2
        metrics.subgraphs_enumerated = 3
        metrics.results_emitted = 1
        cost = DEFAULT_COST_MODEL
        expected = (
            10 * cost.extension_test_units
            + 5 * cost.filter_units
            + 2 * cost.aggregate_units
            + 3 * cost.subgraph_units
            + 1 * cost.emit_units
        )
        assert cost.step_units(metrics) == expected

    def test_external_steal_costlier_than_internal(self):
        cost = DEFAULT_COST_MODEL
        assert cost.steal_external_cost(1) > cost.steal_internal_cost()

    def test_external_steal_grows_with_prefix(self):
        cost = DEFAULT_COST_MODEL
        assert cost.steal_external_cost(5) > cost.steal_external_cost(1)

    def test_frozen(self):
        import dataclasses

        import pytest

        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_COST_MODEL.units_per_second = 1.0  # type: ignore


# Peaks merge by max; every other counter sums.  The simulated-unit
# counters (``*_units``) are floats, every other counter an int.
_PEAKS = ("peak_enumerator_bytes", "peak_aggregation_entries")


def _counter_type(name):
    return float if name.endswith("_units") else int


class TestMetrics:
    @pytest.mark.parametrize("name", Metrics.__slots__)
    def test_merge_rule(self, name):
        kind = _counter_type(name)
        assert type(getattr(Metrics(), name)) is kind
        a, b = Metrics(), Metrics()
        setattr(a, name, kind(3))
        setattr(b, name, kind(5))
        a.merge(b)
        merged = getattr(a, name)
        assert merged == (5 if name in _PEAKS else 8)
        assert type(merged) is kind
        # The merge touched no other counter.
        others = {k: v for k, v in a.snapshot().items() if k != name}
        assert not any(others.values())

    def test_worker_delta_round_trip(self):
        """Merging ``later.delta_since(earlier)`` into the earlier bundle
        gives the later one; peaks travel absolute."""
        earlier = Metrics()
        for i, name in enumerate(Metrics.__slots__):
            setattr(earlier, name, _counter_type(name)(i + 1))
        before = earlier.snapshot()
        later = Metrics.from_snapshot(before)
        for i, name in enumerate(Metrics.__slots__):
            setattr(later, name, getattr(later, name) + _counter_type(name)(i % 4))
        delta = later.delta_since(before)
        assert list(delta) == list(Metrics.__slots__)
        for name in _PEAKS:
            assert delta[name] == getattr(later, name)
        earlier.merge(Metrics.from_snapshot(delta))

        def typed(metrics):
            return [(k, type(v), v) for k, v in metrics.snapshot().items()]

        assert typed(earlier) == typed(later)

    def test_snapshot_round_trip(self):
        metrics = Metrics()
        metrics.extension_tests = 7
        snap = metrics.snapshot()
        assert snap["extension_tests"] == 7
        assert set(snap) == set(Metrics.__slots__)


class TestMemoryModel:
    def test_graph_bytes_monotone_in_size(self):
        model = MemoryModel()
        small = erdos_renyi_graph(10, 20, seed=1)
        large = erdos_renyi_graph(100, 300, seed=1)
        assert model.graph_bytes(large) > model.graph_bytes(small)

    def test_keyword_graphs_cost_more(self):
        model = MemoryModel()
        graph = wikidata_like(scale=0.2)
        bare = erdos_renyi_graph(
            graph.n_vertices, graph.n_edges, seed=1
        )
        assert model.graph_bytes(graph) > model.graph_bytes(bare)

    def test_fractal_worker_flat_in_state(self):
        model = MemoryModel()
        graph = erdos_renyi_graph(50, 150, seed=2)
        shallow = model.fractal_worker_bytes(graph, 1_000, 10, 4)
        deep = model.fractal_worker_bytes(graph, 1_500, 10, 4)
        # Enumerator growth is additive and tiny relative to the base.
        assert deep > shallow
        assert (deep - shallow) < model.worker_base_bytes

    def test_arabesque_worker_grows_with_level_state(self):
        model = MemoryModel()
        graph = erdos_renyi_graph(50, 150, seed=2)
        small = model.arabesque_worker_bytes(graph, 10_000)
        big = model.arabesque_worker_bytes(graph, 10_000_000)
        assert big - small == 10_000_000 - 10_000

    def test_report_gb(self):
        model = MemoryModel(report_gb_per_byte=0.5)
        assert model.to_report_gb(10) == 5.0
