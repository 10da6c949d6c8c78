"""Tests for the simulated cluster engine and hierarchical work stealing."""

import pytest

from repro import ClusterConfig, FractalContext
from repro.graph import erdos_renyi_graph, powerlaw_graph

from conftest import brute_cliques, brute_connected_induced


def _clique_fractoid(context, graph, k):
    fg = context.from_graph(graph)
    return (
        fg.vfractoid()
        .expand(1)
        .filter(lambda s, c: s.edges_added_last() == s.n_vertices - 1)
        .explore(k)
    )


WS_CONFIGS = [
    ("disabled", ClusterConfig(workers=2, cores_per_worker=3, ws_internal=False, ws_external=False)),
    ("internal", ClusterConfig(workers=2, cores_per_worker=3, ws_internal=True, ws_external=False)),
    ("external", ClusterConfig(workers=2, cores_per_worker=3, ws_internal=False, ws_external=True)),
    ("both", ClusterConfig(workers=2, cores_per_worker=3, ws_internal=True, ws_external=True)),
]


class TestResultEquivalence:
    @pytest.mark.parametrize("name,config", WS_CONFIGS)
    def test_cliques_match_sequential(self, name, config):
        graph = erdos_renyi_graph(30, 80, seed=3)
        count = _clique_fractoid(FractalContext(), graph, 3).count()
        cluster = _clique_fractoid(FractalContext(engine=config), graph, 3)
        assert cluster.count() == count == brute_cliques(graph, 3)

    def test_induced_subgraph_counts(self):
        graph = erdos_renyi_graph(25, 60, seed=7)
        config = ClusterConfig(workers=3, cores_per_worker=2)
        fg = FractalContext(engine=config).from_graph(graph)
        assert fg.vfractoid().expand(3).count() == brute_connected_induced(
            graph, 3
        )

    def test_aggregation_matches_sequential(self):
        graph = erdos_renyi_graph(25, 60, n_labels=3, seed=8)
        def census(engine):
            fg = FractalContext(engine=engine).from_graph(graph)
            return (
                fg.vfractoid()
                .expand(3)
                .aggregate(
                    "motifs",
                    key_fn=lambda s, c: s.pattern(),
                    value_fn=lambda s, c: 1,
                    reduce_fn=lambda a, b: a + b,
                )
                .aggregation("motifs")
            )
        seq = census("sequential")
        par = census(ClusterConfig(workers=2, cores_per_worker=4))
        assert {k.canonical_code(): v for k, v in seq.items()} == {
            k.canonical_code(): v for k, v in par.items()
        }

    def test_determinism(self):
        graph = powerlaw_graph(60, attach=3, seed=5)
        config = ClusterConfig(workers=2, cores_per_worker=3)
        r1 = _clique_fractoid(FractalContext(engine=config), graph, 3).execute()
        r2 = _clique_fractoid(FractalContext(engine=config), graph, 3).execute()
        assert r1.result_count == r2.result_count
        assert r1.simulated_seconds == r2.simulated_seconds
        assert r1.metrics.steals_internal == r2.metrics.steals_internal


class TestWorkStealing:
    def test_steals_happen_on_skewed_input(self):
        graph = powerlaw_graph(80, attach=4, seed=2)
        config = ClusterConfig(workers=2, cores_per_worker=4)
        report = _clique_fractoid(
            FractalContext(engine=config), graph, 3
        ).execute()
        assert report.metrics.steals_internal > 0

    def test_internal_preferred_over_external(self):
        graph = powerlaw_graph(80, attach=4, seed=2)
        config = ClusterConfig(workers=2, cores_per_worker=4)
        report = _clique_fractoid(
            FractalContext(engine=config), graph, 3
        ).execute()
        assert report.metrics.steals_internal >= report.metrics.steals_external

    def test_disabled_ws_has_no_steals(self):
        graph = powerlaw_graph(80, attach=4, seed=2)
        config = ClusterConfig(
            workers=2, cores_per_worker=4, ws_internal=False, ws_external=False
        )
        report = _clique_fractoid(
            FractalContext(engine=config), graph, 3
        ).execute()
        assert report.metrics.steals_internal == 0
        assert report.metrics.steals_external == 0

    def test_external_only_sends_messages(self):
        graph = powerlaw_graph(80, attach=4, seed=2)
        config = ClusterConfig(
            workers=2, cores_per_worker=4, ws_internal=False, ws_external=True
        )
        report = _clique_fractoid(
            FractalContext(engine=config), graph, 3
        ).execute()
        assert report.metrics.steals_external > 0
        assert report.metrics.steal_messages == 2 * report.metrics.steals_external

    def test_balancing_reduces_makespan(self):
        graph = powerlaw_graph(120, attach=4, seed=9)
        base = ClusterConfig(
            workers=2, cores_per_worker=4, ws_internal=False, ws_external=False,
            include_setup_overhead=False,
        )
        balanced = ClusterConfig(
            workers=2, cores_per_worker=4, ws_internal=True, ws_external=True,
            include_setup_overhead=False,
        )
        t_base = _clique_fractoid(
            FractalContext(engine=base), graph, 4
        ).execute().simulated_seconds
        t_balanced = _clique_fractoid(
            FractalContext(engine=balanced), graph, 4
        ).execute().simulated_seconds
        assert t_balanced < t_base


class TestScaling:
    def test_more_cores_is_faster(self):
        graph = powerlaw_graph(100, attach=4, seed=4)
        times = []
        for cores in (1, 4, 8):
            config = ClusterConfig(
                workers=1, cores_per_worker=cores, include_setup_overhead=False
            )
            report = _clique_fractoid(
                FractalContext(engine=config), graph, 4
            ).execute()
            times.append(report.simulated_seconds)
        assert times[1] < times[0]
        assert times[2] < times[1]

    def test_makespan_at_least_work_over_cores(self):
        graph = erdos_renyi_graph(40, 110, seed=6)
        config = ClusterConfig(
            workers=2, cores_per_worker=4, include_setup_overhead=False
        )
        report = _clique_fractoid(
            FractalContext(engine=config), graph, 3
        ).execute()
        step = report.steps[0]
        total_busy = sum(c.busy_units for c in step.cluster.cores)
        assert step.cluster.makespan_units >= total_busy / 8


class TestReports:
    def test_setup_overhead_included(self):
        graph = erdos_renyi_graph(20, 40, seed=1)
        config = ClusterConfig(workers=1, cores_per_worker=2)
        report = _clique_fractoid(
            FractalContext(engine=config), graph, 3
        ).execute()
        assert report.setup_seconds == config.cost_model.setup_overhead_s
        assert report.total_seconds > report.simulated_seconds

    def test_core_reports_complete(self):
        graph = erdos_renyi_graph(30, 80, seed=3)
        config = ClusterConfig(workers=2, cores_per_worker=2)
        report = _clique_fractoid(
            FractalContext(engine=config), graph, 3
        ).execute()
        cores = report.steps[0].cluster.cores
        assert len(cores) == 4
        assert {c.worker_id for c in cores} == {0, 1}
        assert all(c.finish_units >= c.busy_units * 0 for c in cores)

    def test_timeline_recording(self):
        graph = erdos_renyi_graph(30, 80, seed=3)
        config = ClusterConfig(
            workers=1, cores_per_worker=4, record_timeline=True
        )
        report = _clique_fractoid(
            FractalContext(engine=config), graph, 3
        ).execute()
        cores = report.steps[0].cluster.cores
        assert any(c.busy_intervals for c in cores)
        for core in cores:
            for start, end in core.busy_intervals:
                assert end > start

    def test_memory_tracking(self):
        graph = erdos_renyi_graph(30, 80, seed=3)
        config = ClusterConfig(workers=1, cores_per_worker=2)
        report = _clique_fractoid(
            FractalContext(engine=config), graph, 4
        ).execute()
        assert report.metrics.peak_enumerator_bytes > 0
