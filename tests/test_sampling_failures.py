"""Tests for the sampling enumerator and failure injection/recovery."""

import pytest

from repro import ClusterConfig, FractalContext
from repro.apps import approximate_motifs, motifs, sampled_vfractoid
from repro.graph import erdos_renyi_graph, powerlaw_graph
from repro.runtime.faults import CoreFailure, FaultPlan


def _kills(*failures):
    """A plan that kills each ``(core_id, at)`` core."""
    return FaultPlan(core_failures=tuple(CoreFailure(*f) for f in failures))


class TestSampling:
    def test_probability_one_is_exact(self):
        graph = erdos_renyi_graph(25, 60, seed=4)
        exact = FractalContext().from_graph(graph).vfractoid().expand(3).count()
        sampled = sampled_vfractoid(
            FractalContext().from_graph(graph), probability=1.0
        ).expand(3).count()
        assert sampled == exact

    def test_sampling_reduces_work(self):
        graph = erdos_renyi_graph(30, 90, seed=5)
        full = sampled_vfractoid(
            FractalContext().from_graph(graph), probability=1.0
        ).expand(3).execute(collect="count")
        half = sampled_vfractoid(
            FractalContext().from_graph(graph), probability=0.5, seed=1
        ).expand(3).execute(collect="count")
        assert half.result_count < full.result_count
        assert (
            half.metrics.subgraphs_enumerated < full.metrics.subgraphs_enumerated
        )

    def test_determinism_per_seed(self):
        graph = erdos_renyi_graph(30, 90, seed=5)

        def run(seed):
            return sampled_vfractoid(
                FractalContext().from_graph(graph), probability=0.6, seed=seed
            ).expand(3).count()

        assert run(7) == run(7)
        assert run(7) != run(8) or run(7) != run(9)  # seeds vary draws

    def test_steal_safety(self):
        """Stolen prefixes make identical sampling decisions."""
        graph = powerlaw_graph(60, attach=4, seed=6)
        sequential = sampled_vfractoid(
            FractalContext().from_graph(graph), probability=0.7, seed=3
        ).expand(3).count()
        config = ClusterConfig(workers=2, cores_per_worker=4)
        parallel = sampled_vfractoid(
            FractalContext(engine=config).from_graph(graph),
            probability=0.7,
            seed=3,
        ).expand(3).count()
        assert parallel == sequential

    def test_invalid_probability(self):
        graph = erdos_renyi_graph(10, 15, seed=1)
        with pytest.raises(ValueError):
            sampled_vfractoid(
                FractalContext().from_graph(graph), probability=0.0
            ).expand(1).count()

    def test_estimator_accuracy(self):
        """Averaged over seeds, estimates land near the true census."""
        graph = erdos_renyi_graph(30, 90, n_labels=1, seed=7)
        truth = motifs(FractalContext().from_graph(graph), 3)
        seeds = range(12)
        totals = {}
        for seed in seeds:
            estimate = approximate_motifs(
                FractalContext().from_graph(graph), 3, probability=0.7, seed=seed
            )
            for pattern, value in estimate.items():
                totals[pattern.canonical_code()] = (
                    totals.get(pattern.canonical_code(), 0.0) + value
                )
        for pattern, true_count in truth.items():
            mean = totals.get(pattern.canonical_code(), 0.0) / len(seeds)
            assert mean == pytest.approx(true_count, rel=0.35), pattern

    def test_validates_k(self):
        graph = erdos_renyi_graph(10, 15, seed=1)
        with pytest.raises(ValueError):
            approximate_motifs(
                FractalContext().from_graph(graph), 0, probability=0.5
            )


class TestFailureInjection:
    def _clique_count(self, graph, config):
        return (
            FractalContext(engine=config)
            .from_graph(graph)
            .vfractoid()
            .expand(1)
            .filter(lambda s, c: s.edges_added_last() == s.n_vertices - 1)
            .explore(3)
            .execute(collect="count")
        )

    def test_results_survive_failures(self):
        graph = powerlaw_graph(100, attach=5, seed=8)
        healthy = self._clique_count(
            graph, ClusterConfig(workers=2, cores_per_worker=4)
        )
        injected = self._clique_count(
            graph,
            ClusterConfig(
                workers=2,
                cores_per_worker=4,
                fault_plan=_kills((0, 50.0), (5, 120.0)),
            ),
        )
        assert injected.result_count == healthy.result_count
        assert (
            injected.metrics.subgraphs_enumerated
            == healthy.metrics.subgraphs_enumerated
        )

    def test_failed_cores_reported(self):
        graph = powerlaw_graph(100, attach=5, seed=8)
        report = self._clique_count(
            graph,
            ClusterConfig(
                workers=2, cores_per_worker=4, fault_plan=_kills((0, 50.0))
            ),
        )
        cores = report.steps[-1].cluster.cores
        assert cores[0].failed
        assert sum(1 for c in cores if c.failed) == 1

    def test_survivors_absorb_orphaned_work(self):
        graph = powerlaw_graph(100, attach=5, seed=8)
        report = self._clique_count(
            graph,
            ClusterConfig(
                workers=2, cores_per_worker=4, fault_plan=_kills((0, 10.0))
            ),
        )
        # The dead core stops early; someone must steal from it.
        total_steals = (
            report.metrics.steals_internal + report.metrics.steals_external
        )
        assert total_steals > 0

    def test_recovery_without_stealing(self):
        """With stealing off, orphans are recovered by driver resubmission."""
        graph = powerlaw_graph(100, attach=5, seed=8)
        config = ClusterConfig(
            workers=2, cores_per_worker=4, ws_internal=False, ws_external=False
        )
        healthy = self._clique_count(graph, config)
        injected = self._clique_count(
            graph,
            ClusterConfig(
                workers=2,
                cores_per_worker=4,
                ws_internal=False,
                ws_external=False,
                fault_plan=_kills((0, 10.0)),
            ),
        )
        assert injected.result_count == healthy.result_count
        cluster = injected.steps[-1].cluster
        assert cluster.failures == 1
        assert cluster.recovered_frames > 0  # the driver-level fallback ran
        assert injected.metrics.reenumerated_extensions > 0

    def test_failure_of_every_core_but_one(self):
        graph = powerlaw_graph(60, attach=4, seed=9)
        healthy = self._clique_count(
            graph, ClusterConfig(workers=1, cores_per_worker=4)
        )
        config = ClusterConfig(
            workers=1,
            cores_per_worker=4,
            fault_plan=_kills((0, 5.0), (1, 5.0), (2, 5.0)),
        )
        report = self._clique_count(graph, config)
        assert report.result_count == healthy.result_count
