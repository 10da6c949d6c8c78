"""Tests for the execution-backend seam and the multiprocess backend.

The contract under test: the deterministic simulator stays the default
and byte-identical to the seed behaviour, while the multiprocess backend
(real worker processes attached to shared-memory CSR buffers) produces
the same counts and aggregates as the sequential engine on every
application.  Pattern *objects* compare by canonical DFS code, so
cross-process results are compared with set/dict equality; every interner
holds the same representative of a class (the code's own structure).
"""

import dataclasses
import multiprocessing

import pytest

from repro import ClusterConfig, FractalContext, MultiprocessConfig
from repro.apps import QUERY_PATTERNS, count_cliques, fsm, motifs
from repro.apps.queries import query_fractoid
from repro.graph import GraphBuilder, community_graph, erdos_renyi_graph
from repro.pattern import dfscode
from repro.runtime.backend import (
    SequentialBackend,
    SimulatorBackend,
    resolve_backend,
)
from repro.runtime.costmodel import DEFAULT_COST_MODEL
from repro.runtime.faults import FaultPlan, MpWorkerKill
from repro.runtime.mp_backend import (
    MultiprocessBackend,
    fork_unavailable_message,
)

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    not HAVE_FORK, reason="multiprocess backend requires fork start method"
)


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_graph(40, 110, n_labels=2, seed=3)


def _motifs(engine, graph, k=3):
    fc = FractalContext(engine=engine)
    return motifs(fc.from_graph(graph), k)


class TestBackendResolution:
    def test_sequential_string(self):
        backend = resolve_backend("sequential", DEFAULT_COST_MODEL)
        assert isinstance(backend, SequentialBackend)

    def test_cluster_config_resolves_to_simulator(self):
        config = ClusterConfig(workers=2, cores_per_worker=2)
        assert isinstance(
            resolve_backend(config, DEFAULT_COST_MODEL), SimulatorBackend
        )

    @needs_fork
    def test_mp_config_resolves_to_multiprocess(self):
        config = MultiprocessConfig(num_procs=2)
        backend = resolve_backend(config, DEFAULT_COST_MODEL)
        try:
            assert isinstance(backend, MultiprocessBackend)
        finally:
            backend.close()

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_backend("spark", DEFAULT_COST_MODEL)

    def test_bad_mp_config_rejected(self):
        with pytest.raises(ValueError):
            MultiprocessConfig(num_procs=0)

    @pytest.mark.parametrize("config", [ClusterConfig, MultiprocessConfig])
    def test_no_engine_partitions_the_graph(self, config):
        # Every worker holds the whole graph (paper §4.2): no engine
        # config has a field that assigns vertices to workers.
        assert "partition" not in {f.name for f in dataclasses.fields(config)}
        with pytest.raises(TypeError):
            config(**{"partition": "hash"})


@needs_fork
class TestMultiprocessEquivalence:
    def test_motifs_match_sequential(self, graph):
        seq = _motifs("sequential", graph)
        mp = _motifs(MultiprocessConfig(num_procs=2), graph)
        assert dict(mp) == dict(seq)

    def test_motifs_match_simulator(self, graph):
        sim = _motifs(ClusterConfig(workers=2, cores_per_worker=2), graph)
        mp = _motifs(MultiprocessConfig(num_procs=2), graph)
        assert dict(mp) == dict(sim)

    def test_cliques_match(self, graph):
        fc_seq = FractalContext()
        fc_mp = FractalContext(engine=MultiprocessConfig(num_procs=2))
        k = 4
        assert count_cliques(fc_mp.from_graph(graph), k) == count_cliques(
            fc_seq.from_graph(graph), k
        )

    def test_fsm_match(self):
        graph = community_graph(3, 10, p_in=0.4, p_out=0.05, n_labels=3, seed=5)
        fc_seq = FractalContext()
        fc_mp = FractalContext(engine=MultiprocessConfig(num_procs=2))
        f_seq = fsm(fc_seq.from_graph(graph), min_support=3, max_edges=2)
        f_mp = fsm(fc_mp.from_graph(graph), min_support=3, max_edges=2)
        assert set(f_mp.frequent) == set(f_seq.frequent)
        assert {p: f_mp.support_of(p) for p in f_mp.frequent} == {
            p: f_seq.support_of(p) for p in f_seq.frequent
        }

    def test_subgraph_collection(self, graph):
        fc_seq = FractalContext()
        fc_mp = FractalContext(engine=MultiprocessConfig(num_procs=2))
        seq = fc_seq.from_graph(graph).vfractoid().expand(1).explore(1)
        mp = fc_mp.from_graph(graph).vfractoid().expand(1).explore(1)
        assert set(s.vertices for s in mp.subgraphs()) == set(
            s.vertices for s in seq.subgraphs()
        )


@needs_fork
class TestKeyRepresentativesAgree:
    """A motif key's ``(vertex_labels, edges)`` is the structure its
    canonical code denotes — not whichever subgraph a backend happened to
    see first, and not a function of vertex ids."""

    @staticmethod
    def _representatives(engine, graph):
        return {
            p.canonical_code(): (p.vertex_labels, p.edges)
            for p in _motifs(engine, graph)
        }

    def test_across_backends_and_relabeling(self):
        import random

        graph = erdos_renyi_graph(40, 110, n_labels=4, seed=3)
        # An isomorphic copy: permuted vertex ids, shuffled edge order.
        rng = random.Random(11)
        new_id = list(range(graph.n_vertices))
        rng.shuffle(new_id)
        old_id = sorted(range(graph.n_vertices), key=new_id.__getitem__)
        builder = GraphBuilder()
        for old in old_id:
            builder.add_vertex(label=graph.vertex_label(old))
        edges = [(new_id[u], new_id[v], l) for u, v, l in graph.iter_edge_tuples()]
        rng.shuffle(edges)
        for u, v, label in edges:
            builder.add_edge(u, v, label=label)

        sequential = self._representatives("sequential", graph)
        assert len(sequential) > 20
        assert self._representatives(
            ClusterConfig(workers=2, cores_per_worker=2), graph
        ) == sequential
        assert self._representatives(
            MultiprocessConfig(num_procs=2), graph
        ) == sequential
        assert self._representatives("sequential", builder.build()) == sequential


@needs_fork
class TestBackendSummary:
    def test_backend_summary_reports_shape(self, graph):
        fc = FractalContext(engine=MultiprocessConfig(num_procs=2))
        motifs(fc.from_graph(graph), 3)
        summary = fc.last_report.backend_summary()
        assert summary["backend"] == "multiprocess"
        assert summary["num_procs"] == 2
        assert summary["start_method"] == "fork"
        assert summary["shared_graph_bytes"] > 0

    def test_fold_seconds_is_the_drivers_share_of_the_wall(self):
        """The decode-and-reduce the driver does while workers enumerate
        is inside ``wall_seconds`` and invisible to every worker clock."""
        labeled = erdos_renyi_graph(60, 200, n_labels=6, seed=5)
        fc = FractalContext(engine=MultiprocessConfig(num_procs=2))
        census = motifs(fc.from_graph(labeled), 3)
        assert len(census) > 20
        summary = fc.last_report.backend_summary()
        assert 0 < summary["fold_seconds"] <= summary["wall_seconds"]
        assert summary["fold_cpu_seconds"] > 0
        info = fc.last_report.steps[-1].backend_info
        assert summary["fold_seconds"] == info["fold_seconds"]
        assert summary["fold_cpu_seconds"] == info["fold_cpu_seconds"]
        assert summary["automaton"] == info["automaton"]
        for engine in ("sequential", ClusterConfig(workers=2, cores_per_worker=2)):
            other = FractalContext(engine=engine)
            assert motifs(other.from_graph(labeled), 3) == census
            summary = other.last_report.backend_summary()
            for key in ("fold_seconds", "fold_cpu_seconds", "automaton"):
                assert key not in summary


def _automaton_tables():
    """The driver's canonicalization tables, keyed by rank structure."""

    def key(node):
        return (node.vranks, node.redges)

    nodes = dfscode._NODES
    return {
        "nodes": set(nodes),
        "transitions": {
            (key(parent), transition): key(child)
            for parent in (dfscode.ROOT, *nodes.values())
            for transition, child in parent.children.items()
        },
        "templates": {
            k: (node.template.code, node.mapping)
            for k, node in nodes.items()
            if node.template is not None
        },
    }


@needs_fork
class TestWorkersHandBackTheAutomaton:
    """What forked workers add to the rank automaton of
    ``repro.pattern.dfscode`` joins the driver's tables, so the next
    fork starts warm; results never depend on it."""

    @pytest.fixture(scope="class")
    def labeled(self):
        return erdos_renyi_graph(50, 160, n_labels=4, seed=9)

    def test_driver_tables_equal_a_sequential_run(self, labeled):
        dfscode.clear_code_cache()
        sequential = _motifs("sequential", labeled)
        expected = _automaton_tables()
        assert len(expected["templates"]) > 20
        dfscode.clear_code_cache()
        fc = FractalContext(engine=MultiprocessConfig(num_procs=2))
        assert motifs(fc.from_graph(labeled), 3) == sequential
        assert _automaton_tables() == expected
        absorbed = fc.last_report.backend_summary()["automaton"]
        assert absorbed["nodes"] > 0 and absorbed["templates"] > 0
        assert absorbed["bytes"] > 0

    def test_second_call_forks_warm_workers(self, labeled):
        dfscode.clear_code_cache()
        census = _motifs(MultiprocessConfig(num_procs=2), labeled)
        fc = FractalContext(engine=MultiprocessConfig(num_procs=2))
        assert motifs(fc.from_graph(labeled), 3) == census
        assert fc.last_report.backend_summary()["automaton"] == {
            "nodes": 0, "transitions": 0, "templates": 0, "bytes": 0,
        }

    def test_fsm_matches_sequential(self):
        graph = community_graph(3, 10, p_in=0.4, p_out=0.05, n_labels=3, seed=5)
        dfscode.clear_code_cache()
        f_seq = fsm(FractalContext().from_graph(graph), min_support=3, max_edges=3)
        dfscode.clear_code_cache()
        fc = FractalContext(engine=MultiprocessConfig(num_procs=2))
        f_mp = fsm(fc.from_graph(graph), min_support=3, max_edges=3)
        assert set(f_mp.frequent) == set(f_seq.frequent)
        assert {p: f_mp.support_of(p) for p in f_mp.frequent} == {
            p: f_seq.support_of(p) for p in f_seq.frequent
        }
        assert fc.last_report.backend_summary()["automaton"]["templates"] > 0

    def test_worker_kills_keep_the_census(self, labeled):
        fault_free = _motifs("sequential", labeled)
        dfscode.clear_code_cache()
        plan = FaultPlan(
            mp_worker_kills=(MpWorkerKill(worker_id=0, after_chunks=1),)
        )
        fc = FractalContext(
            engine=MultiprocessConfig(num_procs=2, fault_plan=plan)
        )
        assert motifs(fc.from_graph(labeled), 3) == fault_free
        assert fc.last_report.backend_summary()["workers_lost"] == 1

    def test_contradicting_record_raises(self, labeled):
        dfscode.clear_code_cache()
        _motifs("sequential", labeled)
        root = ((), ())
        (transition, child), *_ = dfscode.ROOT.children.items()
        other = next(
            key for key in dfscode._NODES
            if key != (child.vranks, child.redges)
        )
        with pytest.raises(ValueError, match="transition"):
            dfscode.absorb(((root, other), ((0, transition, 1),), ()))
        key, node = next(
            (key, node) for key, node in dfscode._NODES.items()
            if node.template is not None and len(node.mapping) > 2
        )
        flat = dfscode.flat_code(node.template.code)
        with pytest.raises(ValueError, match="template"):
            dfscode.absorb(((key,), (), ((0, flat, node.mapping[::-1]),)))
        # A record the tables agree with is absorbed as nothing new.
        assert dfscode.absorb(
            ((root, key), (), ((1, flat, node.mapping),))
        ) == (0, 0, 0)


class TestSimulatorUnchanged:
    """The simulator stays the default parallel engine, byte-identical."""

    def test_simulator_report_identical_with_backend_seam(self, graph):
        fc = FractalContext(engine=ClusterConfig(workers=2, cores_per_worker=2))
        census = motifs(fc.from_graph(graph), 3)
        report = fc.last_report
        # Identical simulated clock and counters run-to-run (determinism).
        fc2 = FractalContext(
            engine=ClusterConfig(workers=2, cores_per_worker=2)
        )
        census2 = motifs(fc2.from_graph(graph), 3)
        assert dict(census) == dict(census2)
        assert report.metrics.snapshot() == fc2.last_report.metrics.snapshot()
        assert report.simulated_seconds == pytest.approx(
            fc2.last_report.simulated_seconds
        )


@needs_fork
class TestInterruptedRun:
    """Ctrl-C in the driver mid-step reaps every worker and unlinks the
    shared graph segment on its way out."""

    def test_keyboard_interrupt_reaps_workers_and_unlinks_segment(
        self, monkeypatch, graph
    ):
        from multiprocessing import shared_memory

        from repro.graph import SharedGraphBuffers
        from repro.runtime import mp_backend

        segments = []

        def recording(g):
            shared = SharedGraphBuffers(g)
            segments.append(shared.name)
            return shared

        def interrupt(fold):
            raise KeyboardInterrupt  # as if Ctrl-C landed after chunk one

        monkeypatch.setattr(mp_backend, "SharedGraphBuffers", recording)
        monkeypatch.setattr(mp_backend._ChunkFold, "fold_ready", interrupt)
        with pytest.raises(KeyboardInterrupt):
            _motifs(MultiprocessConfig(num_procs=2), graph)
        assert multiprocessing.active_children() == []
        assert len(segments) == 1
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=segments[0])


class TestSharedGraphBuffers:
    def test_attach_round_trip(self, graph):
        from repro.graph import SharedGraphBuffers

        shared = SharedGraphBuffers(graph)
        try:
            attached = shared.attach()
            assert attached.n_vertices == graph.n_vertices
            assert attached.n_edges == graph.n_edges
            assert attached.frozen
            for v in graph.vertices():
                assert attached.neighbors(v) == graph.neighbors(v)
                assert attached.vertex_label(v) == graph.vertex_label(v)
            for e in graph.edges():
                assert attached.edge(e) == graph.edge(e)
                assert attached.edge_label(e) == graph.edge_label(e)
            assert shared.nbytes > 0
        finally:
            # Release the attached views before teardown so the segment
            # unmaps cleanly (same-process attach is a test convenience;
            # workers attach in their own processes).
            del attached
            shared.unlink()

    def test_source_graph_is_frozen(self, graph):
        from repro.graph import SharedGraphBuffers
        from repro.graph.graph import GraphError

        shared = SharedGraphBuffers(graph)
        try:
            assert graph.frozen
            with pytest.raises(GraphError):
                graph.set_vertex_label(0, 1)
        finally:
            shared.unlink()

    def test_unlink_idempotent(self, graph):
        from repro.graph import SharedGraphBuffers

        shared = SharedGraphBuffers(graph)
        shared.unlink()
        shared.unlink()  # must not raise

    def test_abandoned_segment_does_not_leak(self):
        # Regression for the finalizer guard: a driver that creates a
        # segment and exits without unlink() must not leave the segment
        # behind or trip the stdlib resource_tracker's leak warning at
        # interpreter shutdown.
        import subprocess
        import sys

        code = (
            "from repro.graph import SharedGraphBuffers, erdos_renyi_graph\n"
            "g = erdos_renyi_graph(12, 20, seed=1)\n"
            "shared = SharedGraphBuffers(g)\n"
            "print(shared.name)\n"
            # No unlink(), no close(): abandon the segment on purpose.
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "leaked shared_memory" not in proc.stderr
        assert proc.stderr.strip() == ""
        name = proc.stdout.strip()
        assert name
        # The finalizer unlinked the name before the process exited.
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name, create=False)


class TestMultiprocessConfigValidation:
    def test_rejects_zero_procs(self):
        with pytest.raises(ValueError, match="num_procs must be >= 1"):
            MultiprocessConfig(num_procs=0)

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError, match="worker_timeout"):
            MultiprocessConfig(worker_timeout=0.0)

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError, match="max_worker_retries"):
            MultiprocessConfig(max_worker_retries=-1)
        with pytest.raises(ValueError, match="max_chunk_retries"):
            MultiprocessConfig(max_chunk_retries=-1)

    def test_rejects_unknown_degrade(self):
        with pytest.raises(ValueError, match="degrade"):
            MultiprocessConfig(degrade="sometimes")

    def test_no_fork_platform_degrades_with_actionable_warning(
        self, monkeypatch, graph
    ):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        with pytest.warns(RuntimeWarning) as caught:
            backend = resolve_backend(
                MultiprocessConfig(num_procs=2), DEFAULT_COST_MODEL
            )
        assert isinstance(backend, SequentialBackend)
        message = str(caught[0].message)
        assert "fork" in message
        assert "--backend simulator" in message
        # The stand-in runs the fractoid's kernel and says it is a
        # stand-in — exactly like the shared-memory-failure degrade.
        ctx = FractalContext(engine=MultiprocessConfig(num_procs=2))
        fractoid = query_fractoid(
            ctx.from_graph(graph), QUERY_PATTERNS["q3"], kernel="decomposed"
        )
        with pytest.warns(RuntimeWarning, match="degrading to sequential"):
            report = fractoid.execute(collect="count")
        assert report.pattern_kernel_summary()["kernel"] == "decomposed"
        assert report.steps[-1].backend_info == {
            "backend": "sequential",
            "degraded_to": "sequential",
            "degraded_reason": fork_unavailable_message(),
            "orbit_counted": True,
        }
        assert report.backend_summary()["degraded_to"] == "sequential"
        assert report.backend_summary()["degraded_reason"] == (
            fork_unavailable_message()
        )

    def test_no_fork_platform_raises_when_degrade_never(self, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        with pytest.raises(RuntimeError, match="--backend simulator"):
            resolve_backend(
                MultiprocessConfig(num_procs=2, degrade="never"),
                DEFAULT_COST_MODEL,
            )


@needs_fork
class TestInDriverRungs:
    """Steps the multiprocess backend runs in the driver.

    They run on the planner's probe through the sequential backend's own
    helper, so they report what a sequential run reports: the planner's
    finished ``kernel_info`` (decision records included) and the same
    counter totals, the level-0 listing metered once.  The listing step
    here is walked, not enumerated, and says where (``listed_in_driver``).
    """

    KERNEL = "decomposed"

    def _subgraphs(self, engine, graph):
        ctx = FractalContext(engine=engine)
        fractoid = query_fractoid(
            ctx.from_graph(graph), QUERY_PATTERNS["q3"], kernel=self.KERNEL
        )
        return fractoid.execute(collect="subgraphs")

    def _assert_reports_like_sequential(self, report, graph, backend_info):
        sequential = self._subgraphs("sequential", graph)
        step = report.steps[-1]
        assert report.result_count == sequential.result_count
        assert step.kernel_info == sequential.steps[-1].kernel_info
        assert step.kernel_info["decomposition"]["reason"].startswith(
            "collect='subgraphs'"
        )
        assert step.kernel_info["orbit_count"] == {
            "executed": False,
            "reason": "collect='subgraphs' needs embeddings, not counts",
        }
        assert step.kernel_info["list_walk"] == {"executed": True}
        expected = sequential.metrics.snapshot()
        metered = report.metrics.snapshot()
        # Plan-cache hits depend on what ran earlier in the process.
        del expected["symmetry_cache_hits"], metered["symmetry_cache_hits"]
        assert metered == expected
        assert metered["decomp_fallbacks"] == 1
        assert step.work_units == sequential.steps[-1].work_units
        info = dict(step.backend_info)
        assert info.pop("wall_seconds") >= 0.0
        assert info == backend_info

    def test_shared_memory_failure_degrades_in_driver(self, monkeypatch, graph):
        def no_segment(graph):
            raise OSError("no space left on /dev/shm")

        monkeypatch.setattr(
            "repro.runtime.mp_backend.SharedGraphBuffers", no_segment
        )
        config = MultiprocessConfig(num_procs=2)
        with pytest.warns(
            RuntimeWarning, match="shared-memory segment creation"
        ) as caught:
            report = self._subgraphs(config, graph)
        assert report.result_count > 0
        reason = report.backend_summary()["degraded_reason"]
        assert reason.startswith("shared-memory segment creation failed")
        assert str(caught.pop(RuntimeWarning).message).endswith(reason)
        self._assert_reports_like_sequential(
            report,
            graph,
            {
                "backend": "multiprocess",
                "num_procs": 2,
                "inline": True,
                "listed_in_driver": True,
                "degraded_to": "sequential",
                "degraded_reason": reason,
            },
        )

    def test_shared_memory_failure_raises_when_degrade_never(
        self, monkeypatch, graph
    ):
        def no_segment(graph):
            raise OSError("no space left on /dev/shm")

        monkeypatch.setattr(
            "repro.runtime.mp_backend.SharedGraphBuffers", no_segment
        )
        config = MultiprocessConfig(num_procs=2, degrade="never")
        with pytest.raises(RuntimeError, match="shared-memory segment creation"):
            self._subgraphs(config, graph)

    def test_step_without_roots_runs_in_driver(self):
        # No vertex carries the query's label: nothing to ship.
        builder = GraphBuilder()
        for i in range(4):
            builder.add_vertex(label=1 + i % 2)
        for u in range(3):
            builder.add_edge(u, u + 1)
        unmatched = builder.build()
        config = MultiprocessConfig(num_procs=2)
        report = self._subgraphs(config, unmatched)
        assert report.result_count == 0
        self._assert_reports_like_sequential(
            report,
            unmatched,
            {
                "backend": "multiprocess",
                "num_procs": 2,
                "inline": True,
                "listed_in_driver": True,
            },
        )
