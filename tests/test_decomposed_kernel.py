"""Pattern-decomposition counting kernel: oracle equivalence and chooser.

The ``decomposed`` kernel counts pure pattern-counting queries without
enumerating every instance: a core–fringe decomposition plus an
inclusion–exclusion combine over labeled-adjacency block sizes
(:mod:`repro.pattern.decompose`).  These tests pin, against the
independent backtracking oracle and the enumeration kernels:

* exact counts — the decomposition executor, forced on random labeled
  (pattern, graph) pairs, matches ``count_pattern_matches``;
* end-to-end counts — ``kernel="decomposed"`` equals legacy and
  indexed across the sequential, simulator and multiprocess backends;
* the eligibility gate — every aggregation or embedding-requiring
  workflow falls back to enumeration (and is metered as a fallback);
* chooser determinism and the decision record in ``kernel_info``;
* the galloping crossover of ``intersect_slices``.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro import ClusterConfig, FractalContext, Pattern
from repro.apps import QUERY_PATTERNS
from repro.apps.queries import count_query_matches, query_fractoid
from repro.core.enumerator import PATTERN_KERNELS, PatternInducedStrategy
from repro.core.intersect import intersect_slices
from repro.graph import erdos_renyi_graph
from repro.pattern.decompose import (
    DECOMPOSITION_MARGIN,
    MIN_CHOSEN_FRINGE,
    REQUIRE_SHARED_FRINGE_BLOCK,
    choose_counting_kernel,
    count_embeddings,
    fallback_info,
    instance_count,
    plan_decomposition,
    plan_step_decomposition,
)
from repro.pattern.isomorphism import count_pattern_matches
from repro.pattern.pattern import PatternInterner
from repro.runtime.costmodel import DEFAULT_COST_MODEL
from repro.runtime.faults import CoreFailure, FaultPlan
from repro.runtime.metrics import Metrics
from repro.runtime.mp_backend import MultiprocessConfig

# Shapes with non-trivial fringes (stars, diamonds) alongside shapes
# whose cover leaves at most one fringe vertex (cliques, cycles).
PATTERN_SHAPES = [
    [(0, 1), (1, 2)],                                  # path3
    [(0, 1), (1, 2), (0, 2)],                          # triangle
    [(0, 1), (0, 2), (0, 3)],                          # star3
    [(0, 1), (1, 2), (2, 3), (0, 3)],                  # square
    [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)],          # diamond
    [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)],  # K2+3 fringe
    [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)],          # tailed triangle
]


@st.composite
def graph_and_pattern(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n = draw(st.integers(min_value=6, max_value=24))
    max_m = n * (n - 1) // 2
    m = draw(st.integers(min_value=n - 1, max_value=min(3 * n, max_m)))
    n_labels = draw(st.sampled_from([1, 2]))
    n_elabels = draw(st.sampled_from([1, 2]))
    graph = erdos_renyi_graph(
        n, m, n_labels=n_labels, n_edge_labels=n_elabels, seed=seed
    )
    edges = draw(st.sampled_from(PATTERN_SHAPES))
    k = max(max(e) for e in edges) + 1
    vlabels = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_labels - 1),
            min_size=k,
            max_size=k,
        )
    )
    elabels = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_elabels - 1),
            min_size=len(edges),
            max_size=len(edges),
        )
    )
    pattern = Pattern.from_edge_list(
        edges, vertex_labels=vlabels, edge_labels=elabels
    )
    return graph, pattern


def _count(graph, pattern, kernel, engine=None):
    ctx = FractalContext(engine=engine if engine is not None else "sequential")
    fr = query_fractoid(ctx.from_graph(graph), pattern, kernel=kernel)
    report = fr.execute(collect="count")
    return report.result_count, report


# ----------------------------------------------------------------------
# Oracle equivalence
# ----------------------------------------------------------------------
class TestOracleEquivalence:
    @given(graph_and_pattern())
    @settings(max_examples=40, deadline=None)
    def test_forced_decomposition_matches_oracle(self, gp):
        # The executor itself, with the chooser bypassed: every
        # decomposable shape must count exactly, margins aside.
        graph, pattern = gp
        plan = plan_decomposition(pattern, graph)
        if plan is None:
            return
        expected = count_pattern_matches(pattern, graph)
        metrics = Metrics()
        raw = count_embeddings(plan, graph, metrics)
        assert instance_count(plan, raw) == expected

    @given(graph_and_pattern())
    @settings(max_examples=20, deadline=None)
    def test_end_to_end_kernels_agree(self, gp):
        graph, pattern = gp
        counts = {}
        for kernel in PATTERN_KERNELS:
            counts[kernel], _ = _count(graph, pattern, kernel)
        assert counts["decomposed"] == counts["legacy"] == counts["indexed"]

    def test_query_patterns_agree_across_backends(self, labeled_graph):
        # One planner, three thin backends: the same count, the same
        # decision and the same metered walk wherever the step runs.
        counters = (
            "extension_tests",
            "extensions_generated",
            "subgraphs_enumerated",
            "orbit_multiplied_embeddings",
            "decomp_core_embeddings",
            "decomp_terms",
        )
        engines = {
            "sequential": None,
            "simulator": ClusterConfig(workers=2, cores_per_worker=2),
            # One simulated core is still a simulated core, not the
            # sequential path (the comparative harness runs this shape).
            "simulator-1x1": ClusterConfig(workers=1, cores_per_worker=1),
            "multiprocess": MultiprocessConfig(num_procs=2),
        }
        graphs = {
            "fixture": labeled_graph,
            "two-label": erdos_renyi_graph(60, 240, n_labels=2, seed=3),
            # Dense enough that the chooser decomposes q3 and q7, so both
            # counting modes are compared.
            "dense": erdos_renyi_graph(120, 1200, seed=5),
        }
        cost = DEFAULT_COST_MODEL
        modes = set()
        for graph_name, graph in graphs.items():
            # Every query pattern is rooted at label 0.
            n_roots = len(graph.vertices_with_label(0))
            for name, pattern in QUERY_PATTERNS.items():
                baseline, _ = _count(graph, pattern, "indexed")
                seen = {}
                units = {}
                for backend, engine in engines.items():
                    count, report = _count(graph, pattern, "decomposed", engine)
                    info = report.steps[-1].kernel_info
                    units[backend] = report.steps[-1].work_units
                    seen[backend] = (
                        count,
                        info["decomposition"]["executed"],
                        info.get("orbit_count", {}).get("executed"),
                        [getattr(report.metrics, c) for c in counters],
                    )
                assert seen["sequential"][0] == baseline, (graph_name, name)
                assert all(s == seen["sequential"] for s in seen.values()), (
                    graph_name,
                    name,
                    seen,
                )
                modes.add(seen["sequential"][1:3])
                # The sequential clock is the whole metered step; a
                # simulated core's leaves out what the driver does — the
                # root listing and the emit — and more cores only shorten it.
                assert units["sequential"] == units["multiprocess"]
                assert units["sequential"] == cost.step_units(report.metrics)
                driver = Metrics()
                driver.index_slices = 1
                driver.extension_tests = n_roots
                driver.results_emitted = baseline
                assert units["simulator-1x1"] == pytest.approx(
                    units["sequential"] - cost.step_units(driver)
                ), (graph_name, name)
                assert units["simulator"] <= units["simulator-1x1"]
        assert modes == {("count", None), ("enumeration", True)}


# ----------------------------------------------------------------------
# The decomposition actually runs where it should
# ----------------------------------------------------------------------
class TestDecomposedExecution:
    def _dense_graph(self):
        return erdos_renyi_graph(200, 2400, seed=5)

    def test_double_diamond_uses_decomposition(self):
        graph = self._dense_graph()
        pattern = QUERY_PATTERNS["q7"]
        count, report = _count(graph, pattern, "decomposed")
        summary = report.pattern_kernel_summary()
        decomp = summary["decomposition"]
        assert decomp["executed"] == "count"
        assert decomp["reason"] is None
        assert decomp["plan"]["fringe"]
        assert summary["decomp_core_embeddings"] > 0
        assert summary["decomp_blocks"] > 0
        assert summary["decomp_terms"] > 0
        assert summary["decomp_fallbacks"] == 0
        baseline, base_report = _count(graph, pattern, "indexed")
        assert count == baseline
        # The headline quantity this test pins: the inclusion–exclusion
        # combine must beat *walking* the enumeration tree.  The indexed
        # kernel bulk-counts its orbit tail on counting steps (often
        # cheaper still), so the walking baseline is the legacy kernel.
        walk_count, walk_report = _count(graph, pattern, "legacy")
        assert walk_count == count
        assert (
            summary["candidate_units"]
            < walk_report.pattern_kernel_summary()["candidate_units"]
        )

    def test_decomposed_runs_on_simulator_and_mp(self):
        graph = self._dense_graph()
        pattern = QUERY_PATTERNS["q7"]
        _, sim_report = _count(
            graph, pattern, "decomposed", ClusterConfig(workers=2, cores_per_worker=2)
        )
        assert sim_report.steps[-1].backend_info.get("decomposed") is True
        _, mp_report = _count(
            graph, pattern, "decomposed", MultiprocessConfig(num_procs=2)
        )
        assert (
            mp_report.steps[-1].backend_info.get("decomposed_in_driver")
            is True
        )

    def test_enumeration_counters_stay_zero(self, labeled_graph):
        # legacy/indexed runs never touch the decomposition counters, so
        # their priced work is bit-identical to the pre-kernel seed.
        for kernel in ("legacy", "indexed"):
            _, report = _count(labeled_graph, QUERY_PATTERNS["q3"], kernel)
            m = report.metrics
            assert m.decomp_core_embeddings == 0
            assert m.decomp_blocks == 0
            assert m.decomp_terms == 0
            assert m.decomp_fallbacks == 0


# ----------------------------------------------------------------------
# Eligibility gate: anything needing embeddings falls back
# ----------------------------------------------------------------------
class TestFallbacks:
    def test_subgraphs_collection_falls_back(self, labeled_graph):
        ctx = FractalContext()
        fr = query_fractoid(
            ctx.from_graph(labeled_graph), QUERY_PATTERNS["q3"], kernel="decomposed"
        )
        report = fr.execute(collect="subgraphs")
        decomp = report.pattern_kernel_summary()["decomposition"]
        assert decomp["executed"] == "enumeration"
        assert "embeddings" in decomp["reason"]
        assert report.metrics.decomp_fallbacks >= 1
        # Identical enumeration to the indexed kernel.
        fr2 = query_fractoid(
            ctx.from_graph(labeled_graph), QUERY_PATTERNS["q3"], kernel="indexed"
        )
        report2 = fr2.execute(collect="subgraphs")
        assert [s.vertices for s in report.subgraphs] == [
            s.vertices for s in report2.subgraphs
        ]

    def test_plan_step_gate_rejects_embedding_consumers(self, labeled_graph):
        pattern = QUERY_PATTERNS["q3"]
        interner = PatternInterner()
        strategy = PatternInducedStrategy(
            labeled_graph, Metrics(), interner, pattern, kernel="decomposed"
        )
        from repro.core.primitives import Aggregate, Expand

        expands = [Expand() for _ in range(pattern.n_vertices)]
        # Pure counting step: eligible.
        plan, info = plan_step_decomposition(
            pattern, labeled_graph, expands, "count", None
        )
        assert info["requested"] is True
        # Any non-count collection: never decomposed.
        for collect in ("subgraphs", None):
            plan, info = plan_step_decomposition(
                pattern, labeled_graph, expands, collect, None
            )
            assert plan is None
        # Aggregations (FSM domain support, motif census): never.
        with_agg = expands + [
            Aggregate("support", lambda s, c: 0, lambda s, c: 1, lambda a, b: a + b)
        ]
        plan, info = plan_step_decomposition(
            pattern, labeled_graph, with_agg, "count", None
        )
        assert plan is None
        assert "embeddings" in info["reason"]
        # Root-restricted steps (resume, partial work): never.
        plan, info = plan_step_decomposition(
            pattern, labeled_graph, expands, "count", [0, 1]
        )
        assert plan is None

    def test_simulator_fault_falls_back(self):
        graph = erdos_renyi_graph(200, 2400, seed=5)
        pattern = QUERY_PATTERNS["q7"]
        baseline, _ = _count(graph, pattern, "indexed")
        kill = FaultPlan(core_failures=(CoreFailure(0, 5000.0),))
        config = ClusterConfig(workers=2, cores_per_worker=2, fault_plan=kill)
        count, report = _count(graph, pattern, "decomposed", config)
        assert count == baseline
        decomp = report.pattern_kernel_summary()["decomposition"]
        assert decomp["executed"] == "enumeration"
        assert report.metrics.decomp_fallbacks >= 1

    def test_fallback_info_shape(self):
        info = fallback_info("some reason")
        assert info == {
            "requested": True,
            "executed": "enumeration",
            "reason": "some reason",
        }


# ----------------------------------------------------------------------
# Divisibility tripwire: quarantine, not a crash
# ----------------------------------------------------------------------
class TestQuarantine:
    # A prime far larger than any automorphism count: raw totals are
    # never divisible by it, so a tampered divisor trips the invariant.
    BAD_DIVISOR = 1_000_003

    def test_tripwire_names_the_pattern(self):
        import repro.pattern.decompose as decompose

        graph = erdos_renyi_graph(30, 90, seed=2)
        pattern = QUERY_PATTERNS["q1"]
        plan = plan_decomposition(pattern, graph)
        plan.count_divisor = self.BAD_DIVISOR
        with pytest.raises(decompose.DecompositionError) as excinfo:
            instance_count(plan, 7)
        assert excinfo.value.code == pattern.canonical_code()
        assert str(pattern.canonical_code()) in str(excinfo.value)

    def _tampered_planner(self, monkeypatch):
        import repro.pattern.decompose as decompose

        real = decompose.plan_step_decomposition

        def tampered(*args, **kwargs):
            plan, info = real(*args, **kwargs)
            if plan is not None:
                plan.count_divisor = self.BAD_DIVISOR
            return plan, info

        monkeypatch.setattr(
            decompose, "plan_step_decomposition", tampered
        )

    @pytest.mark.parametrize("backend", ["sequential", "simulator", "multiprocess"])
    def test_quarantines_to_enumeration(self, monkeypatch, backend):
        import multiprocessing

        engine = None
        if backend == "simulator":
            engine = ClusterConfig(workers=2, cores_per_worker=2)
        elif backend == "multiprocess":
            if "fork" not in multiprocessing.get_all_start_methods():
                pytest.skip("multiprocess backend requires fork start method")
            engine = MultiprocessConfig(num_procs=2)
        graph = erdos_renyi_graph(200, 2400, seed=5)
        pattern = QUERY_PATTERNS["q7"]
        baseline, _ = _count(graph, pattern, "indexed")
        self._tampered_planner(monkeypatch)
        with pytest.warns(RuntimeWarning, match="not divisible"):
            count, report = _count(graph, pattern, "decomposed", engine)
        assert count == baseline
        decomp = report.pattern_kernel_summary()["decomposition"]
        assert decomp["executed"] == "enumeration"
        assert "quarantined" in decomp["reason"]
        assert str(pattern.canonical_code()) in decomp["reason"]
        m = report.metrics
        assert m.decomp_fallbacks >= 1
        assert m.wasted_extension_tests > 0
        assert m.wasted_work_units > 0

    def test_mp_degrade_never_raises(self, monkeypatch):
        import multiprocessing

        import repro.pattern.decompose as decompose

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("multiprocess backend requires fork start method")
        graph = erdos_renyi_graph(200, 2400, seed=5)
        pattern = QUERY_PATTERNS["q7"]
        self._tampered_planner(monkeypatch)
        config = MultiprocessConfig(num_procs=2, degrade="never")
        with pytest.raises(decompose.DecompositionError):
            _count(graph, pattern, "decomposed", config)


# ----------------------------------------------------------------------
# Chooser: deterministic, label-statistics-driven
# ----------------------------------------------------------------------
class TestChooser:
    def test_deterministic(self, labeled_graph):
        for pattern in QUERY_PATTERNS.values():
            first = choose_counting_kernel(pattern, labeled_graph)
            for _ in range(3):
                plan, estimates = choose_counting_kernel(
                    pattern, labeled_graph
                )
                assert (plan is None) == (first[0] is None)
                assert estimates == first[1]
                if plan is not None:
                    assert plan.core == first[0].core
                    assert plan.terms == first[0].terms

    def test_margin_and_fringe_gate_applied(self):
        # A chosen plan must clear the safety margin, the
        # minimum-fringe threshold, and the shared-block requirement;
        # a rejected one must fail at least one of them.
        graph = erdos_renyi_graph(80, 400, seed=2)
        for pattern in QUERY_PATTERNS.values():
            plan, est = choose_counting_kernel(pattern, graph)
            enum_u = est["estimated_enumeration_units"]
            dec_u = est["estimated_decomposed_units"]
            if plan is not None:
                assert dec_u * DECOMPOSITION_MARGIN < enum_u
                assert len(plan.fringe) >= MIN_CHOSEN_FRINGE
                if REQUIRE_SHARED_FRINGE_BLOCK:
                    assert plan.shared_fringe_block
            elif dec_u is not None:
                full = plan_decomposition(pattern, graph)
                assert (
                    dec_u * DECOMPOSITION_MARGIN >= enum_u
                    or len(full.fringe) < MIN_CHOSEN_FRINGE
                    or (
                        REQUIRE_SHARED_FRINGE_BLOCK
                        and not full.shared_fringe_block
                    )
                )

    def test_estimates_reported_on_both_paths(self):
        graph = erdos_renyi_graph(200, 2400, seed=5)
        for q, expect_decomposed in (("q7", True), ("q5", False)):
            _, report = _count(graph, QUERY_PATTERNS[q], "decomposed")
            decomp = report.pattern_kernel_summary()["decomposition"]
            assert decomp["estimated_enumeration_units"] > 0
            assert decomp["estimated_decomposed_units"] > 0
            assert (decomp["executed"] == "count") == expect_decomposed


# ----------------------------------------------------------------------
# The kernel on the app call
# ----------------------------------------------------------------------
class TestConfigPlumbing:
    def test_kernel_constant_lists_decomposed(self):
        assert PATTERN_KERNELS == ("legacy", "indexed", "decomposed")

    def test_count_query_matches_kernel_param(self, labeled_graph):
        ctx = FractalContext()
        fg = ctx.from_graph(labeled_graph)
        pattern = QUERY_PATTERNS["q3"]
        assert count_query_matches(fg, pattern, kernel="decomposed") == (
            count_query_matches(fg, pattern)
        )


# ----------------------------------------------------------------------
# Galloping crossover
# ----------------------------------------------------------------------
class TestGallopCrossover:
    # One short sorted run against one long one: ratio 16x.  At
    # crossover 8 the indexed kernel gallops; at 32 it merges.
    SHORT = [4, 20]
    LONG = list(range(0, 64, 2))

    def _meter(self, crossover):
        arr = self.LONG + self.SHORT
        arr = sorted(set(arr))
        slices = [
            (self.LONG, 0, len(self.LONG)),
            (self.SHORT, 0, len(self.SHORT)),
        ]
        metrics = Metrics()
        out = intersect_slices(slices, metrics, crossover=crossover)
        return out, metrics

    def test_crossover_changes_strategy_not_result(self):
        gallop_out, gallop_m = self._meter(2)
        merge_out, merge_m = self._meter(1000)
        assert gallop_out == merge_out == [4, 20]
        assert gallop_m.gallop_steps > 0
        assert merge_m.gallop_steps == 0
        assert merge_m.intersect_comparisons > 0
