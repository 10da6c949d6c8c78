"""Pattern-matching candidate kernels: oracle equivalence and plumbing.

Every kernel — and the un-pinned default — must enumerate exactly the
same distinct pattern instances as the independent backtracking oracle
``pattern.isomorphism.match_pattern`` — including the symmetry-breaking
dedup count: exactly one result per automorphism class, no duplicates.
Further tests pin the label-partitioned index structures, the cost-based
planner, the one place a kernel is chosen (``pfractoid(kernel=)``: order
derived from it, planned once, bad input refused at the call site), the
cluster path, and the back-edge probe metering bugfix.  A literal
counter table recorded before the match plan was compiled pins the
indexed/decomposed kernels' metering to history on all three backends.
"""

from __future__ import annotations

from collections import Counter
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro import (
    ClusterConfig,
    CostModel,
    FractalContext,
    MultiprocessConfig,
    Pattern,
)
from repro.apps import QUERY_PATTERNS
from repro.apps.queries import query_fractoid
from repro.core import enumerator
from repro.core.enumerator import (
    DEFAULT_KERNEL,
    PATTERN_KERNELS,
    PatternInducedStrategy,
    matching_order,
    plan_matching_order,
)
from repro.core.subgraph import Subgraph
from repro.graph import GraphBuilder, erdos_renyi_graph
from repro.graph.datasets import orkut_like
from repro.pattern.isomorphism import match_pattern
from repro.pattern.pattern import PatternInterner
from repro.runtime.metrics import Metrics

KERNELS = ("legacy", "indexed")


# ----------------------------------------------------------------------
# Random inputs
# ----------------------------------------------------------------------
PATTERN_SHAPES = [
    # (edge list, name) — labels are drawn per-example.
    ([(0, 1), (1, 2)], "path3"),
    ([(0, 1), (1, 2), (0, 2)], "triangle"),
    ([(0, 1), (1, 2), (2, 3)], "path4"),
    ([(0, 1), (1, 2), (2, 3), (0, 3)], "square"),
    ([(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)], "diamond"),
    ([(0, 1), (0, 2), (0, 3)], "star3"),
    ([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)], "tailed-triangle"),
]


@st.composite
def graph_and_pattern(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n = draw(st.integers(min_value=4, max_value=12))
    max_m = n * (n - 1) // 2
    m = draw(st.integers(min_value=n - 1, max_value=max_m))
    n_labels = draw(st.sampled_from([1, 2, 3]))
    n_elabels = draw(st.sampled_from([1, 2]))
    graph = erdos_renyi_graph(
        n, m, n_labels=n_labels, n_edge_labels=n_elabels, seed=seed
    )
    edges, _ = draw(st.sampled_from(PATTERN_SHAPES))
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


def _enumerate(graph, pattern, kernel):
    fr = query_fractoid(FractalContext().from_graph(graph), pattern, kernel=kernel)
    return fr.execute(collect="subgraphs")


def _oracle_instances(graph, pattern):
    """Counter of vertex-image sets, one entry per distinct instance."""
    return Counter(
        frozenset(embedding)
        for embedding in match_pattern(pattern, graph, distinct=True)
    )


# ----------------------------------------------------------------------
# Oracle equivalence (satellite: hypothesis oracle suite)
# ----------------------------------------------------------------------
class TestOracleEquivalence:
    @given(graph_and_pattern())
    @settings(max_examples=30, deadline=None)
    def test_all_kernels_match_oracle(self, gp):
        graph, pattern = gp
        expected = _oracle_instances(graph, pattern)
        for kernel in (None,) + PATTERN_KERNELS:
            report = _enumerate(graph, pattern, kernel)
            got = Counter(frozenset(s.vertices) for s in report.subgraphs)
            assert got == expected, kernel
            # Symmetry breaking deduplicates exactly: one result per
            # instance, so the count equals the oracle's total.
            assert report.result_count == sum(expected.values()), kernel

    @given(graph_and_pattern())
    @settings(max_examples=30, deadline=None)
    def test_kernels_identical_streams_under_same_order(self, gp):
        # With the plan held fixed, the two kernels must produce
        # byte-identical enumeration streams, not just sets.  The order
        # and the restriction-set scoring follow from the kernel, so the
        # test holds them fixed itself: every kernel plans as "legacy".
        graph, pattern = gp
        real_plan = enumerator.symmetry_plan
        with mock.patch.object(
            enumerator, "plan_matching_order", lambda p, g: matching_order(p)
        ), mock.patch.object(
            enumerator,
            "symmetry_plan",
            lambda p, order, g, metrics: real_plan(p, order, None, metrics),
        ):
            legacy = _enumerate(graph, pattern, "legacy")
            indexed = _enumerate(graph, pattern, "indexed")
        assert indexed.steps[-1].kernel_info["order"] == matching_order(pattern)
        assert [s.vertices for s in legacy.subgraphs] == [
            s.vertices for s in indexed.subgraphs
        ]
        assert [s.edges for s in legacy.subgraphs] == [
            s.edges for s in indexed.subgraphs
        ]


DEFAULT_ENGINES = {
    "sequential": lambda: "sequential",
    "simulator-1x1": lambda: ClusterConfig(workers=1, cores_per_worker=1),
    "simulator-2x2": lambda: ClusterConfig(workers=2, cores_per_worker=2),
    "multiprocess": lambda: MultiprocessConfig(num_procs=2),
}


class TestQueriesCorpus:
    @pytest.mark.parametrize("name", sorted(QUERY_PATTERNS))
    def test_query_kernel_equivalence(self, name, small_random_graph):
        pattern = QUERY_PATTERNS[name]
        legacy = _enumerate(small_random_graph, pattern, "legacy")
        indexed = _enumerate(small_random_graph, pattern, "indexed")
        # The matching order differs per kernel, so compare instances
        # (vertex sets), not match tuples.
        assert Counter(frozenset(s.vertices) for s in legacy.subgraphs) == (
            Counter(frozenset(s.vertices) for s in indexed.subgraphs)
        )

    def test_cluster_engine_equivalence(self, small_random_graph):
        pattern = QUERY_PATTERNS["q2"]
        counts = {}
        for kernel in KERNELS:
            config = ClusterConfig(workers=2, cores_per_worker=2)
            ctx = FractalContext()
            fr = query_fractoid(
                ctx.from_graph(small_random_graph), pattern, kernel=kernel
            )
            report = fr.execute(collect="count", engine=config)
            counts[kernel] = report.result_count
            assert report.pattern_kernel_summary()["kernel"] == kernel
        assert counts["legacy"] == counts["indexed"]

    @pytest.mark.parametrize("engine", sorted(DEFAULT_ENGINES))
    def test_unpinned_default_equals_reference_and_oracle(self, engine):
        # What a caller who names only a pattern gets: the default kernel,
        # with the counts and listings of the paper preset and of brute
        # force, on every backend.
        graph = erdos_renyi_graph(24, 90, seed=3)
        fg = FractalContext().from_graph(graph)
        for name, pattern in QUERY_PATTERNS.items():
            expected = _oracle_instances(graph, pattern)
            for kernel in (None, "legacy"):
                fractoid = query_fractoid(fg, pattern, kernel=kernel)
                listed = fractoid.execute(
                    collect="subgraphs", engine=DEFAULT_ENGINES[engine]()
                )
                counted = fractoid.execute(
                    collect="count", engine=DEFAULT_ENGINES[engine]()
                )
                assert Counter(
                    frozenset(s.vertices) for s in listed.subgraphs
                ) == expected, (name, kernel)
                assert counted.result_count == sum(expected.values())
                for report in (listed, counted):
                    assert report.pattern_kernel_summary()["kernel"] == (
                        kernel or DEFAULT_KERNEL
                    )
        assert DEFAULT_KERNEL == "decomposed"


# ----------------------------------------------------------------------
# Cost-based planner
# ----------------------------------------------------------------------
class TestPlanner:
    @given(graph_and_pattern())
    @settings(max_examples=40, deadline=None)
    def test_order_is_connected_permutation(self, gp):
        graph, pattern = gp
        order = plan_matching_order(pattern, graph)
        assert sorted(order) == list(range(pattern.n_vertices))
        placed = {order[0]}
        for p in order[1:]:
            assert any(q in placed for q, _ in pattern.neighborhood(p))
            placed.add(p)

    def test_deterministic(self, small_random_graph):
        pattern = QUERY_PATTERNS["q4"]
        first = plan_matching_order(pattern, small_random_graph)
        assert first == plan_matching_order(pattern, small_random_graph)

    def test_rare_label_starts(self):
        builder = GraphBuilder()
        for _ in range(9):
            builder.add_vertex(label=0)
        builder.add_vertex(label=1)  # vertex 9: the one rare-label vertex
        for v in range(9):
            builder.add_edge(v, 9)
        graph = builder.build()
        pattern = Pattern.from_edge_list([(0, 1)], vertex_labels=[0, 1])
        order = plan_matching_order(pattern, graph)
        assert order[0] == 1  # pattern vertex with the rare label


# ----------------------------------------------------------------------
# Label-partitioned index structures
# ----------------------------------------------------------------------
class TestLabeledIndex:
    def test_labeled_adjacency_segments(self, labeled_graph):
        index, lnbr, leid = labeled_graph.labeled_adjacency()
        for v in labeled_graph.vertices():
            reconstructed = []
            for (vlabel, elabel), (lo, hi) in sorted(index[v].items()):
                for i in range(lo, hi):
                    u = lnbr[i]
                    assert labeled_graph.vertex_label(u) == vlabel
                    assert labeled_graph.edge_label(leid[i]) == elabel
                    reconstructed.append(u)
                # Each segment is sorted by neighbor id.
                assert lnbr[lo:hi] == sorted(lnbr[lo:hi])
            assert sorted(reconstructed) == sorted(labeled_graph.neighbors(v))

    def test_labeled_neighbors(self, labeled_graph):
        assert labeled_graph.labeled_neighbors(0, 2, 7) == (1,)
        assert labeled_graph.labeled_neighbors(0, 2, 8) == (3,)
        assert labeled_graph.labeled_neighbors(0, 1, 7) == ()

    def test_vertices_with_label(self, labeled_graph):
        assert labeled_graph.vertices_with_label(1) == (0, 2)
        assert labeled_graph.vertices_with_label(2) == (1, 3)
        assert labeled_graph.vertices_with_label(99) == ()

    def test_label_stats(self, labeled_graph):
        vertex_counts, pair_counts = labeled_graph.label_stats()
        assert vertex_counts == {1: 2, 2: 2}
        # Each edge contributes one entry per direction.
        assert pair_counts[(1, 7, 2)] == 2  # edges (0,1) and (2,3)
        assert pair_counts[(2, 7, 1)] == 2
        assert pair_counts[(1, 8, 2)] == 2  # edges (1,2) and (0,3)
        assert sum(pair_counts.values()) == 2 * labeled_graph.n_edges

    @given(st.integers(min_value=0, max_value=5000))
    @settings(max_examples=25, deadline=None)
    def test_index_consistent_on_random_graphs(self, seed):
        graph = erdos_renyi_graph(
            10, 20, n_labels=3, n_edge_labels=2, seed=seed
        )
        index, lnbr, leid = graph.labeled_adjacency()
        for v in graph.vertices():
            flat = sorted(
                u for (lo, hi) in index[v].values() for u in lnbr[lo:hi]
            )
            assert flat == sorted(graph.neighbors(v))


# ----------------------------------------------------------------------
# Choosing a kernel: one place, at construction
# ----------------------------------------------------------------------
def _strategy(graph, pattern, **kwargs):
    return PatternInducedStrategy(
        graph, Metrics(), PatternInterner(), pattern, **kwargs
    )


class TestConfiguration:
    def test_default_is_decomposed(self, small_random_graph):
        strategy = _strategy(small_random_graph, QUERY_PATTERNS["q1"])
        info = strategy.kernel_info()
        assert info["kernel"] == DEFAULT_KERNEL == "decomposed"
        assert info["order"] == plan_matching_order(
            QUERY_PATTERNS["q1"], small_random_graph
        )

    def test_legacy_matches_in_the_degree_greedy_order(self, small_random_graph):
        strategy = _strategy(
            small_random_graph, QUERY_PATTERNS["q3"], kernel="legacy"
        )
        assert strategy.kernel_info()["order"] == matching_order(
            QUERY_PATTERNS["q3"]
        )

    def test_indexed_defaults_to_cost_order(self, small_random_graph):
        strategy = _strategy(
            small_random_graph, QUERY_PATTERNS["q1"], kernel="indexed"
        )
        assert strategy.kernel_info()["order"] == plan_matching_order(
            QUERY_PATTERNS["q1"], small_random_graph
        )

    def test_invalid_values_rejected(self, small_random_graph):
        with pytest.raises(ValueError):
            _strategy(small_random_graph, QUERY_PATTERNS["q1"], kernel="bogus")

    def test_bad_input_fails_at_the_call_site(self, small_random_graph):
        # Before any execute(): a typo or an unusable pattern is the
        # caller's mistake, reported where the caller made it.
        fg = FractalContext().from_graph(small_random_graph)
        disconnected = Pattern([0, 0, 0], [(0, 1, 0)])
        with pytest.raises(ValueError, match="kernel must be one of"):
            fg.pfractoid(QUERY_PATTERNS["q1"], kernel="nope")
        with pytest.raises(ValueError, match="kernel must be one of"):
            query_fractoid(fg, QUERY_PATTERNS["q1"], kernel="bogus")
        with pytest.raises(ValueError, match="connected"):
            fg.pfractoid(disconnected)
        with pytest.raises(ValueError, match="at least one vertex"):
            query_fractoid(fg, Pattern([], []))

    def test_deleted_options_are_refused(self, small_random_graph):
        # No accepted-and-ignored shim for any option this layer lost.
        fg = FractalContext().from_graph(small_random_graph)
        for call in (
            lambda: FractalContext(pattern_kernel="indexed"),
            lambda: FractalContext(order_policy="cost"),
            lambda: fg.pfractoid(QUERY_PATTERNS["q1"], order_policy="cost"),
            lambda: _strategy(
                small_random_graph, QUERY_PATTERNS["q1"], order_policy="cost"
            ),
            lambda: ClusterConfig(pattern_kernel="indexed"),
            lambda: ClusterConfig(order_policy="cost"),
            lambda: ClusterConfig(batch_quantum=4),
            lambda: ClusterConfig(adaptive_max_chunk=8),
            lambda: ClusterConfig(meter_agg_shuffle=False),
            lambda: ClusterConfig(agg_entry_budget=4),
            lambda: ClusterConfig(scheduler="event"),
            lambda: ClusterConfig(fail_at={0: 1.0}),
            lambda: MultiprocessConfig(pattern_kernel="indexed"),
            lambda: MultiprocessConfig(order_policy="cost"),
            lambda: CostModel(gallop_crossover=4),
        ):
            with pytest.raises(TypeError):
                call()
        assert not hasattr(PatternInducedStrategy, "configure_kernel")


# ----------------------------------------------------------------------
# Metering (satellite: back-edge probe bugfix)
# ----------------------------------------------------------------------
class TestMetering:
    def test_legacy_meters_back_edge_probes(self, small_random_graph):
        # The triangle query closes a cycle: position 2 has two back
        # edges, so the legacy kernel must probe the non-anchor one.
        report = _enumerate(small_random_graph, QUERY_PATTERNS["q1"], "legacy")
        assert report.metrics.back_edge_probes > 0
        assert report.metrics.intersect_comparisons == 0
        assert report.metrics.gallop_steps == 0
        assert report.metrics.index_slices == 0

    def test_acyclic_pattern_needs_no_probes(self, small_random_graph):
        path = Pattern.from_edge_list([(0, 1), (1, 2)])
        report = _enumerate(small_random_graph, path, "legacy")
        assert report.metrics.back_edge_probes == 0

    def test_indexed_probes_nothing(self, small_random_graph):
        report = _enumerate(
            small_random_graph, QUERY_PATTERNS["q1"], "indexed"
        )
        assert report.metrics.back_edge_probes == 0
        assert report.metrics.index_slices > 0

    def test_summary_shape(self, small_random_graph):
        report = _enumerate(
            small_random_graph, QUERY_PATTERNS["q1"], "indexed"
        )
        summary = report.pattern_kernel_summary()
        assert summary["kernel"] == "indexed"
        assert "order_policy" not in summary
        assert summary["candidate_units"] > 0
        assert summary["order"] == report.steps[-1].kernel_info["order"]

    def test_non_pattern_runs_report_no_kernel(self, small_random_graph):
        ctx = FractalContext()
        fr = ctx.from_graph(small_random_graph).vfractoid().expand(2)
        report = fr.execute(collect="count")
        assert report.pattern_kernel_summary()["kernel"] is None


# ----------------------------------------------------------------------
# Counters pinned to recorded history
# ----------------------------------------------------------------------
COUNTER_FIELDS = (
    "extension_tests",
    "extensions_generated",
    "index_slices",
    "intersect_comparisons",
    "gallop_steps",
    "subgraphs_enumerated",
    "orbit_multiplied_embeddings",
)

# q1-q8 counted on orkut_like(scale=0.09) with kernel="decomposed":
# (match count,) + COUNTER_FIELDS.  Recorded at commit 2ce2d2e, where the
# indexed kernel re-derived every level per call, the merge was a
# two-pointer loop and the count walk pushed a Subgraph; identical there
# on the sequential, simulator and multiprocess backends.  q3 and q7 run
# as core-fringe decompositions on this graph, the rest as orbit counts.
# q4 and q5 re-recorded when their last positions began to start from
# the previous position's candidates (intersect.base_positions): fewer
# index slices and gallop steps, more merge comparisons, same counts.
RECORDED_COUNTERS = {
    "q1": (1131, 1905, 1905, 1459, 12250, 5395, 774, 1131),
    "q2": (14991, 21633, 21633, 12511, 145287, 28856, 6642, 14991),
    "q3": (13239, 774, 0, 1459, 21585, 3811, 0, 0),
    "q4": (982, 2887, 2887, 2590, 24122, 7823, 1905, 982),
    "q5": (659, 3546, 3546, 3572, 28367, 12096, 2887, 659),
    "q6": (448168, 598258, 512011, 124204, 2347494, 383, 63843, 448168),
    "q7": (142523, 774, 0, 1459, 21585, 3811, 0, 0),
    "q8": (207964, 287886, 271960, 121351, 1729261, 227430, 63996, 207964),
}
ORBIT_COUNTED = ("q1", "q2", "q4", "q5", "q6", "q8")

ENGINES = {
    "sequential": lambda: None,
    "simulator": lambda: ClusterConfig(workers=2, cores_per_worker=2),
    "multiprocess": lambda: MultiprocessConfig(num_procs=2),
}


@pytest.fixture(scope="module")
def orkut_small():
    return orkut_like(scale=0.09)


def _counter_row(count, metrics):
    return (count,) + tuple(getattr(metrics, f) for f in COUNTER_FIELDS)


class TestRecordedCounters:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_backends_reproduce_recorded_counters(self, orkut_small, engine):
        for name, recorded in RECORDED_COUNTERS.items():
            context = FractalContext()
            fractoid = query_fractoid(
                context.from_graph(orkut_small),
                QUERY_PATTERNS[name],
                kernel="decomposed",
            )
            count = fractoid.count(engine=ENGINES[engine]())
            row = _counter_row(count, context.last_report.metrics)
            assert row == recorded, (engine, name)

    def test_indexed_halves_the_reference_candidate_work(self, orkut_small):
        # The gate of the retired legacy-vs-indexed bench: >= 2x fewer
        # candidate cost units, summed over the Fig 15 queries.
        fg = FractalContext().from_graph(orkut_small)
        units = dict.fromkeys(KERNELS, 0.0)
        for pattern in QUERY_PATTERNS.values():
            for kernel in KERNELS:
                report = query_fractoid(fg, pattern, kernel=kernel).execute()
                units[kernel] += report.pattern_kernel_summary()["candidate_units"]
        assert units["legacy"] >= 2.0 * units["indexed"]

    @pytest.mark.parametrize("name", sorted(RECORDED_COUNTERS))
    def test_root_chunks_sum_to_the_whole(self, orkut_small, name):
        pattern = QUERY_PATTERNS[name]
        whole = _strategy(orkut_small, pattern, kernel="decomposed")
        count = whole.count_matches()
        assert count == RECORDED_COUNTERS[name][0]
        if name in ORBIT_COUNTED:
            assert _counter_row(count, whole.metrics) == RECORDED_COUNTERS[name]
        roots = orkut_small.vertices_with_label(
            pattern.vertex_labels[whole.order[0]]
        )
        # The caller lists the roots and meters doing so.
        merged = Metrics()
        merged.index_slices += 1
        merged.extension_tests += len(roots)
        merged.extensions_generated += len(roots)
        total = 0
        for k in range(3):
            part = _strategy(orkut_small, pattern, kernel="decomposed")
            total += part.count_matches(roots=roots[k::3])
            merged.merge(part.metrics)
        assert _counter_row(total, merged) == _counter_row(count, whole.metrics)


# ----------------------------------------------------------------------
# The plan is final after __init__
# ----------------------------------------------------------------------
class TestPlannedOnce:
    @pytest.mark.parametrize("kernel", (None,) + PATTERN_KERNELS)
    def test_each_strategy_is_planned_once(
        self, monkeypatch, small_random_graph, kernel
    ):
        calls = Counter()

        def count(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        count(PatternInducedStrategy, "__init__")
        for planner in (
            "symmetry_plan", "matching_order", "plan_matching_order", "compile_levels"
        ):
            count(enumerator, planner)
        fg = FractalContext().from_graph(small_random_graph)
        for engine in ("sequential", ClusterConfig(workers=2, cores_per_worker=2)):
            for collect in ("count", "subgraphs"):
                query_fractoid(fg, QUERY_PATTERNS["q3"], kernel=kernel).execute(
                    collect=collect, engine=engine
                )
        built = calls["__init__"]
        assert built > 4  # probes plus one strategy per simulated core
        legacy = kernel == "legacy"
        assert calls["symmetry_plan"] == built
        assert calls["matching_order"] == (built if legacy else 0)
        assert calls["plan_matching_order"] == (0 if legacy else built)
        assert calls["compile_levels"] == (0 if legacy else built)


# ----------------------------------------------------------------------
# Per-depth pattern memo
# ----------------------------------------------------------------------
class TestDepthPatternMemo:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_listing_interns_once_and_keeps_the_interned_object(self, kernel):
        graph = erdos_renyi_graph(30, 80, seed=3)
        context = FractalContext()
        results = query_fractoid(
            context.from_graph(graph), QUERY_PATTERNS["q1"], kernel=kernel
        ).subgraphs()
        assert len(results) > 1
        interner = context.interner
        # The first listed embedding derived its pattern; the rest were
        # handed the same interner entry by the strategy.
        assert interner.hits + interner.misses == 1
        for result in results:
            honest = Subgraph(graph, interner)
            honest.vertices.extend(result.vertices)
            honest.edges.extend(result.edges)
            assert result.pattern is honest.pattern()

    def test_memo_covers_only_what_the_strategy_pushed(self, labeled_graph):
        pattern = Pattern.from_edge_list(
            [(0, 1)], vertex_labels=[1, 2], edge_labels=[7]
        )
        strategy = _strategy(labeled_graph, pattern, kernel="indexed")
        subgraph = strategy.make_subgraph()
        seen = []
        for root in strategy.extensions(subgraph):
            strategy.push(subgraph, root)
            for word in strategy.extensions(subgraph):
                strategy.push(subgraph, word)
                seen.append(subgraph.pattern_with_positions())
                strategy.pop(subgraph)
            strategy.pop(subgraph)
        assert len(seen) > 1
        assert all(memo is seen[0] for memo in seen)
        assert strategy.interner.hits + strategy.interner.misses == 1
        # A vertex pushed behind the strategy's back is not vouched for:
        # its pattern is derived, not taken from the depth table.
        root = strategy.extensions(subgraph)[0]
        strategy.push(subgraph, root)
        stranger, eid = next(
            (v, eid)
            for v, eid in labeled_graph.neighborhood(root)
            if labeled_graph.edge_label(eid) == 8
        )
        subgraph.push_vertex(stranger, [eid])
        assert subgraph.pattern_with_positions() is not seen[0]
        assert [label for _, _, label in subgraph.pattern().edges] == [8]
