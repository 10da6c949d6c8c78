"""Differential test: the listing walk ≡ the enumeration it replaces.

A pure listing step — every primitive an expansion, one per pattern
vertex, ``collect="subgraphs"`` — is planned as ``"list"`` and runs as
``PatternInducedStrategy.list_matches``: the level walk ``count_matches``
also takes, emitting a ``SubgraphResult`` per match instead of pushing a
``Subgraph``.  It must hand out what the enumeration's freezing sink
would — same vertices, edges and pattern, in the same order — and move
every ``Metrics`` counter by the same amount, on random labeled graphs
and connected patterns of one to five vertices, under both indexed-family
kernels, on the sequential and the multiprocess backend, with and
without root words (label-correct, as the executors hand them out).  Everything else keeps enumerating and says why in
``kernel_info["list_walk"]``.
"""

from __future__ import annotations

import multiprocessing
import random
from multiprocessing import shared_memory

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import ClusterConfig, FractalContext, MultiprocessConfig, Pattern
from repro.core.computation import Computation
from repro.core.enumerator import PatternInducedStrategy
from repro.core.primitives import Expand
from repro.graph import erdos_renyi_graph
from repro.pattern.pattern import PatternInterner
from repro.runtime import mp_backend
from repro.runtime.driver import execute_plan
from repro.runtime.engine import run_step_sequential
from repro.runtime.metrics import Metrics

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

KERNELS = ("indexed", "decomposed")


# ----------------------------------------------------------------------
# Random inputs
# ----------------------------------------------------------------------
@st.composite
def cases(draw):
    """``(graph, pattern, kernel, roots)``: a random labeled graph, a
    random connected pattern on 1..5 vertices over its labels, a kernel
    and ``None`` or some root words."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    n = draw(st.integers(min_value=4, max_value=14))
    m = draw(st.integers(min_value=n - 1, max_value=min(3 * n, n * (n - 1) // 2)))
    n_labels = rng.choice([1, 2])
    n_elabels = rng.choice([1, 2])
    graph = erdos_renyi_graph(
        n, m, n_labels=n_labels, n_edge_labels=n_elabels, seed=seed % 10_000
    )
    k = draw(st.integers(min_value=1, max_value=5))
    pairs = {(rng.randrange(v), v) for v in range(1, k)}
    for u in range(k):
        for v in range(u + 1, k):
            if rng.random() < 0.3:
                pairs.add((u, v))
    edges = sorted(pairs)
    labels = [rng.randrange(n_labels) for _ in range(k)]
    pattern = Pattern(
        labels, [(u, v, rng.randrange(n_elabels)) for u, v in edges]
    )
    kernel = draw(st.sampled_from(KERNELS))
    roots = None
    if draw(st.booleans()):
        # Root words as the executors pass them: vertices with the label
        # of the first pattern vertex matched, any of them, in any order.
        first = _strategy(graph, pattern, kernel).order[0]
        candidates = list(graph.vertices_with_label(labels[first]))
        roots = draw(st.permutations(candidates))[
            : draw(st.integers(min_value=0, max_value=len(candidates)))
        ]
    return graph, pattern, kernel, roots


def _strategy(graph, pattern, kernel):
    return PatternInducedStrategy(
        graph, Metrics(), PatternInterner(), pattern, kernel=kernel
    )


def _rows(results):
    return [(r.vertices, r.edges, r.pattern) for r in results]


def _delta(before, after):
    return {name: after[name] - before[name] for name in after}


def _enumerated(graph, pattern, kernel, roots):
    """The enumeration with a freezing sink: ``(results, Metrics delta)``."""
    strategy = _strategy(graph, pattern, kernel)
    before = strategy.metrics.snapshot()
    results = []
    run_step_sequential(
        strategy,
        [Expand() for _ in range(pattern.n_vertices)],
        Computation(graph, strategy.metrics, strategy.interner, {}),
        set(),
        sink=lambda subgraph: results.append(subgraph.freeze()),
        root_words=roots,
    )
    return results, _delta(before, strategy.metrics.snapshot())


def _execute(graph, pattern, kernel, engine, roots=None, primitives=None):
    def factory(g, metrics, interner):
        return PatternInducedStrategy(g, metrics, interner, pattern, kernel=kernel)

    if primitives is None:
        primitives = [Expand() for _ in range(pattern.n_vertices)]
    return execute_plan(
        graph, factory, PatternInterner(), primitives, {},
        engine=engine, collect="subgraphs", root_words=roots,
    )


def _totals(report):
    snapshot = report.metrics.snapshot()
    # Plan-cache hits depend on what ran earlier in the process.
    del snapshot["symmetry_cache_hits"]
    return snapshot


# ----------------------------------------------------------------------
# The walk itself
# ----------------------------------------------------------------------
@given(cases())
@settings(max_examples=200, deadline=None)
def test_list_matches_equals_the_enumeration(case):
    graph, pattern, kernel, roots = case
    expected, expected_delta = _enumerated(graph, pattern, kernel, roots)
    strategy = _strategy(graph, pattern, kernel)
    before = strategy.metrics.snapshot()
    listed = strategy.list_matches(roots)
    assert _rows(listed) == _rows(expected)
    assert _delta(before, strategy.metrics.snapshot()) == expected_delta
    assert expected_delta["results_emitted"] == len(expected)


# ----------------------------------------------------------------------
# Through the backends
# ----------------------------------------------------------------------
@given(cases())
@settings(max_examples=40, deadline=None)
def test_sequential_backend_lists_like_the_enumeration(case):
    graph, pattern, kernel, roots = case
    expected, delta = _enumerated(graph, pattern, kernel, roots)
    report = _execute(graph, pattern, kernel, "sequential", roots)
    step = report.steps[-1]
    assert step.kernel_info["list_walk"] == {"executed": True}
    assert step.backend_info == {"backend": "sequential", "listed": True}
    assert _rows(report.subgraphs) == _rows(expected)
    assert report.result_count == len(expected)
    del delta["symmetry_cache_hits"]
    # The planner's own: a listing step declines the decomposed count.
    delta["decomp_fallbacks"] += kernel == "decomposed"
    assert _totals(report) == delta


@pytest.mark.skipif(not HAVE_FORK, reason="multiprocess backend needs fork")
@given(cases())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_workers_list_like_the_enumeration(case):
    graph, pattern, kernel, roots = case
    sequential = _execute(graph, pattern, kernel, "sequential", roots)
    segments = []
    real = mp_backend.SharedGraphBuffers

    def recording(g):
        shared = real(g)
        segments.append(shared.name)
        return shared

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mp_backend, "SharedGraphBuffers", recording)
        report = _execute(
            graph, pattern, kernel, MultiprocessConfig(num_procs=2), roots
        )
    info = report.steps[-1].backend_info
    assert info.get("listed_in_worker") or info.get("listed_in_driver")
    assert report.steps[-1].kernel_info == sequential.steps[-1].kernel_info
    # Chunks are folded in chunk order, not root order: compare as sets.
    assert sorted(_rows(report.subgraphs)) == sorted(_rows(sequential.subgraphs))
    assert _totals(report) == _totals(sequential)
    # No segment created during the call outlives it.
    for name in segments:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


# ----------------------------------------------------------------------
# What keeps enumerating, and says why
# ----------------------------------------------------------------------
GRAPH = erdos_renyi_graph(40, 120, n_labels=2, seed=7)
PATH = Pattern([0, 1, 0], [(0, 1, 0), (1, 2, 0)])


def _matches(report):
    """Each match as the sets it covers: order-free, kernel-free."""
    return sorted(
        (sorted(r.vertices), sorted(r.edges)) for r in report.subgraphs
    )


def test_legacy_kernel_enumerates():
    report = _execute(GRAPH, PATH, "legacy", "sequential")
    step = report.steps[-1]
    assert step.kernel_info["list_walk"] == {
        "executed": False,
        "reason": "kernel has no level walk",
    }
    assert "listed" not in step.backend_info
    walked = _execute(GRAPH, PATH, "indexed", "sequential")
    assert report.subgraphs and _matches(report) == _matches(walked)


def test_a_partial_expansion_enumerates():
    fractoid = (
        FractalContext().from_graph(GRAPH).pfractoid(PATH, kernel="indexed")
        .expand(2)
    )
    report = fractoid.execute(collect="subgraphs")
    step = report.steps[-1]
    assert step.kernel_info["list_walk"] == {
        "executed": False,
        "reason": "partial-pattern step (multi-step exploration)",
    }
    assert "listed" not in step.backend_info
    assert report.subgraphs and all(len(r.vertices) == 2 for r in report.subgraphs)


def test_a_filter_enumerates():
    fractoid = (
        FractalContext().from_graph(GRAPH).pfractoid(PATH, kernel="indexed")
        .expand(3)
        .filter(lambda subgraph, computation: subgraph.vertices[0] % 2 == 0)
    )
    report = fractoid.execute(collect="subgraphs")
    step = report.steps[-1]
    assert step.kernel_info["list_walk"] == {
        "executed": False,
        "reason": "workflow needs embeddings (non-extension primitives present)",
    }
    assert "listed" not in step.backend_info
    walked = _execute(GRAPH, PATH, "indexed", "sequential")
    assert _rows(report.subgraphs) == [
        row for row in _rows(walked.subgraphs) if row[0][0] % 2 == 0
    ]


@pytest.mark.parametrize("kernel", KERNELS)
def test_the_simulated_cluster_enumerates(kernel):
    report = _execute(
        GRAPH, PATH, kernel, ClusterConfig(workers=2, cores_per_worker=2)
    )
    step = report.steps[-1]
    assert step.kernel_info["list_walk"] == {
        "executed": False,
        "reason": "simulated cluster enumerates listings on its per-core clocks",
    }
    assert step.cluster is not None  # its scheduler ran the step
    assert "listed" not in step.backend_info
    walked = _execute(GRAPH, PATH, kernel, "sequential")
    assert report.subgraphs
    assert sorted(_rows(report.subgraphs)) == sorted(_rows(walked.subgraphs))
    assert report.metrics.subgraphs_enumerated == (
        walked.metrics.subgraphs_enumerated
    )
