"""Differential test: the level walk ≡ the enumeration it replaces.

``PatternInducedStrategy.count_matches`` and ``list_matches`` run one
generated nested-loop executor per plan shape
(``repro.core.levelwalk.level_executor``).  A pure listing step — every
primitive an expansion, one per pattern vertex, ``collect="subgraphs"``
— is planned as ``"list"`` and runs the list leaf, emitting a
``SubgraphResult`` per match instead of pushing a ``Subgraph``.  It must
hand out what the enumeration's freezing sink would — same vertices,
edges and pattern, in the same order — and move every ``Metrics``
counter by the same amount, on random labeled graphs and connected
patterns of one to six vertices (cliques and same-back-set positions
among them, so levels that start from an earlier position's candidates
are walked too), under both indexed-family kernels, on
the sequential and the multiprocess backend, with and without root
words (label-correct, as the executors hand them out).  The count leaf
must return the enumeration's count and meter what the orbit walk over
the enumeration's own level programs (``extensions()``, full
injectivity test) meters, kept here as the reference.  Everything else
keeps enumerating and says why in ``kernel_info["list_walk"]``.

Also here: the injectivity rule the generator applies, the executor
cache, and the gallop crossover read on every call.
"""

from __future__ import annotations

import multiprocessing
import random
from math import comb
from multiprocessing import shared_memory

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, event, given, settings, strategies as st

from repro import ClusterConfig, FractalContext, MultiprocessConfig, Pattern
from repro.apps import QUERY_PATTERNS
from repro.apps.queries import query_fractoid
from repro.core import intersect, levelwalk
from repro.core.computation import Computation
from repro.core.enumerator import PatternInducedStrategy
from repro.core.planner import twin_tail
from repro.core.primitives import Expand
from repro.graph import erdos_renyi_graph, orkut_like
from repro.pattern.isomorphism import match_pattern
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
def cases(draw, max_k=6, shapes=("tree", "clique", "twin", "twins")):
    """``(graph, pattern, kernel, roots)``: a random labeled graph, a
    random connected pattern on 1..``max_k`` vertices over its labels, a
    kernel and ``None`` or some root words.

    A pattern is a spanning tree plus random chords, and then maybe a
    clique on some of its vertices, a *twin* — a vertex given another
    one's neighbours — or a class of *twins* — two or three vertices of
    one label hung off one set of core vertices by the same edge labels
    — the shapes whose positions start from an earlier position's
    candidates (``kernel_info()["levels"][pos]["base"]``); those draw
    denser graphs, where such matches exist.  The planner matches a twin
    class last (``kernel_info()["symmetry"]["twins"]``): each draw is
    labelled with whether it got a planned tail."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    shape = draw(st.sampled_from(shapes))
    n = draw(st.integers(min_value=4, max_value=14))
    most = n * (n - 1) // 2
    if shape == "tree":
        m = draw(st.integers(min_value=n - 1, max_value=min(3 * n, most)))
        n_labels = rng.choice([1, 2])
        n_elabels = rng.choice([1, 2])
    else:
        m = draw(st.integers(min_value=most * 2 // 3, max_value=most))
        n_labels = rng.choice([1, 1, 2])
        n_elabels = rng.choice([1, 1, 2])
    graph = erdos_renyi_graph(
        n, m, n_labels=n_labels, n_edge_labels=n_elabels, seed=seed % 10_000
    )
    k = draw(st.integers(min_value=1 if shape == "tree" else 4, max_value=max_k))
    pattern = _random_pattern(rng, shape, k, n_labels, n_elabels)
    event(f"planned tail: {bool(twin_tail(pattern))}")
    kernel = draw(st.sampled_from(KERNELS))
    roots = None
    if draw(st.booleans()):
        # Root words as the executors pass them: vertices with the label
        # of the first pattern vertex matched, any of them, in any order.
        first = _strategy(graph, pattern, kernel).order[0]
        candidates = list(graph.vertices_with_label(pattern.vertex_labels[first]))
        roots = draw(st.permutations(candidates))[
            : draw(st.integers(min_value=0, max_value=len(candidates)))
        ]
    return graph, pattern, kernel, roots


def _random_pattern(rng, shape, k, n_labels, n_elabels):
    """A connected ``k``-vertex pattern of ``shape`` (see :func:`cases`)."""
    n_twins = rng.randint(2, 3) if shape == "twins" else 0
    core = k - n_twins
    pairs = {(rng.randrange(v), v) for v in range(1, core)}
    for u in range(core):
        for v in range(u + 1, core):
            if rng.random() < 0.3:
                pairs.add((u, v))
    if shape == "clique":
        members = sorted(rng.sample(range(k), rng.randint(4, k)))
        pairs.update((u, v) for i, u in enumerate(members) for v in members[i + 1:])
    elif shape == "twin":
        twin, original = rng.sample(range(k), 2)
        for u, v in list(pairs):
            if original in (u, v):
                other = v if u == original else u
                if other != twin:
                    pairs.add((min(other, twin), max(other, twin)))
    labels = [rng.randrange(n_labels) for _ in range(k)]
    edges = [(u, v, rng.randrange(n_elabels)) for u, v in sorted(pairs)]
    if n_twins:
        # Vertices core..k-1: one label, one neighbourhood, one edge
        # label per neighbour.
        hub = [(q, rng.randrange(n_elabels)) for q in rng.sample(
            range(core), rng.randint(1, min(3, core))
        )]
        label = rng.randrange(n_labels)
        for twin in range(core, k):
            labels[twin] = label
            edges.extend((q, twin, elabel) for q, elabel in hub)
        # Twins anywhere in the vertex numbering, not only last.
        ids = rng.sample(range(k), k)
        labels = [labels[ids.index(v)] for v in range(k)]
        edges = [(ids[u], ids[v], elabel) for u, v, elabel in edges]
    return Pattern(labels, edges)


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


def _reference_count(strategy, roots):
    """The orbit count walk over the enumeration's level programs.

    Each position's candidates come from ``strategy._levels`` — what
    ``extensions()`` returns, the full ``used`` test included — down to
    the orbit cut, where every prefix is credited ``C(|C|, tau) *
    arrangements``; metered as the enumeration meters its pushes.
    """
    metrics = strategy.metrics
    levels = strategy._levels
    tau, arrangements = strategy.orbit_tail()
    cut = strategy.pattern.n_vertices - tau
    matched = [0] * (cut + 1)
    used = set()
    strategy.reset_state()
    total = 0

    def walk(pos, candidates):
        nonlocal total
        metrics.subgraphs_enumerated += len(candidates)
        for v in candidates:
            matched[pos] = v
            used.add(v)
            found = levels[pos + 1](matched, used)
            if pos + 1 == cut:
                total += comb(len(found), tau) * arrangements
            else:
                walk(pos + 1, found)
            used.discard(v)

    first = list(roots) if roots is not None else levels[0](matched, used)
    if cut == 0:
        total = comb(len(first), tau) * arrangements
    else:
        walk(0, first)
    metrics.orbit_multiplied_embeddings += total
    return total


@given(cases())
@settings(max_examples=200, deadline=None)
def test_count_matches_equals_the_enumeration(case):
    graph, pattern, kernel, roots = case
    expected, _ = _enumerated(graph, pattern, kernel, roots)
    reference = _strategy(graph, pattern, kernel)
    before = reference.metrics.snapshot()
    assert _reference_count(reference, roots) == len(expected)
    expected_delta = _delta(before, reference.metrics.snapshot())
    strategy = _strategy(graph, pattern, kernel)
    before = strategy.metrics.snapshot()
    assert strategy.count_matches(roots) == len(expected)
    assert _delta(before, strategy.metrics.snapshot()) == expected_delta


# ----------------------------------------------------------------------
# Injectivity decided at generation time
# ----------------------------------------------------------------------
def _injective(graph, pattern):
    strategy = _strategy(graph, pattern, "indexed")
    return strategy, [level["injective"] for level in strategy.kernel_info()["levels"]]


def _oracle_count(graph, pattern):
    return sum(1 for _ in match_pattern(pattern, graph, distinct=True))


def _assert_counts_and_lists(graph, pattern):
    """Both leaves against the enumeration on ``graph``."""
    expected, delta = _enumerated(graph, pattern, "indexed", None)
    assert len(expected) == _oracle_count(graph, pattern)
    strategy = _strategy(graph, pattern, "indexed")
    before = strategy.metrics.snapshot()
    assert _rows(strategy.list_matches()) == _rows(expected)
    assert _delta(before, strategy.metrics.snapshot()) == delta
    assert _strategy(graph, pattern, "indexed").count_matches() == len(expected)


UNLABELED = erdos_renyi_graph(30, 150, n_labels=1, seed=3)


def test_clique_collisions_are_ruled_out_by_the_transitive_order():
    clique = QUERY_PATTERNS["q5"]
    strategy, injective = _injective(UNLABELED, clique)
    assert injective == [[]] * 5
    # Every earlier position is also a back neighbour here; without the
    # back edges the symmetry order alone must still rule out every test,
    # which takes the chain's transitive closure: some position is not
    # checked directly against every earlier one.
    n = len(strategy.order)
    no_backs = [()] * n
    assert levelwalk.injective_positions(
        strategy._labels, no_backs, strategy._checks
    ) == [()] * n
    direct = [{q for q, _ in strategy._checks[p]} for p in range(n)]
    assert any(direct[p] != set(range(p)) for p in range(n))
    _assert_counts_and_lists(UNLABELED, clique)


def test_star_leaves_ordered_by_the_symmetry_checks():
    star = Pattern([0] * 5, [(0, leaf, 0) for leaf in range(1, 5)])
    strategy, injective = _injective(UNLABELED, star)
    assert strategy.order[0] == 0  # the centre; the leaves are siblings
    assert injective == [[]] * 5
    _assert_counts_and_lists(UNLABELED, star)


def test_all_distinct_labels_need_no_test():
    graph = erdos_renyi_graph(40, 160, n_labels=4, seed=5)
    path = Pattern([0, 1, 2, 3], [(0, 1, 0), (1, 2, 0), (2, 3, 0)])
    _, injective = _injective(graph, path)
    assert injective == [[]] * 4
    _assert_counts_and_lists(graph, path)


def test_cycles_keep_exactly_the_collision_tests_they_need(monkeypatch):
    # The 4-cycle's checks order every non-adjacent pair; the 5-cycle's
    # leave position 3 (two hops from 0 the long way round) untested
    # against 0, so that test must stay.
    four = Pattern([0] * 4, [(0, 1, 0), (1, 2, 0), (2, 3, 0), (0, 3, 0)])
    five = QUERY_PATTERNS["q8"]
    assert _injective(UNLABELED, four)[1] == [[]] * 4
    assert _injective(UNLABELED, five)[1] == [[], [], [], [0], [2]]
    for cycle in (four, five):
        _assert_counts_and_lists(UNLABELED, cycle)
    # Without it the walk would count closed walks that revisit a vertex.
    expected = _oracle_count(UNLABELED, five)
    monkeypatch.setattr(
        levelwalk, "injective_positions",
        lambda labels, backs, checks: [()] * len(labels),
    )
    levelwalk.level_executor.cache_clear()
    try:
        assert _strategy(UNLABELED, five, "indexed").count_matches() > expected
    finally:
        levelwalk.level_executor.cache_clear()


@pytest.mark.parametrize(
    "pattern",
    [Pattern([0], []), Pattern([0, 0], [(0, 1, 0)])],
    ids=["one-vertex", "one-edge"],
)
def test_one_and_two_vertex_patterns(pattern):
    _, injective = _injective(UNLABELED, pattern)
    assert injective == [[]] * pattern.n_vertices
    _assert_counts_and_lists(UNLABELED, pattern)


def test_legacy_levels_report_the_whole_prefix():
    legacy = _strategy(UNLABELED, QUERY_PATTERNS["q6"], "legacy")
    levels = legacy.kernel_info()["levels"]
    assert [level["injective"] for level in levels] == [
        list(range(pos)) for pos in range(5)
    ]


# ----------------------------------------------------------------------
# One compile per plan shape
# ----------------------------------------------------------------------
def _compiles():
    return levelwalk.level_executor.cache_info().misses


def test_one_shape_on_two_graphs_compiles_once():
    triangle = QUERY_PATTERNS["q1"]
    graphs = [
        erdos_renyi_graph(30, 120, n_labels=1, seed=1),
        erdos_renyi_graph(50, 200, n_labels=1, seed=2),
    ]
    strategies = [_strategy(g, triangle, "indexed") for g in graphs]
    assert strategies[0]._shape == strategies[1]._shape
    levelwalk.level_executor.cache_clear()
    counts = [s.count_matches() for s in strategies]
    assert _compiles() == 1
    assert counts == [_oracle_count(g, triangle) for g in graphs]
    assert counts[0] != counts[1]


def test_cluster_count_shares_compile_once_per_step():
    graph = erdos_renyi_graph(40, 160, n_labels=1, seed=11)
    context = FractalContext(engine=ClusterConfig(workers=2, cores_per_worker=4))
    fractoid = query_fractoid(
        context.from_graph(graph), QUERY_PATTERNS["q6"], kernel="indexed"
    )
    levelwalk.level_executor.cache_clear()
    report = fractoid.execute(collect="count")
    assert report.steps[-1].kernel_info["orbit_count"]["executed"]
    assert _compiles() == 1
    assert report.result_count == _oracle_count(graph, QUERY_PATTERNS["q6"])


def test_a_pattern_too_long_to_generate_enumerates():
    path = Pattern([0] * 17, [(v, v + 1, 0) for v in range(16)])
    strategy = _strategy(UNLABELED, path, "indexed")
    assert not strategy.supports_level_walk()
    with pytest.raises(ValueError, match="at most 16 positions"):
        strategy.count_matches()


# ----------------------------------------------------------------------
# The gallop crossover is read on every call
# ----------------------------------------------------------------------
def test_the_gallop_crossover_stays_live(monkeypatch):
    graph = orkut_like(scale=0.1)
    triangle = QUERY_PATTERNS["q1"]

    def counted():
        strategy = _strategy(graph, triangle, "indexed")
        count = strategy.count_matches()
        return count, strategy.metrics.gallop_steps, strategy.metrics.intersect_comparisons

    default = counted()
    monkeypatch.setattr(intersect, "GALLOP_CROSSOVER", 10**9)
    merged = counted()
    assert merged[0] == default[0]
    assert merged[1] < default[1] and merged[2] > default[2]
    monkeypatch.undo()
    assert counted() == default


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
# Twins matched last, on every backend
# ----------------------------------------------------------------------
TWIN_ENGINES = {
    "sequential": lambda: "sequential",
    "sim2x2": lambda: ClusterConfig(workers=2, cores_per_worker=2),
    "mp2": lambda: MultiprocessConfig(num_procs=2),
}


@pytest.mark.skipif(not HAVE_FORK, reason="multiprocess backend needs fork")
@given(cases(shapes=("twins",)))
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_twins_count_and_list_like_the_legacy_preset(case):
    # A planned tail is counted in closed form and listed from the first
    # twin's candidates; the legacy preset walks every embedding in its
    # own order.  Same matches, same counts, on every backend.
    graph, pattern, kernel, _ = case
    legacy = _execute(graph, pattern, "legacy", "sequential")
    expected = _matches(legacy)
    for name, engine in TWIN_ENGINES.items():
        listed = _execute(graph, pattern, kernel, engine())
        assert _matches(listed) == expected, name
        fg = FractalContext().from_graph(graph)
        count = query_fractoid(fg, pattern, kernel=kernel).count(engine=engine())
        assert count == len(expected), name


def test_most_twin_draws_get_a_planned_tail(capsys):
    # The share of ``cases(shapes=("twins",))`` patterns the planner
    # gives a twin tail; the rest grew a larger class that would
    # disconnect the core.
    rng = random.Random(0)
    draws = 500
    planned = sum(
        bool(twin_tail(_random_pattern(
            rng, "twins", rng.randint(4, 6), rng.choice([1, 2]), rng.choice([1, 2])
        )))
        for _ in range(draws)
    )
    with capsys.disabled():
        print(f"\n[twins] {planned}/{draws} draws get a planned tail")
    assert planned >= 0.9 * draws


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
