"""Differential test: shared level programs ≡ the bare programs.

The indexed kernels compute a level's candidates once per root for all
sibling prefixes that agree on the positions the level reads: the
enumeration's level programs through ``repro.core.intersect.share_level``,
the generated count and list walks (``repro.core.levelwalk``) through a
per-root memo at the same positions.  This file replays *every* call
on a shared level program against the unshared ``compile_level`` program — equal
candidates, equal full ``Metrics`` delta, and no entry older than the
current root — while a walk drives the strategy through everything that
can invalidate or damage an entry: root changes, ``rebuild()`` of stolen
prefixes, ``reset_state()``, a ``set_vertex_label()`` between two calls
on the same root, and callers editing the lists they were handed.  It
observes the generated walk's memos hit, and end to end, every backend
must return the legacy kernel's matches and, with sharing patched out,
the very same ``Metrics`` totals.

The replay and the unshared runs are test-local patches of
``share_level``, ``shares_candidates`` and the emitter; there is no
switch in ``src/`` to turn sharing off.
"""

from __future__ import annotations

import multiprocessing
import random
import re
from collections import Counter
from contextlib import contextmanager

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro import ClusterConfig, FractalContext, MultiprocessConfig, Pattern
from repro.apps import QUERY_PATTERNS
from repro.apps.queries import query_fractoid
from repro.core import intersect, levelwalk
from repro.core.enumerator import PatternInducedStrategy
from repro.graph import erdos_renyi_graph
from repro.pattern.decompose import (
    count_embeddings,
    instance_count,
    plan_decomposition,
)
from repro.pattern.isomorphism import match_pattern
from repro.pattern.pattern import PatternInterner
from repro.runtime.metrics import Metrics

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="multiprocess backend requires the fork start method",
)

MAX_LEVEL_CALLS = 300  # per driven walk


class _Replay:
    """What the patched ``share_level`` saw."""

    def __init__(self):
        self.calls = 0  # calls on shared levels
        self.computed = 0  # of which the bare program actually ran
        self.wrapped = []  # reads of every level that was wrapped


@contextmanager
def replaying():
    """Replay every shared-level call against its bare program."""
    replay = _Replay()
    real = intersect.share_level

    def checking(program, reads, graph, memo):
        replay.wrapped.append(tuple(reads))

        def counted(matched, metrics):
            replay.computed += 1
            return program(matched, metrics)

        shared = real(counted, reads, graph, memo)
        root = None
        keys = set()

        def checked(matched, metrics):
            nonlocal root
            replay.calls += 1
            if matched[0] != root:
                root = matched[0]
                keys.clear()
            keys.add(tuple(matched[pos] for pos in reads))
            before = metrics.snapshot()
            got = shared(matched, metrics)
            after = metrics.snapshot()
            bare = Metrics()
            want = program(matched, bare)
            assert isinstance(got, tuple), "a stored entry must not be editable"
            assert list(got) == want, (reads, list(matched))
            delta = {name: after[name] - before[name] for name in after}
            assert delta == bare.snapshot(), (reads, list(matched))
            # An entry lives for one root subtree.
            assert len(memo) <= len(keys), (reads, root, sorted(memo))
            return got

        return checked

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(intersect, "share_level", checking)
        yield replay


@contextmanager
def unshared():
    """Every level runs its bare program, and generated walks keep no memo."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            intersect, "share_level", lambda program, reads, graph, memo: program
        )
        patch.setattr(levelwalk, "shares_candidates", lambda pos, reads: False)
        levelwalk.level_executor.cache_clear()
        try:
            yield
        finally:
            levelwalk.level_executor.cache_clear()


class _Memo(dict):
    """A generated walk's per-root memo that counts lookups and stores."""

    calls: Counter = Counter()
    computed: Counter = Counter()

    def __init__(self, pos):
        super().__init__()
        self.pos = pos

    def get(self, key):
        _Memo.calls[self.pos] += 1
        return super().get(key)

    def __setitem__(self, key, value):
        _Memo.computed[self.pos] += 1
        super().__setitem__(key, value)


@contextmanager
def observed_memos():
    """Generated walks whose memos are :class:`_Memo` (a test-local patch
    of the emitter's output); yields ``(calls, computed)`` per position."""
    real = levelwalk._generate

    def observed(shape):
        source, namespace = real(shape)
        namespace["Memo"] = _Memo
        return re.sub(r"memo(\d+) = \{\}", r"memo\1 = Memo(\1)", source), namespace

    _Memo.calls, _Memo.computed = Counter(), Counter()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(levelwalk, "_generate", observed)
        levelwalk.level_executor.cache_clear()
        try:
            yield _Memo.calls, _Memo.computed
        finally:
            levelwalk.level_executor.cache_clear()


# ----------------------------------------------------------------------
# Random inputs
# ----------------------------------------------------------------------
def _random_pattern(rng: random.Random, n_labels: int, n_elabels: int) -> Pattern:
    """A random connected pattern on 3..5 vertices: a spanning tree plus
    a few chords, every label drawn."""
    k = rng.randint(3, 5)
    pairs = {(rng.randrange(v), v) for v in range(1, k)}
    for u in range(k):
        for v in range(u + 1, k):
            if rng.random() < 0.25:
                pairs.add((u, v))
    edges = sorted(pairs)
    return Pattern.from_edge_list(
        edges,
        vertex_labels=[rng.randrange(n_labels) for _ in range(k)],
        edge_labels=[rng.randrange(n_elabels) for _ in edges],
    )


@st.composite
def cases(draw):
    """``(graph, pattern, rng)``: a random labeled graph
    with a catalog query (all-zero labels) or a random labeled pattern."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    n = draw(st.integers(min_value=5, max_value=14))
    m = draw(st.integers(min_value=n - 1, max_value=min(3 * n, n * (n - 1) // 2)))
    from_catalog = draw(st.booleans())
    n_labels = rng.choice([1, 2] if from_catalog else [1, 2, 3])
    n_elabels = 1 if from_catalog else rng.choice([1, 2])
    graph = erdos_renyi_graph(
        n, m, n_labels=n_labels, n_edge_labels=n_elabels, seed=seed % 10_000
    )
    if from_catalog:
        pattern = QUERY_PATTERNS[draw(st.sampled_from(sorted(QUERY_PATTERNS)))]
    else:
        pattern = _random_pattern(rng, n_labels, n_elabels)
    return graph, pattern, rng


def _strategy(graph, pattern, kernel="indexed"):
    return PatternInducedStrategy(
        graph, Metrics(), PatternInterner(), pattern, kernel=kernel
    )


def _instances(graph, pattern) -> int:
    return sum(1 for _ in match_pattern(pattern, graph, distinct=True))


# ----------------------------------------------------------------------
# Every level call, replayed
# ----------------------------------------------------------------------
def _drive(strategy, graph, rng, n_labels):
    """A DFS over ``strategy`` that steals, resets, relabels and edits
    the lists it gets; every ``extensions()`` call is replayed by the
    patched ``share_level``."""
    subgraph = strategy.make_subgraph()
    strategy.reset_state()
    depth_limit = strategy.word_count_limit()
    shared = {
        pos
        for pos, level in enumerate(strategy.kernel_info()["levels"])
        if level["shared"]
    }
    visited = []  # prefixes seen so far: what a thief could be handed
    budget = [MAX_LEVEL_CALLS]

    def extensions():
        budget[0] -= 1
        found = strategy.extensions(subgraph)
        assert type(found) is list
        words = list(found)
        # The caller owns what it is handed (frames are stolen from by
        # popping): nothing it does may reach a stored entry.
        found.reverse()
        found.append(-1)
        del found[:2]
        return words

    def walk():
        if len(subgraph.vertices) == depth_limit or budget[0] <= 0:
            return
        words = extensions()
        here = tuple(subgraph.vertices)
        visited.append(here)
        event = rng.random()
        if len(here) in shared and words and n_labels > 1 and event < 0.5:
            # Same root, same prefix, different graph: the candidate that
            # was relabeled must be gone from the very next answer.
            victim = rng.choice(words)
            label = graph.vertex_label(victim)
            graph.set_vertex_label(victim, (label + 1) % n_labels)
            words = extensions()
            assert victim not in words
        elif event < 0.15:
            strategy.reset_state()
            assert extensions() == words
        elif event < 0.35:
            # A stolen prefix arrives, is extended, and the walk resumes.
            strategy.rebuild(subgraph, rng.choice(visited))
            extensions()
            strategy.rebuild(subgraph, here)
            assert extensions() == words
        for word in words:
            if budget[0] <= 0:
                return
            strategy.push(subgraph, word)
            walk()
            strategy.pop(subgraph)

    walk()


@given(cases())
@settings(max_examples=60, deadline=None)
def test_every_level_call_replays_against_the_bare_program(case):
    graph, pattern, rng = case
    n_labels = len(set(graph.vertex_labels()))
    expected = _instances(graph, pattern)
    with replaying() as replay:
        strategy = _strategy(graph, pattern)
        # Exactly the positions kernel_info calls shared were wrapped.
        levels = strategy.kernel_info()["levels"]
        assert replay.wrapped == [
            tuple(level["reads"]) for level in levels if level["shared"]
        ]
        for pos, level in enumerate(levels):
            reads = {p for p, _ in strategy._back_edges[pos]}
            reads |= {p for p, _ in strategy._checks[pos]}
            if level["base"] is not None:
                # A reused level's work depends on its base's candidates.
                reads |= set(levels[level["base"]]["reads"])
            assert level["reads"] == sorted(reads)
            # Entries are per root, so the root counts as read.
            assert level["shared"] == (reads | {0} < set(range(pos)))
        assert strategy.count_matches() == expected
        plan = plan_decomposition(pattern, graph)
        if plan is not None:
            raw = count_embeddings(plan, graph, Metrics())
            assert instance_count(plan, raw) == expected
        _drive(strategy, graph, rng, n_labels)
    assert replay.computed <= replay.calls


def test_sharing_is_exercised_and_explained():
    """q6 and q8 repeat level inputs under one root; q3 never can.

    Observed on the generated walk's memos, which sit at exactly the
    positions ``kernel_info`` calls shared."""
    graph = erdos_renyi_graph(40, 160, n_labels=1, seed=11)
    shared_positions = {}
    for name in ("q3", "q6", "q8"):
        with observed_memos() as (calls, computed):
            strategy = _strategy(graph, QUERY_PATTERNS[name])
            expected = _strategy(graph, QUERY_PATTERNS[name])
            with unshared():
                want = expected.count_matches()
            assert strategy.count_matches() == want
            totals = [s.metrics.snapshot() for s in (strategy, expected)]
            for snapshot in totals:
                # Plan-cache hits depend on what was built before.
                del snapshot["symmetry_cache_hits"]
            assert totals[0] == totals[1]
        shared_positions[name] = [
            pos
            for pos, level in enumerate(strategy.kernel_info()["levels"])
            if level["shared"]
        ]
        tail, _ = strategy.orbit_tail()
        cut = strategy.pattern.n_vertices - tail
        walked = [pos for pos in shared_positions[name] if pos <= cut]
        assert sorted(calls) == walked, name
        for pos in walked:
            assert 0 < computed[pos] < calls[pos], (name, pos)
    assert shared_positions["q3"] == []
    assert shared_positions["q6"] and shared_positions["q8"]
    legacy = _strategy(graph, QUERY_PATTERNS["q6"], kernel="legacy")
    assert not any(level["shared"] for level in legacy.kernel_info()["levels"])


def test_relabel_between_two_calls_on_one_root():
    """``set_vertex_label`` bumps ``graph.version``: the next call on the
    same root and prefix must answer from the new labels."""
    graph = erdos_renyi_graph(40, 160, n_labels=1, seed=11)
    with replaying() as replay:
        strategy = _strategy(graph, QUERY_PATTERNS["q6"])
        subgraph = strategy.make_subgraph()
        shared = [
            pos
            for pos, level in enumerate(strategy.kernel_info()["levels"])
            if level["shared"]
        ]
        # Walk down first candidates to the first shared position.
        while len(subgraph.vertices) < shared[0]:
            strategy.push(subgraph, strategy.extensions(subgraph)[0])
        before = strategy.extensions(subgraph)
        assert strategy.extensions(subgraph) == before  # a hit
        assert replay.computed == 1 and replay.calls == 2
        graph.set_vertex_label(before[0], 1)
        assert strategy.extensions(subgraph) == before[1:]
        assert replay.computed == 2


# ----------------------------------------------------------------------
# End to end, every backend
# ----------------------------------------------------------------------
ENGINES = {
    "sequential": "sequential",
    "sim-1x1": ClusterConfig(workers=1, cores_per_worker=1),
    "sim-2x2": ClusterConfig(workers=2, cores_per_worker=2),
    "mp-2": MultiprocessConfig(num_procs=2),
}


def _run(graph, pattern, engine_name, kernel, collect):
    context = FractalContext(engine=ENGINES[engine_name])
    fractoid = query_fractoid(context.from_graph(graph), pattern, kernel=kernel)
    report = fractoid.execute(collect=collect)
    listing = None
    if collect == "subgraphs":
        listing = sorted((s.vertices, s.edges) for s in report.subgraphs)
    totals = report.metrics.snapshot()
    # Plan-cache hits depend on what ran earlier in the process.
    del totals["symmetry_cache_hits"]
    return report, listing, totals


@pytest.mark.parametrize(
    "engine_name",
    ["sequential", "sim-1x1", "sim-2x2", pytest.param("mp-2", marks=needs_fork)],
)
@pytest.mark.parametrize("query", ["q3", "q6", "q8"])
def test_backends_match_legacy_and_meter_like_unshared(engine_name, query):
    graph = erdos_renyi_graph(40, 160, n_labels=1, seed=11)
    pattern = QUERY_PATTERNS[query]
    for collect in ("count", "subgraphs"):
        legacy, legacy_listing, _ = _run(
            graph, pattern, engine_name, "legacy", collect
        )
        with replaying():
            report, listing, totals = _run(
                graph, pattern, engine_name, "indexed", collect
            )
        with unshared():
            bare, bare_listing, bare_totals = _run(
                graph, pattern, engine_name, "indexed", collect
            )
        assert report.result_count == legacy.result_count == bare.result_count
        assert listing == bare_listing
        if listing is not None:
            # Orders differ (legacy vs cost), so embeddings compare as
            # vertex sets: one per instance under either kernel.
            assert sorted(sorted(v) for v, _ in listing) == sorted(
                sorted(v) for v, _ in legacy_listing
            )
        assert totals == bare_totals
        assert report.simulated_seconds == bare.simulated_seconds
    if engine_name == "sim-2x2":
        # The listing run above stole work: shared levels were entered
        # through rebuilt prefixes on other cores.
        assert report.metrics.steals_internal + report.metrics.steals_external > 0
