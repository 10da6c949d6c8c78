"""Candidate reuse: a level starts from its base's candidates.

``repro.core.intersect.base_positions`` gives a matching-order position
a *base* — the latest earlier position with its vertex label, at least
two back edges that are all back edges of it, outside the orbit tail,
whose symmetry window contains its own.  Such a level cuts the base's
candidate list to its window and intersects only the back edges it
adds, in the enumeration's level programs and in the generated walks
alike.  Here:

* the rule on q1-q8, counted and listed (what ``kernel_info`` reports);
* the rule's negative shapes, one condition broken at a time;
* q4 and q5 on the simulated 2x2 cluster, where steals hand thieves
  prefixes whose base answer they never computed: the recomputation is
  host work, so every metered counter must equal the sequential
  enumeration's;
* the legacy preset replayed against a recording, so the paper kernel
  cannot drift (``benchmarks/kernel_fingerprint.py``'s legacy rows,
  sequential and simulated 2x2).

``tests/test_list_walk.py`` checks both generated leaves against the
enumeration on random patterns that include cliques and same-back-set
positions; ``tests/test_level_sharing.py`` replays reused levels that
siblings share.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro import ClusterConfig, FractalContext, Pattern
from repro.apps import QUERY_PATTERNS
from repro.apps.queries import query_fractoid
from repro.core import intersect
from repro.core.computation import Computation
from repro.core.enumerator import PatternInducedStrategy
from repro.core.primitives import Expand
from repro.graph import erdos_renyi_graph
from repro.pattern.isomorphism import match_pattern
from repro.pattern.pattern import PatternInterner
from repro.runtime.engine import run_step_sequential
from repro.runtime.metrics import Metrics

ROOT = Path(__file__).resolve().parents[1]
LEGACY_FINGERPRINT = ROOT / "tests" / "data" / "legacy_kernel_fingerprint.json"

GRAPH = erdos_renyi_graph(40, 260, n_labels=1, seed=5)


def _bases(report):
    levels = report.steps[-1].kernel_info["levels"]
    return {pos: level["base"] for pos, level in enumerate(levels) if level["base"] is not None}


# ----------------------------------------------------------------------
# The rule on the Fig 15 queries
# ----------------------------------------------------------------------
EXPECTED_BASES = {
    # query: (counted, listed)
    "q1": ({}, {}),
    "q2": ({}, {}),
    # The two wings of the diamond have different back edges.
    "q3": ({}, {}),
    "q4": ({3: 2}, {3: 2}),
    "q5": ({3: 2, 4: 3}, {3: 2, 4: 3}),
    "q6": ({}, {}),
    # Positions 2..5 share their back edges, but they are the orbit tail.
    "q7": ({}, {}),
    "q8": ({}, {}),
}


@pytest.mark.parametrize("name", sorted(EXPECTED_BASES))
def test_the_rule_on_the_fig15_queries(name):
    fg = FractalContext().from_graph(GRAPH)
    rows = tuple(
        _bases(query_fractoid(fg, QUERY_PATTERNS[name], kernel="indexed").execute(
            collect=collect
        ))
        for collect in ("count", "subgraphs")
    )
    assert rows == EXPECTED_BASES[name]


def test_legacy_levels_have_no_base():
    strategy = PatternInducedStrategy(
        GRAPH, Metrics(), PatternInterner(), QUERY_PATTERNS["q5"], kernel="legacy"
    )
    assert [level["base"] for level in strategy.kernel_info()["levels"]] == [None] * 5


# ----------------------------------------------------------------------
# Negative shapes: one condition broken at a time
# ----------------------------------------------------------------------
# The 4-clique as the indexed plan orders it: v0 < v1 < v2 < v3.
CLIQUE = dict(
    labels=[0, 0, 0, 0],
    back_edges=[[], [(0, 0)], [(0, 0), (1, 0)], [(0, 0), (1, 0), (2, 0)]],
    checks=[(), ((0, True),), ((1, True),), ((2, True),)],
    tail_start=3,
)


def _rule(**changes):
    plan = {**CLIQUE, **changes}
    return intersect.base_positions(
        plan["labels"], plan["back_edges"], plan["checks"], plan["tail_start"]
    )


def test_the_clique_reuses_its_last_interior_position():
    # Position 3 must exceed v2, which the checks prove exceeds v1: the
    # base's lower bound is implied, transitively.
    assert _rule() == [None, None, None, 2]


@pytest.mark.parametrize(
    "changes",
    [
        pytest.param(dict(labels=[0, 0, 0, 1]), id="vertex-label"),
        pytest.param(
            dict(back_edges=[[], [(0, 0)], [(0, 0), (1, 0)], [(0, 0), (1, 1), (2, 0)]]),
            id="edge-label",
        ),
        # Position 3 is not bounded below, position 2 is: its window
        # would lose candidates of position 3.
        pytest.param(dict(checks=[(), ((0, True),), ((1, True),), ()]), id="window"),
        # An upper bound on position 2 that position 3 does not share.
        pytest.param(
            dict(checks=[(), ((0, True),), ((1, True), (1, False)), ((2, True),)]),
            id="upper-window",
        ),
        pytest.param(
            dict(back_edges=[[], [(0, 0)], [(1, 0)], [(1, 0), (2, 0)]]),
            id="one-back-edge",
        ),
        pytest.param(dict(tail_start=2), id="tail"),
    ],
)
def test_a_broken_condition_means_no_base(changes):
    assert _rule(**changes)[3] is None


def test_the_latest_qualifying_position_wins():
    labels = [0] * 5
    backs = [[], [(0, 0)], [(0, 0), (1, 0)], [(0, 0), (1, 0), (2, 0)],
             [(0, 0), (1, 0), (2, 0), (3, 0)]]
    checks = [(), ((0, True),), ((1, True),), ((2, True),), ((3, True),)]
    assert intersect.base_positions(labels, backs, checks, 4) == [None, None, None, 2, 3]


def test_reads_include_the_base_reads():
    # Position 3 reads 0 and 2 itself; its base (2) read 0 and 1.
    backs = [[], [(0, 0)], [(0, 0), (1, 0)], [(0, 0), (1, 0), (2, 0)]]
    checks = [(), (), (), ((2, True),)]
    assert intersect.plan_reads(backs, checks, [None, None, None, 2])[3] == (0, 1, 2)


# ----------------------------------------------------------------------
# Thieves recompute their bases off the clock
# ----------------------------------------------------------------------
ENUMERATION_COUNTERS = (
    "extension_tests",
    "extensions_generated",
    "subgraphs_enumerated",
    "results_emitted",
    "index_slices",
    "intersect_comparisons",
    "gallop_steps",
)


# Dense and small: the 2x2 cluster steals frames below position 1 here,
# so thieves extend prefixes whose base they never matched.
CLUSTER_GRAPH = erdos_renyi_graph(16, 90, n_labels=1, seed=3)


def _strategy(graph, pattern):
    return PatternInducedStrategy(
        graph, Metrics(), PatternInterner(), pattern, kernel="indexed"
    )


def _sequential_enumeration(graph, pattern):
    strategy = _strategy(graph, pattern)
    results = []
    run_step_sequential(
        strategy,
        [Expand() for _ in range(pattern.n_vertices)],
        Computation(graph, strategy.metrics, strategy.interner, {}),
        set(),
        sink=lambda subgraph: results.append(subgraph.freeze()),
    )
    return results, strategy.metrics


def _walked(graph, pattern, leaf):
    strategy = _strategy(graph, pattern)
    before = strategy.metrics.snapshot()
    found = getattr(strategy, leaf)()
    after = strategy.metrics.snapshot()
    return found, {name: after[name] - before[name] for name in ENUMERATION_COUNTERS}


def test_a_reused_level_that_siblings_share():
    # A triangle and a 4-clique sharing the centre, matched centre,
    # triangle, clique: the last position starts from the one before it,
    # neither reads the triangle's positions 1 and 2, so prefixes that
    # differ only there share both; and position 4 still tests its
    # candidates against 1 and 2, so its users read its list from before
    # that filter.
    pattern = Pattern(
        [0] * 6,
        [(0, 1, 0), (0, 5, 0), (1, 2, 0), (1, 3, 0), (1, 4, 0), (1, 5, 0),
         (2, 3, 0), (2, 4, 0), (3, 4, 0)],
    )
    levels = _strategy(CLUSTER_GRAPH, pattern).kernel_info()["levels"]
    assert [(level["base"], level["shared"], level["injective"]) for level in levels[4:]] == [
        (None, True, [1, 2]),
        (4, True, [1, 2]),
    ]
    expected, metrics = _sequential_enumeration(CLUSTER_GRAPH, pattern)
    assert len(expected) == sum(
        1 for _ in match_pattern(pattern, CLUSTER_GRAPH, distinct=True)
    ) > 0
    listed, delta = _walked(CLUSTER_GRAPH, pattern, "list_matches")
    assert [r.vertices for r in listed] == [r.vertices for r in expected]
    assert delta == {name: getattr(metrics, name) for name in ENUMERATION_COUNTERS}
    assert _walked(CLUSTER_GRAPH, pattern, "count_matches")[0] == len(expected)


class _Scratch(Metrics):
    """``Metrics`` that counts the scratch bundles base recomputation makes."""

    __slots__ = ()
    made = 0

    def __init__(self):
        super().__init__()
        type(self).made += 1


@pytest.mark.parametrize("name", ["q4", "q5"])
def test_the_cluster_meters_what_the_sequential_enumeration_meters(monkeypatch, name):
    pattern = QUERY_PATTERNS[name]
    expected, metrics = _sequential_enumeration(CLUSTER_GRAPH, pattern)
    monkeypatch.setattr(intersect, "Metrics", _Scratch)
    _Scratch.made = 0
    # Listed: a count would never reach the cluster engine.
    report = query_fractoid(
        FractalContext().from_graph(CLUSTER_GRAPH), pattern, kernel="indexed"
    ).execute(collect="subgraphs", engine=ClusterConfig(workers=2, cores_per_worker=2))
    assert sorted(r.vertices for r in report.subgraphs) == sorted(
        r.vertices for r in expected
    )
    assert report.metrics.steals_internal + report.metrics.steals_external > 0
    assert _Scratch.made > 0, "no thief had to recompute a base answer"
    for counter in ENUMERATION_COUNTERS:
        assert getattr(report.metrics, counter) == getattr(metrics, counter), counter


# ----------------------------------------------------------------------
# The paper preset cannot drift
# ----------------------------------------------------------------------
def _kernel_fingerprint():
    spec = importlib.util.spec_from_file_location(
        "kernel_fingerprint", ROOT / "benchmarks" / "kernel_fingerprint.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _legacy_rows():
    return _kernel_fingerprint().fingerprint(
        kernels=("legacy",), engines=("sequential", "sim2x2")
    )


def test_legacy_rows_replay_the_recording():
    recorded = json.loads(LEGACY_FINGERPRINT.read_text())
    replayed = _legacy_rows()
    assert sorted(replayed) == sorted(recorded)
    for key, row in replayed.items():
        assert row == recorded[key], key


if __name__ == "__main__":
    # Rewrites the recording: only for an intended change to "legacy".
    LEGACY_FINGERPRINT.write_text(
        json.dumps(_legacy_rows(), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {LEGACY_FINGERPRINT}")
