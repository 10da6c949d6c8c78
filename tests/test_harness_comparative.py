"""Tiny-scale integration tests for the comparative harness runners."""

from repro.apps import QUERY_PATTERNS
from repro.graph import erdos_renyi_graph, mico_like, powerlaw_graph
from repro.harness import (
    run_fig11_motifs,
    run_fig12_cliques,
    run_fig13_fsm,
    run_fig15_queries,
    run_fig16_worksteal,
    run_fig20a_triangles,
    run_sec6_overheads,
    run_table2_memory,
    single_machine,
)
from repro.runtime.cluster import ClusterConfig

TINY_CLUSTER = ClusterConfig(workers=2, cores_per_worker=2)


def test_fig11_runner_rows():
    graph = mico_like(scale=0.25)
    rows = run_fig11_motifs([graph], (3,), TINY_CLUSTER, verbose=False)
    assert len(rows) == 1
    row = rows[0]
    assert row["fractal_s"] > 0
    assert row["arabesque_s"] > 0
    assert row["speedup_vs_arabesque"] > 0


def test_fig12_runner_rows():
    graph = mico_like(scale=0.3)
    rows = run_fig12_cliques([graph], (3, 4), TINY_CLUSTER, verbose=False)
    assert [r["k"] for r in rows] == [3, 4]
    for row in rows:
        assert row["qkcount_s"] > 0


def test_fig13_runner_rows():
    graph = powerlaw_graph(60, attach=3, n_labels=3, seed=41)
    rows = run_fig13_fsm([graph], (4, 8), 2, TINY_CLUSTER, verbose=False)
    assert len(rows) == 2
    assert rows[0]["n_frequent"] >= rows[1]["n_frequent"]


def test_fig15_runner_rows():
    graph = erdos_renyi_graph(30, 90, seed=44)
    queries = {"q1": QUERY_PATTERNS["q1"], "q3": QUERY_PATTERNS["q3"]}
    rows = run_fig15_queries(graph, queries, TINY_CLUSTER, verbose=False)
    by_query = {r["query"]: r for r in rows}
    assert set(by_query) == {"q1", "q3"}
    # SEED and Fractal agree on match counts when both complete.
    for row in rows:
        assert row["matches"] >= 0
    # The figure runs the paper preset whatever the default kernel is:
    # matches, simulated seconds and candidate units as recorded before
    # the default moved off "legacy".
    assert {
        q: (r["pattern_kernel"], r["matches"], r["fractal_s"], r["candidate_units"])
        for q, r in by_query.items()
    } == {
        "q1": ("legacy", 38, 1.50616, 1400.0),
        "q3": ("legacy", 56, 1.52158, 2882.0),
    }


def test_fig16_runner_rows():
    graph = powerlaw_graph(70, attach=3, n_labels=3, seed=43)
    rows = run_fig16_worksteal(
        graph, min_support=6, max_edges=2, workers=2, cores_per_worker=2,
        verbose=False,
    )
    configs = {r["config"] for r in rows}
    assert len(configs) == 4
    assert all(r["makespan_s"] > 0 for r in rows)


def test_fig20a_runner_rows():
    graph = erdos_renyi_graph(40, 160, seed=45)
    rows = run_fig20a_triangles([graph], TINY_CLUSTER, verbose=False)
    assert len(rows) == 1
    assert rows[0]["graphx_s"] > 0


def test_table2_runner_rows():
    cliques_graph = erdos_renyi_graph(30, 140, n_labels=4, seed=46)
    motifs_graph = erdos_renyi_graph(25, 60, n_labels=4, seed=47)
    rows = run_table2_memory(
        cliques_graph,
        motifs_graph,
        cliques_k=(3,),
        motifs_k=(3,),
        cluster=single_machine(2),
        verbose=False,
    )
    assert len(rows) == 2
    for row in rows:
        assert row["arabesque_gb"] > 0
        assert row["fractal_gb"] > 0
        assert row["ratio"] > 0


def test_sec6_runner_summary():
    graph = mico_like(scale=0.4)
    summary = run_sec6_overheads(graph, clique_k=3, cores=4, verbose=False)
    assert 0 <= summary["steal_overhead_fraction"] < 1
    assert summary["ec_full"] > 0
    assert summary["ec_reduced"] > 0
