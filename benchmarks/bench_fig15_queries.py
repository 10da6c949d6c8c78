"""Figure 15 — Subgraph querying: Fractal vs SEED vs Arabesque.

Paper shape: SEED wins when its join plan shares heavy sub-structures
(q7 = q3 x q3; cliques on the big graph); Fractal wins or stays
competitive elsewhere; Arabesque finishes only the queries that are easy
to enumerate or have few edges and OOMs on the rest.
"""

from repro.apps import QUERY_PATTERNS
from repro.harness import bench_patents, paper_cluster, run_fig15_queries
from repro.harness.configs import PAPER_KERNEL

from conftest import record, run_once

CLUSTER = paper_cluster(workers=4, cores_per_worker=7)


def _both_kernels(graph, queries, cluster):
    """Fig 15 rows under the paper preset, plus indexed-kernel rows."""
    legacy = run_fig15_queries(graph, queries, cluster, kernel=PAPER_KERNEL)
    indexed = run_fig15_queries(
        graph, queries, cluster, kernel="indexed", verbose=False
    )
    return legacy, indexed


def test_fig15_queries_patents(benchmark):
    legacy_rows, indexed_rows = run_once(
        benchmark,
        _both_kernels,
        bench_patents(labeled=False),
        QUERY_PATTERNS,
        CLUSTER,
    )
    rows = legacy_rows
    by_query = {r["query"]: r for r in rows}

    # Arabesque survives the small/easy queries only and OOMs on the
    # larger ones.
    assert not by_query["q1"]["arabesque_oom"]
    assert any(r["arabesque_oom"] for r in rows)
    # Where Arabesque survives, Fractal's pattern-induced enumeration
    # still wins.
    for row in rows:
        if not row["arabesque_oom"]:
            assert row["fractal_s"] <= row["arabesque_s"]
    # SEED's join plan pays off for q7 (built by joining q3 matches).
    assert by_query["q7"]["seed_plan"] == "join"
    # Fractal wins the sparse asymmetric queries (q2, q6, q8).
    for name in ("q2", "q6", "q8"):
        assert by_query[name]["fractal_s"] < by_query[name]["seed_s"]
    # The indexed candidate kernel finds the same matches on every query
    # and does it with less candidate-generation work.
    by_query_indexed = {r["query"]: r for r in indexed_rows}
    for name, row in by_query.items():
        indexed = by_query_indexed[name]
        assert indexed["matches"] == row["matches"]
        assert indexed["candidate_units"] < row["candidate_units"]
    # All systems that complete agree they found the same matches
    # (cross-checked in tests/); counts are recorded for the report.
    record(benchmark, "fig15", rows)
    record(benchmark, "fig15_indexed_kernel", indexed_rows)
