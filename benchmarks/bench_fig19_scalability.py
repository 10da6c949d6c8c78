"""Figure 19 — Strong scalability of four time-consuming kernels.

Paper shape: with sufficient work, parallel efficiency is high —
~85% for motifs, ~90% for cliques (enumeration-dominated), ~75% for FSM
(aggregations move data), query-dependent for subgraph querying — and
degrades when the work runs out.
"""

from repro import FractalContext
from repro.apps import (
    QUERY_PATTERNS,
    cliques_fractoid,
    fsm,
    motifs_fractoid,
    query_fractoid,
)
from repro.harness import bench_mico, bench_patents, run_fig19_scalability
from repro.harness.configs import PAPER_KERNEL, bench_fsm_patents

from conftest import record, run_once


def _motifs_runner(config):
    return motifs_fractoid(
        FractalContext().from_graph(bench_mico()), 4
    ).execute(collect=None, engine=config).simulated_seconds


def _cliques_runner(config):
    from repro.harness import bench_orkut

    return cliques_fractoid(
        FractalContext().from_graph(bench_orkut()), 4
    ).execute(collect=None, engine=config).simulated_seconds


def _fsm_runner(config):
    result = fsm(
        FractalContext().from_graph(bench_fsm_patents()),
        min_support=10,
        max_edges=3,
        engine=config,
    )
    return sum(r.simulated_seconds for r in result.reports)


def _query_runner(config):
    return query_fractoid(
        FractalContext().from_graph(bench_patents(labeled=False)),
        QUERY_PATTERNS["q6"],
        kernel=PAPER_KERNEL,
    ).execute(collect=None, engine=config).simulated_seconds


KERNELS = {
    "motifs(mico,k=4)": _motifs_runner,
    "cliques(orkut,k=4)": _cliques_runner,
    "fsm(patents)": _fsm_runner,
    "query q6(patents)": _query_runner,
}


def test_fig19_scalability(benchmark):
    rows = run_once(
        benchmark,
        run_fig19_scalability,
        KERNELS,
        (1, 2, 4, 8),  # workers
        14,  # cores per worker
    )
    by_kernel = {}
    for row in rows:
        by_kernel.setdefault(row["kernel"], []).append(row)

    for kernel, series in by_kernel.items():
        series.sort(key=lambda r: r["workers"])
        # Runtime decreases monotonically with more workers.
        times = [r["seconds"] for r in series]
        assert all(b < a for a, b in zip(times, times[1:])), kernel
        # With sufficient work the efficiency stays high at 2x cores...
        two_x = next(r for r in series if r["workers"] == 2)
        assert two_x["efficiency"] > 0.5, (kernel, two_x["efficiency"])
        # ...and degrades (but keeps scaling) as work per core thins out —
        # the paper's "insufficient work" regime arrives earlier at
        # stand-in scale because fine-grained steals amortize over far
        # less work (EXPERIMENTS.md).
        four_x = next(r for r in series if r["workers"] == 4)
        assert four_x["efficiency"] > 0.3, (kernel, four_x["efficiency"])
    record(benchmark, "fig19", rows)
