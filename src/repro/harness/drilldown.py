"""Drill-down harnesses (paper §5.2: Figure 8, Table 2, Figures 16-17, §6).

These reproduce Fractal's systemic analyses: CPU utilization without load
balancing, per-worker memory versus Arabesque, the four work-stealing
configurations, graph-reduction benefits for keyword search, and the §6
overhead accounting.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .. import FractalContext
from ..apps import cliques_fractoid, fsm, keyword_search, motifs_fractoid
from ..baselines import BFSConfig, arabesque_run
from ..graph.graph import Graph
from ..graph.views import reduce_graph
from ..runtime.cluster import ClusterConfig
from ..runtime.memory import DEFAULT_MEMORY_MODEL
from .comparative import scaled_memory_budget
from .configs import single_machine
from .formatting import fmt_seconds, print_table

__all__ = [
    "run_fig8_utilization",
    "run_table2_memory",
    "run_fig16_worksteal",
    "run_fig17_graph_reduction",
    "run_sec6_overheads",
    "run_sec41_memory_example",
]


# ----------------------------------------------------------------------
# Figure 8 — CPU utilization without work balancing
# ----------------------------------------------------------------------
def run_fig8_utilization(
    graph: Graph,
    k: int = 4,
    cores: int = 28,
    bins: int = 10,
    verbose: bool = True,
) -> List[Dict]:
    """Utilization timeline of k-clique listing with no work stealing."""
    config = single_machine(
        cores,
        ws_internal=False,
        ws_external=False,
        record_timeline=True,
        include_setup_overhead=False,
    )
    report = cliques_fractoid(
        FractalContext(engine=config).from_graph(graph), k
    ).execute(collect=None)
    step = report.steps[-1].cluster
    makespan = step.makespan_units or 1.0
    bin_width = makespan / bins
    rows = []
    for b in range(bins):
        lo, hi = b * bin_width, (b + 1) * bin_width
        busy = 0.0
        for core in step.cores:
            for start, end in core.busy_intervals:
                busy += max(0.0, min(end, hi) - max(start, lo))
        rows.append(
            {
                "bin": b,
                "t_start_s": config.cost_model.seconds(lo),
                "utilization": busy / (bin_width * cores),
            }
        )
    if verbose:
        print_table(
            ["time bin", "start", "CPU utilization"],
            [
                (r["bin"], fmt_seconds(r["t_start_s"]), f"{r['utilization']:.0%}")
                for r in rows
            ],
            title=f"Figure 8 — utilization without balancing ({cores} cores)",
        )
    return rows


# ----------------------------------------------------------------------
# Table 2 — Memory per worker
# ----------------------------------------------------------------------
def run_table2_memory(
    cliques_graph: Graph,
    motifs_graph: Graph,
    cliques_k: Sequence[int] = (3, 4, 5),
    motifs_k: Sequence[int] = (3, 4),
    cluster: Optional[ClusterConfig] = None,
    verbose: bool = True,
) -> List[Dict]:
    """Per-worker memory: Arabesque (ODAG level state) vs Fractal."""
    cluster = cluster if cluster is not None else single_machine(8)
    model = DEFAULT_MEMORY_MODEL
    rows = []

    def _one(app: str, graph: Graph, k: int, fractoid_fn) -> Dict:
        fractal_report = fractoid_fn(
            FractalContext().from_graph(graph), k
        ).execute(collect=None, engine=cluster)
        fractal_bytes = model.fractal_worker_bytes(
            graph,
            fractal_report.metrics.peak_enumerator_bytes,
            fractal_report.metrics.peak_aggregation_entries,
            cluster.cores_per_worker,
        )
        arabesque = arabesque_run(
            fractoid_fn(FractalContext().from_graph(graph), k),
            config=BFSConfig(
                workers=cluster.workers,
                cores_per_worker=cluster.cores_per_worker,
                memory_budget_bytes=scaled_memory_budget(graph, 4096.0),
            ),
        )
        arabesque_bytes = model.arabesque_worker_bytes(
            graph, arabesque.peak_memory_bytes
        )
        return {
            "app": app,
            "graph": graph.name,
            "k": k,
            "arabesque_gb": model.to_report_gb(arabesque_bytes),
            "fractal_gb": model.to_report_gb(fractal_bytes),
            "ratio": arabesque_bytes / fractal_bytes,
        }

    for k in cliques_k:
        rows.append(_one("cliques", cliques_graph, k, cliques_fractoid))
    for k in motifs_k:
        rows.append(_one("motifs", motifs_graph, k, motifs_fractoid))
    if verbose:
        print_table(
            ["app", "graph", "k", "Arabesque (GB-eq)", "Fractal (GB-eq)", "ratio"],
            [
                (
                    r["app"],
                    r["graph"],
                    r["k"],
                    f"{r['arabesque_gb']:.2f}",
                    f"{r['fractal_gb']:.2f}",
                    f"{r['ratio']:.1f}x",
                )
                for r in rows
            ],
            title="Table 2 — Memory per worker",
        )
    return rows


def run_sec41_memory_example(
    graph: Graph,
    k_values: Sequence[int] = (3, 4),
    verbose: bool = True,
) -> List[Dict]:
    """§4.1 motivating example: bytes to keep all k-vertex subgraphs."""
    rows = []
    for k in k_values:
        count = (
            FractalContext().from_graph(graph).vfractoid().expand(k).count()
        )
        rows.append(
            {
                "k": k,
                "subgraphs": count,
                "bytes": count * k * 8,
            }
        )
    if verbose:
        from .formatting import fmt_bytes

        print_table(
            ["k", "subgraphs", "bytes (vertices only)"],
            [(r["k"], r["subgraphs"], fmt_bytes(r["bytes"])) for r in rows],
            title=f"§4.1 example — intermediate state on {graph.name}",
        )
    return rows


# ----------------------------------------------------------------------
# Figure 16 — Work-stealing configurations
# ----------------------------------------------------------------------
WS_CONFIG_NAMES = ("1.Disabled", "2.Internal", "3.External", "4.Internal+External")


def run_fig16_worksteal(
    graph: Graph,
    min_support: int,
    max_edges: int = 3,
    workers: int = 2,
    cores_per_worker: int = 8,
    steal_policies: Sequence[str] = ("one",),
    fault_plan=None,
    verbose: bool = True,
) -> List[Dict]:
    """FSM per-step task times under the four work-stealing configurations.

    ``steal_policies`` adds a chunking dimension to the sweep: each of
    the four Figure-16 configurations runs once per policy (``"one"``
    reproduces the paper's single-extension protocol; ``"adaptive"``
    shows how controller-sized chunks trade steal round-trips for
    shipped extensions).  Results are identical across policies; only
    clocks, steal counts and message traffic move.

    ``fault_plan`` optionally injects a straggler shape (e.g. one of the
    DLB scenario plans from ``benchmarks/dlb_scenarios.py``) so the
    figure can be reproduced under skew, not just uniform load.
    """
    flags = [(False, False), (True, False), (False, True), (True, True)]
    rows = []
    for policy in steal_policies:
        for name, (ws_int, ws_ext) in zip(WS_CONFIG_NAMES, flags):
            config = ClusterConfig(
                workers=workers,
                cores_per_worker=cores_per_worker,
                ws_internal=ws_int,
                ws_external=ws_ext,
                include_setup_overhead=False,
                steal_policy=policy,
                fault_plan=fault_plan,
            )
            result = fsm(
                FractalContext(engine=config).from_graph(graph),
                min_support=min_support,
                max_edges=max_edges,
            )
            for round_index, report in enumerate(result.reports):
                for step in report.steps:
                    if step.cluster is None:
                        continue
                    finishes = [c.finish_units for c in step.cluster.cores]
                    mean_finish = sum(finishes) / len(finishes)
                    rows.append(
                        {
                            "config": name,
                            "policy": policy,
                            "round": round_index,
                            "step": step.index,
                            "makespan_s": step.simulated_seconds,
                            "min_task_s": config.cost_model.seconds(min(finishes)),
                            "max_task_s": config.cost_model.seconds(max(finishes)),
                            "imbalance": max(finishes) / mean_finish
                            if mean_finish
                            else 1.0,
                            "steals_internal": step.metrics.steals_internal,
                            "steals_external": step.metrics.steals_external,
                            "steal_messages": step.cluster.steal_messages,
                            "steal_chunk_extensions": (
                                step.metrics.steal_chunk_extensions
                            ),
                        }
                    )
    if verbose:
        multi_policy = len(list(steal_policies)) > 1
        print_table(
            ["config", "policy", "round", "makespan", "min task", "max task",
             "imbalance", "WSint", "WSext"]
            if multi_policy
            else ["config", "round", "makespan", "min task", "max task",
                  "imbalance", "WSint", "WSext"],
            [
                (
                    (r["config"], r["policy"]) if multi_policy else (r["config"],)
                )
                + (
                    r["round"],
                    fmt_seconds(r["makespan_s"]),
                    fmt_seconds(r["min_task_s"]),
                    fmt_seconds(r["max_task_s"]),
                    f"{r['imbalance']:.2f}",
                    r["steals_internal"],
                    r["steals_external"],
                )
                for r in rows
            ],
            title="Figure 16 — Work stealing drilldown (FSM)",
        )
    return rows


# ----------------------------------------------------------------------
# Figure 17 — Graph reduction for keyword search
# ----------------------------------------------------------------------
KEYWORD_QUERIES = {
    "Q1": ["woody", "allen", "romance"],
    "Q2": ["mel", "gibson", "director"],
    "Q3": ["classic", "fantasy", "funny", "author"],
    "Q4": ["author", "classic", "award"],
}


def run_fig17_graph_reduction(
    graph: Graph,
    queries: Optional[Dict[str, List[str]]] = None,
    core_counts: Sequence[int] = (1, 2, 4, 8),
    heavy_queries: Sequence[str] = ("Q3", "Q4"),
    verbose: bool = True,
) -> List[Dict]:
    """Keyword search runtime with/without reduction, over a core sweep."""
    queries = queries if queries is not None else KEYWORD_QUERIES
    rows = []
    for name in sorted(queries):
        words = queries[name]
        for cores in core_counts:
            config = single_machine(cores, include_setup_overhead=False)
            reduced = keyword_search(
                FractalContext().from_graph(graph),
                words,
                use_graph_reduction=True,
                engine=config,
            )
            row = {
                "query": name,
                "cores": cores,
                "reduced_s": reduced.report.simulated_seconds,
                "reduced_ec": reduced.extension_cost,
                "results": len(reduced.subgraphs),
                "full_s": None,
                "full_ec": None,
            }
            # The paper omits no-reduction runs for the heavy queries
            # (they timed out); mirror that to keep benches fast.
            if name not in heavy_queries:
                full = keyword_search(
                    FractalContext().from_graph(graph),
                    words,
                    use_graph_reduction=False,
                    engine=config,
                )
                row["full_s"] = full.report.simulated_seconds
                row["full_ec"] = full.extension_cost
            rows.append(row)
    if verbose:
        print_table(
            ["query", "cores", "G (full)", "G0 (reduced)", "EC full",
             "EC reduced", "results"],
            [
                (
                    r["query"],
                    r["cores"],
                    fmt_seconds(r["full_s"]) if r["full_s"] is not None else "-",
                    fmt_seconds(r["reduced_s"]),
                    r["full_ec"] if r["full_ec"] is not None else "-",
                    r["reduced_ec"],
                    r["results"],
                )
                for r in rows
            ],
            title="Figure 17 — Graph reduction for keyword search",
        )
    return rows


# ----------------------------------------------------------------------
# §6 — Overheads and limitations
# ----------------------------------------------------------------------
def run_sec6_overheads(
    graph: Graph,
    clique_k: int = 4,
    cores: int = 8,
    verbose: bool = True,
) -> Dict:
    """§6 accounting: steal overhead and graph reduction on cliques.

    Reduction on cliques shrinks the *graph* but not the extension cost —
    every test the enumeration performs still happens, so the net runtime
    gain is negligible, unlike keyword search.
    """
    config = single_machine(cores, include_setup_overhead=False)
    full_report = cliques_fractoid(
        FractalContext(engine=config).from_graph(graph), clique_k
    ).execute(collect=None)

    # Reduce to vertices participating in at least one k-clique.
    members = set()
    for result in cliques_fractoid(
        FractalContext().from_graph(graph), clique_k
    ).subgraphs():
        members.update(result.vertices)
    reduced = reduce_graph(graph, vfilter=lambda v, g: v in members)
    reduced_report = cliques_fractoid(
        FractalContext(engine=config).from_graph(reduced.graph), clique_k
    ).execute(collect=None)

    total_busy = sum(
        c.busy_units
        for step in full_report.steps
        if step.cluster is not None
        for c in step.cluster.cores
    )
    steal_units = full_report.metrics.steal_work_units

    # Aggregation-shuffle overhead needs an aggregating workload (cliques
    # ship nothing): meter a motifs census on the same graph and cluster.
    agg_report = motifs_fractoid(
        FractalContext(engine=config).from_graph(graph), 3
    ).execute(collect=None)
    agg_busy = sum(
        c.busy_units
        for step in agg_report.steps
        if step.cluster is not None
        for c in step.cluster.cores
    )
    agg_units = (
        agg_report.metrics.agg_ship_units + agg_report.metrics.agg_combine_units
    )
    summary = {
        "vertex_reduction": reduced.vertex_reduction(),
        "edge_reduction": reduced.edge_reduction(),
        "ec_full": full_report.metrics.extension_tests,
        "ec_reduced": reduced_report.metrics.extension_tests,
        "runtime_full_s": full_report.simulated_seconds,
        "runtime_reduced_s": reduced_report.simulated_seconds,
        "steal_overhead_fraction": steal_units / total_busy if total_busy else 0.0,
        "agg_ship_units": agg_report.metrics.agg_ship_units,
        "agg_entries_shipped": agg_report.metrics.agg_entries_shipped,
        "agg_overhead_fraction": agg_units / agg_busy if agg_busy else 0.0,
    }
    if verbose:
        print_table(
            ["metric", "value"],
            [
                ("vertices removed", f"{summary['vertex_reduction']:.1%}"),
                ("edges removed", f"{summary['edge_reduction']:.1%}"),
                ("EC full graph", summary["ec_full"]),
                ("EC reduced graph", summary["ec_reduced"]),
                ("runtime full", fmt_seconds(summary["runtime_full_s"])),
                ("runtime reduced", fmt_seconds(summary["runtime_reduced_s"])),
                (
                    "steal overhead",
                    f"{summary['steal_overhead_fraction']:.2%}",
                ),
                (
                    "agg entries shipped (motifs k=3)",
                    f"{summary['agg_entries_shipped']:.0f}",
                ),
                (
                    "agg shuffle overhead (motifs k=3)",
                    f"{summary['agg_overhead_fraction']:.2%}",
                ),
            ],
            title="§6 — Overheads: cliques graph reduction + steal/agg cost",
        )
    return summary
