"""Comparative-performance harnesses (paper §5.1: Figures 11, 12, 13, 15, 20a).

Each ``run_*`` function executes Fractal (on the simulated cluster) and the
figure's baselines over the stand-in datasets and returns one row dict per
configuration, mirroring the paper's chart series.  Rows carry simulated
runtimes; ``OOM`` outcomes surface as infinite runtimes with ``oom=True``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .. import FractalContext
from ..apps import cliques_fractoid, fsm, motifs_fractoid, query_fractoid
from ..apps.fsm import _support_aggregate
from ..baselines import (
    BFSConfig,
    DistributedConfig,
    GraphFramesConfig,
    MRSubConfig,
    ScaleMineConfig,
    arabesque_run,
    graphframes_cliques,
    graphframes_triangles,
    graphx_triangles,
    mrsub_motifs,
    qkcount_cliques,
    scalemine_fsm,
    seed_query,
    SeedConfig,
)
from ..core.fractoid import Fractoid
from ..graph.graph import Graph
from ..pattern.pattern import Pattern
from ..runtime.cluster import ClusterConfig
from ..runtime.memory import DEFAULT_MEMORY_MODEL
from .configs import PAPER_KERNEL, paper_cluster
from .formatting import fmt_seconds, print_table

__all__ = [
    "run_fig11_motifs",
    "run_fig12_cliques",
    "run_fig13_fsm",
    "run_fig15_queries",
    "run_fig20a_triangles",
    "arabesque_query_fractoid",
    "scaled_memory_budget",
]


def scaled_memory_budget(graph: Graph, factor: float = 64.0) -> int:
    """Memory budget proportional to the input size.

    The paper's machines had 500 GB against multi-GB datasets; baselines
    OOM when materialized state reaches a large multiple of the input.
    Budgets here scale the same way so OOM appears at comparable relative
    state sizes (see EXPERIMENTS.md calibration notes).
    """
    return int(DEFAULT_MEMORY_MODEL.graph_bytes(graph) * factor)


def _fractal_seconds(fractoid: Fractoid, cluster: ClusterConfig) -> float:
    report = fractoid.execute(collect=None, engine=cluster)
    return report.total_seconds


# ----------------------------------------------------------------------
# Figure 11 — Motifs
# ----------------------------------------------------------------------
def run_fig11_motifs(
    datasets: Sequence[Graph],
    k_values: Sequence[int] = (3, 4),
    cluster: Optional[ClusterConfig] = None,
    verbose: bool = True,
) -> List[Dict]:
    """Fractal vs Arabesque vs MRSUB on the motifs kernel."""
    cluster = cluster if cluster is not None else paper_cluster()
    rows = []
    for graph in datasets:
        budget = scaled_memory_budget(graph)
        bfs_config = BFSConfig(
            workers=cluster.workers,
            cores_per_worker=cluster.cores_per_worker,
            memory_budget_bytes=budget,
        )
        mrsub_config = MRSubConfig(
            workers=cluster.workers,
            cores_per_worker=cluster.cores_per_worker,
            memory_budget_bytes=budget,
        )
        for k in k_values:
            fractal_s = _fractal_seconds(
                motifs_fractoid(FractalContext().from_graph(graph), k), cluster
            )
            arabesque = arabesque_run(
                motifs_fractoid(FractalContext().from_graph(graph), k),
                config=bfs_config,
            )
            mrsub = mrsub_motifs(graph, k, mrsub_config)
            rows.append(
                {
                    "graph": graph.name,
                    "k": k,
                    "fractal_s": fractal_s,
                    "arabesque_s": arabesque.runtime_seconds,
                    "mrsub_s": mrsub.runtime_seconds,
                    "mrsub_oom": mrsub.oom,
                    "speedup_vs_arabesque": arabesque.runtime_seconds / fractal_s,
                }
            )
    if verbose:
        print_table(
            ["graph", "k", "Fractal", "Arabesque", "MRSUB", "Frac/Arab"],
            [
                (
                    r["graph"],
                    r["k"],
                    fmt_seconds(r["fractal_s"]),
                    fmt_seconds(r["arabesque_s"]),
                    fmt_seconds(r["mrsub_s"]),
                    f"{r['speedup_vs_arabesque']:.2f}x",
                )
                for r in rows
            ],
            title="Figure 11 — Motifs runtime",
        )
    return rows


# ----------------------------------------------------------------------
# Figure 12 — Cliques
# ----------------------------------------------------------------------
def run_fig12_cliques(
    datasets: Sequence[Graph],
    k_values: Sequence[int] = (4, 5, 6),
    cluster: Optional[ClusterConfig] = None,
    verbose: bool = True,
) -> List[Dict]:
    """Fractal vs Arabesque vs GraphFrames vs QKCount on k-cliques."""
    cluster = cluster if cluster is not None else paper_cluster()
    rows = []
    for graph in datasets:
        budget = scaled_memory_budget(graph)
        bfs_config = BFSConfig(
            workers=cluster.workers,
            cores_per_worker=cluster.cores_per_worker,
            memory_budget_bytes=budget,
        )
        gf_config = GraphFramesConfig(
            workers=cluster.workers,
            cores_per_worker=cluster.cores_per_worker,
            memory_budget_bytes=budget // 16,  # relational rows are fat
        )
        qk_config = DistributedConfig(
            workers=cluster.workers,
            cores_per_worker=cluster.cores_per_worker,
            io_factor=4.0,  # Hadoop-based
            round_overhead_s=1.2,
        )
        for k in k_values:
            fractal_s = _fractal_seconds(
                cliques_fractoid(FractalContext().from_graph(graph), k), cluster
            )
            arabesque = arabesque_run(
                cliques_fractoid(FractalContext().from_graph(graph), k),
                config=bfs_config,
            )
            graphframes = graphframes_cliques(graph, k, gf_config)
            qkcount = qkcount_cliques(graph, k, qk_config)
            rows.append(
                {
                    "graph": graph.name,
                    "k": k,
                    "fractal_s": fractal_s,
                    "arabesque_s": arabesque.runtime_seconds,
                    "arabesque_oom": arabesque.oom,
                    "graphframes_s": graphframes.runtime_seconds,
                    "graphframes_oom": graphframes.oom,
                    "qkcount_s": qkcount.runtime_seconds,
                    "speedup_vs_arabesque": arabesque.runtime_seconds / fractal_s,
                }
            )
    if verbose:
        print_table(
            ["graph", "k", "Fractal", "Arabesque", "GraphFrames", "QKCount"],
            [
                (
                    r["graph"],
                    r["k"],
                    fmt_seconds(r["fractal_s"]),
                    fmt_seconds(r["arabesque_s"]),
                    fmt_seconds(r["graphframes_s"]),
                    fmt_seconds(r["qkcount_s"]),
                )
                for r in rows
            ],
            title="Figure 12 — Cliques runtime",
        )
    return rows


# ----------------------------------------------------------------------
# Figure 13 — FSM
# ----------------------------------------------------------------------
def run_fig13_fsm(
    datasets: Sequence[Graph],
    supports: Sequence[int],
    max_edges: int = 3,
    cluster: Optional[ClusterConfig] = None,
    verbose: bool = True,
) -> List[Dict]:
    """Fractal vs Arabesque vs ScaleMine over a support sweep."""
    cluster = cluster if cluster is not None else paper_cluster()
    rows = []
    for graph in datasets:
        budget = scaled_memory_budget(graph)
        bfs_config = BFSConfig(
            workers=cluster.workers,
            cores_per_worker=cluster.cores_per_worker,
            memory_budget_bytes=budget,
        )
        sm_config = ScaleMineConfig(
            workers=cluster.workers, cores_per_worker=cluster.cores_per_worker
        )
        for support in supports:
            result = fsm(
                FractalContext().from_graph(graph),
                min_support=support,
                max_edges=max_edges,
                engine=cluster,
            )
            fractal_s = (
                sum(r.simulated_seconds for r in result.reports)
                + cluster.cost_model.setup_overhead_s
            )
            arabesque = arabesque_run(
                _arabesque_fsm_fractoid(graph, support, max_edges),
                config=bfs_config,
            )
            scalemine = scalemine_fsm(graph, support, max_edges, sm_config)
            rows.append(
                {
                    "graph": graph.name,
                    "support": support,
                    "n_frequent": len(result.frequent),
                    "fractal_s": fractal_s,
                    "arabesque_s": arabesque.runtime_seconds,
                    "arabesque_oom": arabesque.oom,
                    "scalemine_s": scalemine.runtime_seconds,
                }
            )
    if verbose:
        print_table(
            ["graph", "support", "#freq", "Fractal", "Arabesque", "ScaleMine"],
            [
                (
                    r["graph"],
                    r["support"],
                    r["n_frequent"],
                    fmt_seconds(r["fractal_s"]),
                    fmt_seconds(r["arabesque_s"]),
                    fmt_seconds(r["scalemine_s"]),
                )
                for r in rows
            ],
            title="Figure 13 — FSM runtime vs support",
        )
    return rows


def _arabesque_fsm_fractoid(graph: Graph, support: int, max_edges: int) -> Fractoid:
    """The FSM workflow as one BFS pass (Arabesque keeps its frontier)."""
    context = FractalContext()
    fractoid = _support_aggregate(
        context.from_graph(graph).efractoid().expand(1), support, True
    )
    for _ in range(max_edges - 1):
        fractoid = _support_aggregate(
            fractoid.filter_agg(
                "support", lambda s, agg: s.pattern() in agg
            ).expand(1),
            support,
            True,
        )
    return fractoid


# ----------------------------------------------------------------------
# Figure 15 — Subgraph querying
# ----------------------------------------------------------------------
def arabesque_query_fractoid(
    fractal_graph, pattern: Pattern
) -> Fractoid:
    """Arabesque-style query: edge-induced growth + per-level pruning.

    Arabesque implements querying by expanding edge-by-edge and pruning
    embeddings whose pattern is not a sub-pattern of the query; the full
    pattern is checked at the final depth.  Level state is the whole
    frontier — which is why larger queries OOM in Figure 15.
    """
    allowed = _connected_subpattern_codes(pattern)
    target_code = pattern.canonical_code()
    m = pattern.n_edges

    def prune(subgraph, computation) -> bool:
        return subgraph.pattern().canonical_code() in allowed[subgraph.n_edges]

    fractoid = fractal_graph.efractoid().expand(1).filter(prune).explore(m)
    return fractoid.filter(
        lambda s, c: s.pattern().canonical_code() == target_code
    )


def _connected_subpattern_codes(pattern: Pattern) -> Dict[int, set]:
    """Canonical codes of every connected edge-subset of a pattern, by size."""
    edges = list(pattern.edges)
    m = len(edges)
    allowed: Dict[int, set] = {size: set() for size in range(1, m + 1)}
    for mask in range(1, 1 << m):
        chosen = [edges[i] for i in range(m) if mask >> i & 1]
        touched = sorted({v for a, b, _ in chosen for v in (a, b)})
        remap = {v: i for i, v in enumerate(touched)}
        sub = Pattern(
            [pattern.vertex_labels[v] for v in touched],
            [(remap[a], remap[b], l) for a, b, l in chosen],
        )
        if sub.is_connected():
            allowed[len(chosen)].add(sub.canonical_code())
    return allowed


def run_fig15_queries(
    graph: Graph,
    queries: Dict[str, Pattern],
    cluster: Optional[ClusterConfig] = None,
    budget_factor: float = 40.0,
    verbose: bool = True,
    kernel: str = PAPER_KERNEL,
) -> List[Dict]:
    """Fractal vs SEED vs Arabesque on the q1-q8 query set.

    ``budget_factor`` scales the baselines' memory budget relative to the
    input size; querying uses a tighter default than the other figures
    because edge-induced frontiers blow up fastest here (it also bounds
    the wall-clock a doomed Arabesque run burns before its OOM).
    ``kernel`` is the query fractoids' candidate kernel (the paper
    preset unless a caller compares another on the same workload); each
    row records the kernel and its candidate cost.
    """
    cluster = cluster if cluster is not None else paper_cluster()
    budget = scaled_memory_budget(graph, budget_factor)
    bfs_config = BFSConfig(
        workers=cluster.workers,
        cores_per_worker=cluster.cores_per_worker,
        memory_budget_bytes=budget,
    )
    seed_config = SeedConfig(
        workers=cluster.workers, cores_per_worker=cluster.cores_per_worker
    )
    rows = []
    for name in sorted(queries):
        pattern = queries[name]
        context = FractalContext()
        fractoid = query_fractoid(context.from_graph(graph), pattern, kernel)
        report = fractoid.execute(collect="count", engine=cluster)
        seed = seed_query(graph, pattern, seed_config)
        arabesque = arabesque_run(
            arabesque_query_fractoid(
                FractalContext().from_graph(graph), pattern
            ),
            config=bfs_config,
        )
        kernel_summary = report.pattern_kernel_summary()
        rows.append(
            {
                "query": name,
                "matches": report.result_count,
                "fractal_s": report.total_seconds,
                "seed_s": seed.runtime_seconds,
                "seed_plan": seed.details.get("plan"),
                "arabesque_s": arabesque.runtime_seconds,
                "arabesque_oom": arabesque.oom,
                "pattern_kernel": kernel_summary["kernel"],
                "candidate_units": kernel_summary["candidate_units"],
            }
        )
    if verbose:
        print_table(
            ["query", "matches", "Fractal", "SEED", "plan", "Arabesque"],
            [
                (
                    r["query"],
                    r["matches"],
                    fmt_seconds(r["fractal_s"]),
                    fmt_seconds(r["seed_s"]),
                    r["seed_plan"],
                    fmt_seconds(r["arabesque_s"]),
                )
                for r in rows
            ],
            title=f"Figure 15 — Subgraph querying on {graph.name}",
        )
    return rows


# ----------------------------------------------------------------------
# Figure 20a — Triangles (Appendix C)
# ----------------------------------------------------------------------
def run_fig20a_triangles(
    datasets: Sequence[Graph],
    cluster: Optional[ClusterConfig] = None,
    verbose: bool = True,
) -> List[Dict]:
    """Fractal vs Arabesque vs GraphFrames vs GraphX on triangles."""
    cluster = cluster if cluster is not None else paper_cluster()
    rows = []
    for graph in datasets:
        budget = scaled_memory_budget(graph)
        fractal_s = _fractal_seconds(
            cliques_fractoid(FractalContext().from_graph(graph), 3), cluster
        )
        arabesque = arabesque_run(
            cliques_fractoid(FractalContext().from_graph(graph), 3),
            config=BFSConfig(
                workers=cluster.workers,
                cores_per_worker=cluster.cores_per_worker,
                memory_budget_bytes=budget,
            ),
        )
        gf = graphframes_triangles(
            graph,
            GraphFramesConfig(
                workers=cluster.workers,
                cores_per_worker=cluster.cores_per_worker,
                memory_budget_bytes=budget // 16,
            ),
        )
        gx = graphx_triangles(
            graph,
            DistributedConfig(
                workers=cluster.workers, cores_per_worker=cluster.cores_per_worker
            ),
        )
        rows.append(
            {
                "graph": graph.name,
                "fractal_s": fractal_s,
                "arabesque_s": arabesque.runtime_seconds,
                "graphframes_s": gf.runtime_seconds,
                "graphx_s": gx.runtime_seconds,
            }
        )
    if verbose:
        print_table(
            ["graph", "Fractal", "Arabesque", "GraphFrames", "GraphX"],
            [
                (
                    r["graph"],
                    fmt_seconds(r["fractal_s"]),
                    fmt_seconds(r["arabesque_s"]),
                    fmt_seconds(r["graphframes_s"]),
                    fmt_seconds(r["graphx_s"]),
                )
                for r in rows
            ],
            title="Figure 20a — Triangle counting",
        )
    return rows
