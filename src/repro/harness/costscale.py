"""COST analysis and strong scalability (paper §5.2.4: Figures 18-20b).

The COST metric [McSherry et al. 2015] is the number of execution threads
a distributed system needs to outperform an efficient single-thread
implementation.  Fractal's work is metered at the framework rate; the
specialized baselines run at the specialized rate
(:meth:`~repro.runtime.costmodel.CostModel.specialized_seconds`), so the
COST value emerges from the same overhead asymmetry as in the paper.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from .. import FractalContext
from ..apps import (
    QUERY_PATTERNS,
    cliques_fractoid,
    cliques_optimized_fractoid,
    fsm,
    motifs_fractoid,
    query_fractoid,
    triangles_optimized_fractoid,
)
from ..baselines import (
    grami_fsm,
    gtries_cliques,
    gtries_motifs,
    kclist_cliques,
    neo4j_triangles,
    singlethread_query,
)
from ..core.fractoid import Fractoid
from ..graph.graph import Graph
from ..runtime.cluster import ClusterConfig
from .configs import PAPER_KERNEL, single_machine
from .formatting import fmt_seconds, print_table

__all__ = ["cost_of", "run_fig18_cost", "run_fig20b_cost", "run_fig19_scalability"]


def _fractal_time_with_threads(
    make_fractoid: Callable[[], Fractoid], threads: int
) -> float:
    config = single_machine(threads)
    report = make_fractoid().execute(collect=None, engine=config)
    return report.total_seconds


def cost_of(
    make_fractoid: Callable[[], Fractoid],
    baseline_seconds: float,
    max_threads: int = 32,
) -> Dict:
    """Minimum thread count at which Fractal beats the baseline."""
    times = {}
    for threads in range(1, max_threads + 1):
        t = _fractal_time_with_threads(make_fractoid, threads)
        times[threads] = t
        if t < baseline_seconds:
            return {
                "cost": threads,
                "fractal_s": t,
                "baseline_s": baseline_seconds,
                "times": times,
            }
    return {
        "cost": None,
        "fractal_s": times[max_threads],
        "baseline_s": baseline_seconds,
        "times": times,
    }


def run_fig18_cost(
    motifs_graph: Graph,
    cliques_graph: Graph,
    fsm_graph: Graph,
    queries_graph: Graph,
    motifs_k: int = 4,
    cliques_k: int = 4,
    fsm_support: int = 5,
    fsm_max_edges: int = 3,
    query_names: Sequence[str] = ("q2", "q3"),
    use_optimized_cliques: bool = True,
    verbose: bool = True,
) -> List[Dict]:
    """COST of motifs, cliques, FSM and two queries (Figure 18).

    The clique row uses the KClist-enumerator implementation by default:
    against a DAG-based single-thread baseline, the generic Listing 2
    program performs an order of magnitude more candidate tests at
    stand-in densities, which would turn COST into a work-ratio artifact
    rather than the framework-overhead measurement the figure is about
    (EXPERIMENTS.md discusses the calibration).
    """
    rows = []

    baseline = gtries_motifs(motifs_graph, motifs_k)
    outcome = cost_of(
        lambda: motifs_fractoid(
            FractalContext().from_graph(motifs_graph), motifs_k
        ),
        baseline.runtime_seconds,
    )
    rows.append({"kernel": f"motifs k={motifs_k}", "baseline": "gtries", **outcome})

    baseline = gtries_cliques(cliques_graph, cliques_k)
    clique_fractoid_fn = (
        cliques_optimized_fractoid if use_optimized_cliques else cliques_fractoid
    )
    outcome = cost_of(
        lambda: clique_fractoid_fn(
            FractalContext().from_graph(cliques_graph), cliques_k
        ),
        baseline.runtime_seconds,
    )
    rows.append({"kernel": f"cliques k={cliques_k}", "baseline": "gtries", **outcome})

    baseline = grami_fsm(fsm_graph, fsm_support, fsm_max_edges)

    def _fsm_seconds(threads: int) -> float:
        config = single_machine(threads)
        result = fsm(
            FractalContext().from_graph(fsm_graph),
            min_support=fsm_support,
            max_edges=fsm_max_edges,
            engine=config,
        )
        return (
            sum(r.simulated_seconds for r in result.reports)
            + config.cost_model.setup_overhead_s
        )

    times = {}
    fsm_cost = None
    for threads in range(1, 33):
        t = _fsm_seconds(threads)
        times[threads] = t
        if t < baseline.runtime_seconds:
            fsm_cost = threads
            break
    rows.append(
        {
            "kernel": f"fsm support={fsm_support}",
            "baseline": "grami",
            "cost": fsm_cost,
            "fractal_s": times[max(times)],
            "baseline_s": baseline.runtime_seconds,
            "times": times,
        }
    )

    for name in query_names:
        pattern = QUERY_PATTERNS[name]
        baseline = singlethread_query(queries_graph, pattern)
        outcome = cost_of(
            lambda p=pattern: query_fractoid(
                FractalContext().from_graph(queries_graph), p, PAPER_KERNEL
            ),
            baseline.runtime_seconds,
        )
        rows.append({"kernel": f"query {name}", "baseline": "gtries", **outcome})

    if verbose:
        _print_cost_rows(rows, "Figure 18 — COST analysis")
    return rows


def run_fig20b_cost(
    cliques_graph: Graph,
    triangles_graph: Graph,
    cliques_k: int = 5,
    verbose: bool = True,
) -> List[Dict]:
    """COST of the optimized (KClist-enumerator) cliques and triangles."""
    rows = []
    baseline = kclist_cliques(cliques_graph, cliques_k)
    outcome = cost_of(
        lambda: cliques_optimized_fractoid(
            FractalContext().from_graph(cliques_graph), cliques_k
        ),
        baseline.runtime_seconds,
    )
    rows.append(
        {"kernel": f"cliques(KClist) k={cliques_k}", "baseline": "kclist", **outcome}
    )

    baseline = neo4j_triangles(triangles_graph)
    outcome = cost_of(
        lambda: triangles_optimized_fractoid(
            FractalContext().from_graph(triangles_graph)
        ),
        baseline.runtime_seconds,
    )
    rows.append({"kernel": "triangles", "baseline": "neo4j", **outcome})
    if verbose:
        _print_cost_rows(rows, "Figure 20b — COST of optimized kernels")
    return rows


def _print_cost_rows(rows: List[Dict], title: str) -> None:
    print_table(
        ["kernel", "baseline", "baseline time", "COST (threads)"],
        [
            (
                r["kernel"],
                r["baseline"],
                fmt_seconds(r["baseline_s"]),
                r["cost"] if r["cost"] is not None else f"> {max(r['times'])}",
            )
            for r in rows
        ],
        title=title,
    )


# ----------------------------------------------------------------------
# Figure 19 — Strong scalability
# ----------------------------------------------------------------------
def run_fig19_scalability(
    kernels: Dict[str, Callable[[ClusterConfig], float]],
    worker_counts: Sequence[int] = (1, 2, 4, 6, 8, 10),
    cores_per_worker: int = 28,
    verbose: bool = True,
) -> List[Dict]:
    """Strong scaling: runtime and efficiency vs a one-worker baseline.

    ``kernels`` maps a kernel name to a callable returning the simulated
    runtime under a given cluster configuration.
    """
    rows = []
    for name, runner in kernels.items():
        base_config = ClusterConfig(
            workers=worker_counts[0],
            cores_per_worker=cores_per_worker,
            include_setup_overhead=False,
        )
        base_time = runner(base_config)
        for workers in worker_counts:
            config = ClusterConfig(
                workers=workers,
                cores_per_worker=cores_per_worker,
                include_setup_overhead=False,
            )
            t = base_time if workers == worker_counts[0] else runner(config)
            speedup = base_time / t if t else float("inf")
            scale = workers / worker_counts[0]
            rows.append(
                {
                    "kernel": name,
                    "workers": workers,
                    "cores": workers * cores_per_worker,
                    "seconds": t,
                    "speedup": speedup,
                    "efficiency": speedup / scale,
                }
            )
    if verbose:
        print_table(
            ["kernel", "workers", "cores", "runtime", "speedup", "efficiency"],
            [
                (
                    r["kernel"],
                    r["workers"],
                    r["cores"],
                    fmt_seconds(r["seconds"]),
                    f"{r['speedup']:.2f}x",
                    f"{r['efficiency']:.0%}",
                )
                for r in rows
            ],
            title="Figure 19 — Strong scalability",
        )
    return rows
