"""Command-line interface.

Usage::

    python -m repro datasets
    python -m repro run motifs --dataset mico --k 3
    python -m repro run cliques --dataset youtube --k 4 --workers 2 --cores 8
    python -m repro run motifs --dataset mico --k 3 \\
        --backend multiprocess --num-procs 4
    python -m repro run fsm --dataset mico --support 20
    python -m repro run query --dataset patents --query q3
    python -m repro run keywords --dataset wikidata --words paris revolution
    python -m repro experiment fig8          # regenerate one figure/table
    python -m repro experiment table1

``run`` executes an application on a stand-in dataset (optionally on the
simulated cluster) and prints results plus execution metrics;
``experiment`` invokes the benchmark harness for one table or figure.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import (
    ClusterConfig,
    FaultPlan,
    FractalContext,
    MultiprocessConfig,
    __version__,
)
from .apps import (
    QUERY_PATTERNS,
    count_cliques,
    fsm,
    keyword_search,
    motifs,
)
from .core.enumerator import PATTERN_KERNELS
from .graph import dataset_registry, dataset_stats
from .harness import (
    KEYWORD_QUERIES,
    bench_mico,
    bench_orkut,
    bench_patents,
    bench_wikidata,
    bench_youtube,
    paper_cluster,
    print_table,
    run_fig8_utilization,
    run_fig11_motifs,
    run_fig12_cliques,
    run_fig13_fsm,
    run_fig15_queries,
    run_fig16_worksteal,
    run_fig17_graph_reduction,
    run_fig18_cost,
    run_fig20a_triangles,
    run_fig20b_cost,
    run_sec6_overheads,
    run_table1_datasets,
    run_table2_memory,
)
from .harness.configs import (
    bench_cost_cliques,
    bench_fsm_mico,
    bench_fsm_patents,
    bench_memory_cliques,
)

__all__ = ["main"]


def _fault_plan(args) -> object:
    """Build the FaultPlan requested by --inject-failures / --fault-plan."""
    path = getattr(args, "fault_plan", None)
    if path is not None:
        try:
            return FaultPlan.load(path)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot load fault plan {path!r}: {exc}")
    seed = getattr(args, "inject_failures", None)
    if seed is not None:
        return FaultPlan.from_seed(seed, args.workers, args.cores)
    return None


def _engine(args) -> object:
    backend = getattr(args, "backend", "auto")
    if backend == "multiprocess":
        # Real-process failure injection: a plan file is used as given
        # (its mp_* sections drive the faults); --inject-failures SEED
        # derives real worker kills/stalls/drops from the seed.
        num_procs = getattr(args, "num_procs", 2)
        path = getattr(args, "fault_plan", None)
        plan = None
        if path is not None:
            try:
                plan = FaultPlan.load(path)
            except (OSError, ValueError) as exc:
                raise SystemExit(f"cannot load fault plan {path!r}: {exc}")
        else:
            seed = getattr(args, "inject_failures", None)
            if seed is not None:
                try:
                    plan = FaultPlan.from_seed_mp(seed, num_procs)
                except ValueError as exc:
                    raise SystemExit(
                        f"invalid multiprocess configuration: {exc}"
                    )
        try:
            return MultiprocessConfig(
                num_procs=num_procs,
                worker_timeout=getattr(args, "worker_timeout", 30.0),
                max_worker_retries=getattr(args, "max_worker_retries", 2),
                fault_plan=plan,
            )
        except (ValueError, RuntimeError) as exc:
            raise SystemExit(f"invalid multiprocess configuration: {exc}")
    plan = _fault_plan(args)
    if backend == "sequential" or (
        backend == "auto" and args.workers * args.cores <= 1
    ):
        if plan is not None:
            raise SystemExit(
                "failure injection needs the simulated cluster: pass "
                "--workers/--cores so that workers x cores > 1, or "
                "--backend simulator"
            )
        return "sequential"
    try:
        return ClusterConfig(
            workers=args.workers,
            cores_per_worker=args.cores,
            fault_plan=plan,
            steal_policy=getattr(args, "steal_policy", "one"),
        )
    except ValueError as exc:
        raise SystemExit(f"invalid cluster configuration: {exc}")


def _load_dataset(name: str, scale: float):
    registry = dataset_registry()
    if name not in registry:
        raise SystemExit(
            f"unknown dataset {name!r}; choose from {sorted(registry)}"
        )
    try:
        return registry[name](scale=scale)
    except ValueError as exc:
        raise SystemExit(
            f"cannot generate dataset {name!r} at --scale {scale}: {exc}"
        )


def _cmd_datasets(args) -> int:
    rows = [
        dataset_stats(_load_dataset(name, args.scale))
        for name in dataset_registry()
    ]
    print_table(
        ["graph", "|V|", "|E|", "|L|", "density", "#keywords"],
        [
            (
                r["graph"],
                r["vertices"],
                r["edges"],
                r["labels"],
                f"{r['density']:.2e}",
                r["keywords"],
            )
            for r in rows
        ],
        title="Stand-in datasets",
    )
    return 0


def _cmd_run(args) -> int:
    if getattr(args, "profile", False):
        return _profiled_run(args)
    return _run_app(args)


def _profiled_run(args) -> int:
    """Run the application under cProfile; print top 20 by cumulative time."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        status = _run_app(args)
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.strip_dirs().sort_stats("cumulative").print_stats(20)
    return status


def _print_recovery(report) -> None:
    """Recovery observability block printed after fault-injected runs."""
    if report is None:
        return
    summary = report.recovery_summary()
    print(
        "fault injection: "
        f"{summary['failures_injected']:.0f} failures injected, "
        f"{summary['failures_detected']:.0f} detected "
        f"(mean latency {summary['mean_detection_latency_units']:.1f} units)"
    )
    print(
        "recovery: "
        f"{summary['reenumerated_frames']:.0f} enumerators re-enumerated "
        f"({summary['reenumerated_extensions']:.0f} extensions), "
        f"wasted work {summary['wasted_work_units']:.1f} units "
        f"(EC {summary['wasted_extension_tests']:.0f})"
    )
    print(
        "steal protocol: "
        f"{summary['steal_retries']:.0f} retries, "
        f"{summary['steal_messages_dropped']:.0f} dropped / "
        f"{summary['steal_messages_duplicated']:.0f} duplicated / "
        f"{summary['steal_messages_delayed']:.0f} delayed messages"
    )


def _print_scheduler(report) -> None:
    """Scheduler-efficiency block printed after cluster runs."""
    if report is None:
        return
    summary = report.scheduler_summary()
    print(
        "scheduler: "
        f"{summary['events']:.0f} events "
        f"({summary['requeues']:.0f} stale), "
        f"{summary['parks']:.0f} parks / "
        f"{summary['wake_events']:.0f} wakes "
        f"({summary['parked_units']:.1f} units parked), "
        f"{summary['victim_scan_steps']:.0f} victim-scan steps"
    )
    line = (
        "steal policy: "
        f"{summary['steal_chunk_extensions']:.0f} extensions moved, "
        f"mean chunk {summary['mean_steal_chunk']:.2f}"
    )
    if summary["adaptive_steals"]:
        line += (
            f", adaptive: {summary['steal_degree_adjustments']:.0f} "
            "degree adjustments, "
            f"mean adaptive chunk {summary['adaptive_chunk_mean']:.2f}, "
            f"{summary['victim_cost_skips']:.0f} cheaper-victim picks"
        )
    print(line)


def _print_agg_shuffle(report) -> None:
    """Aggregation-shuffle stats printed after cluster runs that aggregate."""
    if report is None:
        return
    summary = report.aggregation_shuffle_summary()
    if summary["combine_entries_in"] == 0:
        return
    print(
        "aggregation shuffle: "
        f"{summary['entries_shipped']:.0f} entries shipped "
        f"({summary['words_shipped']:.0f} words, "
        f"{summary['messages']:.0f} messages), "
        f"combine ratio {summary['combine_ratio']:.3f} "
        f"({summary['combine_entries_in']:.0f} -> "
        f"{summary['combine_entries_out']:.0f} entries)"
    )
    print(
        "aggregation cost: "
        f"ship {summary['ship_units']:.1f} units, "
        f"combine {summary['combine_units']:.1f} units"
    )


def _print_backend(report) -> None:
    """Multiprocess identity block, and any backend's degradation line."""
    if report is None:
        return
    summary = report.backend_summary()
    if summary.get("backend") == "multiprocess":
        _print_multiprocess(summary)
    if summary.get("degraded_to"):
        print(
            f"degraded to {summary['degraded_to']} "
            f"({summary['degraded_reason']})"
        )


def _print_multiprocess(summary) -> None:
    # A counting step the driver ran itself forked nothing: say so rather
    # than print a start method and a shared segment that never existed.
    counted = (
        "orbit" if summary.get("orbit_counted_in_driver")
        else "decomposed" if summary.get("decomposed_in_driver")
        else None
    )
    if counted:
        print(
            f"backend: multiprocess ({summary.get('num_procs', '?')} procs), "
            f"counted in driver ({counted}), no workers forked, "
            f"wall {summary.get('wall_seconds', 0.0):.3f}s"
        )
    else:
        print(
            "backend: multiprocess "
            f"({summary.get('num_procs', '?')} procs, "
            f"start method {summary.get('start_method', '?')}), "
            f"shared graph {summary.get('shared_graph_bytes', 0)} bytes, "
            f"shipped {summary.get('entries_shipped', 0)} entries "
            f"({summary.get('shipped_bytes', 0)} bytes), "
            f"wall {summary.get('wall_seconds', 0.0):.3f}s"
            f" (driver fold {summary.get('fold_seconds', 0.0):.3f}s,"
            f" {summary.get('fold_cpu_seconds', 0.0):.3f}s cpu)"
            + (", listed by level walk" if summary.get("listed_in_worker") else "")
        )
        automaton = summary.get("automaton")
        if automaton is not None:
            print(
                f"worker automaton: {automaton['nodes']} nodes, "
                f"{automaton['transitions']} transitions, "
                f"{automaton['templates']} templates absorbed "
                f"({automaton['bytes']} bytes)"
            )
    if (
        summary.get("workers_lost")
        or summary.get("chunks_reexecuted")
        or summary.get("chunks_quarantined")
    ):
        print(
            "mp recovery: "
            f"{summary.get('workers_lost', 0)} workers lost "
            f"({summary.get('workers_respawned', 0)} respawned), "
            f"{summary.get('chunks_reexecuted', 0)} chunks re-executed, "
            f"{summary.get('chunks_quarantined', 0)} quarantined"
        )


def _print_pattern_kernel(report) -> None:
    """Candidate-kernel block printed after pattern-query runs."""
    if report is None:
        return
    summary = report.pattern_kernel_summary()
    if summary["kernel"] is None:
        return
    print(
        "pattern kernel: "
        f"{summary['kernel']} "
        f"(order {summary['order']}), "
        f"candidate cost {summary['candidate_units']:.1f} units"
    )
    levels = summary.get("levels")
    if levels is not None:
        shared = [pos for pos, level in enumerate(levels) if level["shared"]]
        print(
            "candidate sharing: levels read "
            f"{[level['reads'] for level in levels]}; "
            + (
                f"positions {shared} read less than their prefix and share "
                "each candidate set between the siblings of a root"
                if shared
                else "no position is shared"
            )
        )
        reused = {
            pos: level["base"]
            for pos, level in enumerate(levels)
            if level["base"] is not None
        }
        print(
            "candidate reuse: "
            + (
                f"positions {list(reused)} start from the candidates of "
                f"positions {list(reused.values())} and intersect only the "
                "back edges they add"
                if reused
                else "no position starts from an earlier one's candidates"
            )
        )
        print(
            "injectivity: candidates tested against positions "
            f"{[level['injective'] for level in levels]}; "
            "every other earlier position is proven distinct by its label, "
            "a back edge or the symmetry order"
        )
    print(
        "candidate work: "
        f"{summary['back_edge_probes']:.0f} back-edge probes, "
        f"{summary['intersect_comparisons']:.0f} comparisons, "
        f"{summary['gallop_steps']:.0f} gallop steps, "
        f"{summary['index_slices']:.0f} index slices"
    )
    sym = summary.get("symmetry")
    if sym is not None:
        parts = [
            f"{sym['conditions']} restriction conditions "
            f"(heuristic {sym['heuristic_conditions']}), "
            f"|Aut| {sym['group_order']}"
        ]
        orbit = summary.get("orbit_count")
        twins = sym.get("twins")
        placed = (
            f"pattern vertices {', '.join(map(str, twins))} matched last; "
            if twins
            else ""
        )
        if orbit is not None and orbit.get("executed"):
            parts.append(
                f"orbit tail: {orbit['tail']} "
                f"({placed}x{orbit['arrangements']} arrangements), "
                f"{summary['orbit_multiplied_embeddings']:.0f} "
                "embeddings counted in bulk"
            )
        elif orbit is not None:
            parts.append(f"orbit counting off ({orbit.get('reason')})")
        if summary.get("symmetry_cache_hits"):
            parts.append(f"{summary['symmetry_cache_hits']:.0f} plan cache hits")
        print("symmetry: " + "; ".join(parts))
    decomp = summary.get("decomposition")
    if decomp is not None:
        if decomp.get("executed") == "count":
            plan = decomp.get("plan", {})
            print(
                "decomposition: counted via core-fringe plan "
                f"(core {plan.get('core')}, fringe {plan.get('fringe')}, "
                f"{plan.get('n_blocks')} blocks, {plan.get('n_terms')} "
                f"inclusion-exclusion terms, "
                f"/{plan.get('automorphisms')} automorphisms); "
                f"{summary['decomp_core_embeddings']:.0f} core embeddings"
            )
        else:
            print(
                "decomposition: fell back to enumeration "
                f"({decomp.get('reason')})"
            )
    listing = summary.get("list_walk")
    if listing is not None:
        if listing["executed"]:
            print(
                f"listing: level walk, {report.result_count} matches "
                "emitted without a Subgraph each"
            )
        else:
            print(f"listing walk off ({listing['reason']})")


def _run_app(args) -> int:
    graph = _load_dataset(args.dataset, args.scale)
    engine = _engine(args)
    context = FractalContext(engine=engine)
    fg = context.from_graph(graph)
    if args.app == "motifs":
        census = motifs(fg, args.k)
        print_table(
            ["pattern labels", "pattern edges", "count"],
            [
                (p.vertex_labels, p.edges, c)
                # Ties broken by code: the table does not depend on which
                # backend's merge order filled the census.
                for p, c in sorted(
                    census.items(),
                    key=lambda kv: (-kv[1], kv[0]),
                )[:20]
            ],
            title=f"{args.k}-vertex motifs on {graph.name} (top 20)",
        )
    elif args.app == "cliques":
        count = count_cliques(fg, args.k)
        print(f"{args.k}-cliques on {graph.name}: {count}")
    elif args.app == "fsm":
        result = fsm(fg, min_support=args.support, max_edges=args.max_edges)
        print_table(
            ["pattern labels", "edges", "support"],
            [
                (p.vertex_labels, p.n_edges, result.support_of(p))
                for p in result.patterns[:20]
            ],
            title=(
                f"FSM on {graph.name}: {len(result.frequent)} frequent "
                f"patterns (support >= {args.support}, top 20)"
            ),
        )
        for reduction in result.reductions:
            print(f"graph reduction {reduction}")
    elif args.app == "query":
        pattern = QUERY_PATTERNS.get(args.query)
        if pattern is None:
            raise SystemExit(
                f"unknown query {args.query!r}; choose from "
                f"{sorted(QUERY_PATTERNS)}"
            )
        from .apps import query_fractoid

        fractoid = query_fractoid(fg, pattern, kernel=args.pattern_kernel)
        count = len(fractoid.subgraphs()) if args.list else fractoid.count()
        verb = "listed" if args.list else "matches"
        print(f"query {args.query} on {graph.name}: {count} {verb}")
        _print_pattern_kernel(context.last_report)
    elif args.app == "keywords":
        if not args.words:
            raise SystemExit("keyword search requires --words")
        result = keyword_search(fg, args.words, use_graph_reduction=args.reduce)
        print(
            f"keyword search {args.words} on {graph.name}: "
            f"{len(result.subgraphs)} minimal covers, "
            f"EC={result.extension_cost}"
        )
    if isinstance(engine, ClusterConfig):
        _print_scheduler(context.last_report)
        _print_agg_shuffle(context.last_report)
        if engine.fault_plan is not None:
            _print_recovery(context.last_report)
    _print_backend(context.last_report)
    return 0


_EXPERIMENTS = {}


def _register_experiments() -> None:
    cluster = paper_cluster(workers=4, cores_per_worker=7)
    _EXPERIMENTS.update(
        {
            "table1": lambda: run_table1_datasets(
                [ctor() for ctor in dataset_registry().values()]
            ),
            "table2": lambda: run_table2_memory(
                bench_memory_cliques(), bench_mico(labeled=True, scale=0.75)
            ),
            "fig8": lambda: run_fig8_utilization(bench_mico(), k=4, cores=28),
            "fig11": lambda: run_fig11_motifs(
                [bench_mico(scale=0.35), bench_youtube()], (3, 4), cluster
            ),
            "fig12": lambda: run_fig12_cliques(
                [bench_mico(), bench_youtube()], (4, 5, 6), cluster
            ),
            "fig13": lambda: run_fig13_fsm(
                [bench_fsm_mico(), bench_fsm_patents()], (8, 22, 36), 3, cluster
            ),
            "fig15": lambda: run_fig15_queries(
                bench_patents(labeled=False), QUERY_PATTERNS, cluster
            ),
            "fig16": lambda: run_fig16_worksteal(bench_fsm_patents(), 10),
            "fig17": lambda: run_fig17_graph_reduction(
                bench_wikidata(), KEYWORD_QUERIES
            ),
            "fig18": lambda: run_fig18_cost(
                bench_mico(),
                bench_cost_cliques(),
                bench_fsm_patents(),
                bench_youtube(),
                query_names=("q2", "q6"),
            ),
            "fig20a": lambda: run_fig20a_triangles(
                [
                    bench_mico(),
                    bench_patents(labeled=False),
                    bench_youtube(),
                    bench_orkut(),
                ],
                cluster,
            ),
            "fig20b": lambda: run_fig20b_cost(bench_mico(), bench_orkut()),
            "sec6": lambda: run_sec6_overheads(bench_mico()),
        }
    )


def _cmd_experiment(args) -> int:
    _register_experiments()
    runner = _EXPERIMENTS.get(args.name)
    if runner is None:
        raise SystemExit(
            f"unknown experiment {args.name!r}; choose from "
            f"{sorted(_EXPERIMENTS)}"
        )
    runner()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fractal reproduction: graph pattern mining",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_datasets = sub.add_parser("datasets", help="list stand-in datasets")
    p_datasets.add_argument("--scale", type=float, default=1.0)
    p_datasets.set_defaults(func=_cmd_datasets)

    p_run = sub.add_parser("run", help="run an application")
    p_run.add_argument(
        "app", choices=["motifs", "cliques", "fsm", "query", "keywords"]
    )
    p_run.add_argument("--dataset", default="mico")
    p_run.add_argument("--scale", type=float, default=1.0)
    p_run.add_argument("--k", type=int, default=3)
    p_run.add_argument("--support", type=int, default=10)
    p_run.add_argument("--max-edges", type=int, default=3)
    p_run.add_argument("--query", default="q1")
    p_run.add_argument("--words", nargs="*", default=None)
    p_run.add_argument("--reduce", action="store_true")
    p_run.add_argument("--workers", type=int, default=1)
    p_run.add_argument("--cores", type=int, default=1)
    p_run.add_argument(
        "--backend",
        choices=["auto", "sequential", "simulator", "multiprocess"],
        default="auto",
        help="execution backend: 'auto' (sequential, or the simulator "
        "when --workers/--cores request parallelism), 'sequential', "
        "'simulator' (deterministic simulated cluster) or "
        "'multiprocess' (real worker processes over shared-memory CSR "
        "buffers); results are identical under every backend",
    )
    p_run.add_argument(
        "--num-procs",
        type=int,
        default=2,
        metavar="N",
        help="worker processes for --backend multiprocess (default 2)",
    )
    p_run.add_argument(
        "--worker-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="multiprocess supervision deadline: a chunk lease "
        "unacknowledged for this long marks its worker lost (crashed, "
        "hung or straggling) and re-enqueues the chunk (default 30)",
    )
    p_run.add_argument(
        "--max-worker-retries",
        type=int,
        default=2,
        metavar="N",
        help="respawns allowed per multiprocess worker slot before the "
        "slot is abandoned; when every slot is abandoned the step "
        "degrades to in-driver sequential execution (default 2)",
    )
    p_run.add_argument(
        "--steal-policy",
        default="one",
        metavar="POLICY",
        help="work transferred per successful steal: 'one' (single "
        "extension, the paper-faithful default) or 'adaptive' (AIMD "
        "steal-degree controller with latency-aware victim selection); "
        "results are identical under both, clocks and steal traffic "
        "differ",
    )
    p_run.add_argument(
        "--pattern-kernel",
        choices=PATTERN_KERNELS,
        default=None,
        help="candidate kernel for 'run query': 'decomposed' (the "
        "default: label-partitioned adjacency index with sorted-set "
        "intersection in a cost-planned matching order, plus a "
        "cost-chosen core-fringe inclusion-exclusion count), 'indexed' "
        "(the same without the decomposed count) or 'legacy' "
        "(degree-greedy order with per-neighbor back-edge probing, the "
        "paper-faithful reference); counts are identical under all three",
    )
    p_run.add_argument(
        "--list",
        action="store_true",
        help="'run query' lists the matches (collect='subgraphs') instead "
        "of counting them",
    )
    p_run.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the top 20 functions "
        "by cumulative time",
    )
    faults = p_run.add_mutually_exclusive_group()
    faults.add_argument(
        "--inject-failures",
        type=int,
        default=None,
        metavar="SEED",
        help="inject a seeded random fault schedule (worker/core kills, "
        "stragglers, steal-message faults) into the simulated cluster "
        "and print recovery metrics",
    )
    faults.add_argument(
        "--fault-plan",
        default=None,
        metavar="FILE",
        help="JSON fault plan to inject (written by "
        "repro.runtime.faults.FaultPlan.save)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_exp = sub.add_parser("experiment", help="regenerate a table or figure")
    p_exp.add_argument("name")
    p_exp.set_defaults(func=_cmd_experiment)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
