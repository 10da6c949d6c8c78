"""The benchmark's metric vocabulary, declared once.

End-to-end metrics (with unit, direction and regression bound) and
per-layer metrics (with unit, direction, the seam or report field that
measures them, and the end-to-end metric they are expected to move).
``BENCHMARK.json``, the runner's output, the README glossary and the
self-tests all read these tables; later issues cite the names.  The
workload names live with their definitions in ``workloads.py``.
"""

from __future__ import annotations

from typing import List, NamedTuple

# The contract's result line carries numbers only.  A per-layer metric
# that cannot be measured on a workload (worker-side seam, engine not
# used, cross-workload quantity in a single-workload run) is printed as
# ``unavailable (<reason>)`` in the tables and the trace file, and as this
# sentinel on the result line.  Every real value is >= 0, so the sentinel
# cannot be mistaken for a measured zero.
UNAVAILABLE_VALUE = -1.0

QUERY_NAMES = ("q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8")


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    definition: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    source: str
    should_move: str


END_TO_END: List[EndToEnd] = [
    EndToEnd(
        "wall_s", "s", "lower", 0.2,
        "median over the timed repetitions of the wall time of the "
        "workload's whole call sequence, tracing off, at the reference "
        "host speed (each repetition divided by the host factor measured "
        "right before and after it)",
    ),
    EndToEnd(
        "cpu_s", "s", "lower", 0.2,
        "median per repetition of user+sys CPU of the driver plus its "
        "reaped children, at the reference host speed",
    ),
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "what a user pays before the first query: median of >=11 repeats "
        "of load_edge_list + csr + labeled_adjacency + label_stats + "
        "FractalContext().from_graph, summed over the workload's graphs, "
        "plus the median `import repro` of fresh interpreters, at the "
        "reference host speed",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.10,
        "driver ru_maxrss; on mp workloads plus num_procs x the largest "
        "reaped child's ru_maxrss",
    ),
    EndToEnd(
        "sim_s", "sim_s", "lower", 0.15,
        "sum of ExecutionReport.total_seconds over one repetition's "
        "calls: the cost-model clock the paper's figures are drawn on; "
        "repeats exactly for one seed",
    ),
]


def _q_rows() -> List[PerLayer]:
    return [
        PerLayer(
            f"apps.{q}.wall_s", "s", "lower",
            f"wall around the {q} app call",
            "locates a query-count / query-list change",
        )
        for q in QUERY_NAMES
    ]


PER_LAYER: List[PerLayer] = [
    # ---- graph ------------------------------------------------------
    PerLayer("graph.load_s", "s", "lower",
             "direct timed load_edge_list in set-up (median)",
             "setup_s on every workload, most on query-count"),
    PerLayer("graph.index_build_s", "s", "lower",
             "direct timed csr + labeled_adjacency + label_stats (median)",
             "setup_s on every workload, most on query-count"),
    PerLayer("graph.vertices", "count", "lower",
             "Graph.n_vertices summed over the workload's graphs", "-"),
    PerLayer("graph.edges", "count", "lower",
             "Graph.n_edges summed over the workload's graphs", "-"),
    PerLayer("graph.shm_create_s", "s", "lower",
             "span on SharedGraphBuffers(...)",
             "wall_s on motifs-sl-mp2 (per step, not amortised)"),
    PerLayer("graph.shm_attach_s", "s", "lower",
             "direct timed SharedGraphBuffers.attach() on the same graph",
             "wall_s on motifs-sl-mp2"),
    PerLayer("graph.shm_bytes", "B", "lower",
             "SharedGraphBuffers.nbytes", "peak_rss_mb on the mp workloads"),
    # ---- pattern ----------------------------------------------------
    PerLayer("pattern.canon_calls", "count", "lower",
             "span on minimum_dfs_code",
             "wall_s/cpu_s on motifs-ml-seq and fsm-sim; 0 on query-count"),
    PerLayer("pattern.canon_self_s", "s", "lower",
             "span on minimum_dfs_code", "as pattern.canon_calls"),
    PerLayer("pattern.intern_calls", "count", "lower",
             "span on PatternInterner.intern",
             "wall_s/cpu_s on motifs-ml-seq and fsm-sim"),
    PerLayer("pattern.intern_self_s", "s", "lower",
             "span on PatternInterner.intern", "as pattern.intern_calls"),
    PerLayer("pattern.intern_hit_ratio", "ratio", "higher",
             "PatternInterner.hits / (hits + misses) of the repetition's context",
             "wall_s on motifs-ml-seq and fsm-sim"),
    PerLayer("pattern.distinct_patterns", "count", "lower",
             "distinct patterns among the operation's result keys", "-"),
    PerLayer("pattern.plan_order_s", "s", "lower",
             "span on plan_matching_order", "wall_s on query-count light group"),
    PerLayer("pattern.symmetry_plan_s", "s", "lower",
             "span on symmetry_plan", "wall_s on query-count light group"),
    PerLayer("pattern.symmetry_conditions", "count", "lower",
             "pattern_kernel_summary()['symmetry']['conditions'], summed over calls",
             "core.extension_tests on query-count and query-list"),
    PerLayer("pattern.symmetry_cache_hits", "count", "higher",
             "Metrics.symmetry_cache_hits", "pattern.symmetry_plan_s"),
    PerLayer("pattern.decomp_plan_s", "s", "lower",
             "span on plan_step_decomposition", "wall_s on query-count light group"),
    PerLayer("pattern.decomp_picked", "count", "higher",
             "calls whose decomposition record says executed == 'count'",
             "wall_s on query-count (0 at the defining commit)"),
    PerLayer("pattern.chooser_qerror_max", "ratio", "lower",
             "max over calls of max(est/metered, metered/est) candidate units "
             "of the kernel the chooser executed",
             "the chooser's decisions on query-count"),
    PerLayer("pattern.decomp_count_self_s", "s", "lower",
             "span on count_embeddings",
             "wall_s on query-count, only for queries the chooser sends there"),
    PerLayer("pattern.decomp_core_embeddings", "count", "lower",
             "Metrics.decomp_core_embeddings", "as pattern.decomp_count_self_s"),
    PerLayer("pattern.decomp_terms", "count", "lower",
             "Metrics.decomp_terms", "as pattern.decomp_count_self_s"),
    # ---- core -------------------------------------------------------
    PerLayer("core.extension_tests", "count", "lower",
             "Metrics.extension_tests (the paper's EC)",
             "sim_s everywhere; wall_s in proportion on the seq workloads"),
    PerLayer("core.extensions_generated", "count", "lower",
             "Metrics.extensions_generated", "sim_s everywhere"),
    PerLayer("core.valid_ratio", "ratio", "higher",
             "extensions_generated / extension_tests", "sim_s everywhere"),
    PerLayer("core.subgraphs_enumerated", "count", "lower",
             "Metrics.subgraphs_enumerated", "sim_s, wall_s"),
    PerLayer("core.results_emitted", "count", "lower",
             "Metrics.results_emitted", "-"),
    PerLayer("core.orbit_multiplied_embeddings", "count", "higher",
             "Metrics.orbit_multiplied_embeddings",
             "wall_s and sim_s on query-count; 0 on query-list"),
    PerLayer("core.extensions_calls", "count", "lower",
             "spans on the three strategies' extensions",
             "wall_s on motifs-ml-seq, fsm-sim (vertex/edge) and query-* (pattern)"),
    PerLayer("core.extensions_self_s", "s", "lower",
             "spans on the three strategies' extensions",
             "as core.extensions_calls"),
    PerLayer("core.intersect_calls", "count", "lower",
             "span on intersect_slices",
             "wall_s on query-count and query-list; 0 on the other four"),
    PerLayer("core.intersect_self_s", "s", "lower",
             "span on intersect_slices", "as core.intersect_calls"),
    PerLayer("core.intersect_comparisons", "count", "lower",
             "Metrics.intersect_comparisons", "as core.intersect_calls"),
    PerLayer("core.gallop_steps", "count", "lower",
             "Metrics.gallop_steps", "as core.intersect_calls"),
    PerLayer("core.index_slices", "count", "lower",
             "Metrics.index_slices", "as core.intersect_calls"),
    PerLayer("core.agg_updates", "count", "lower",
             "Metrics.aggregate_updates",
             "wall_s on motifs-ml-seq, fsm-sim"),
    PerLayer("core.agg_add_self_s", "s", "lower",
             "spans on AggregationStorage.add / add_inplace outside merges",
             "wall_s on motifs-ml-seq, fsm-sim"),
    PerLayer("core.agg_merge_s", "s", "lower",
             "spans on merge_storages_streaming, AggregationStorage.merge "
             "and merge_pairs",
             "wall_s on motifs-ml-mp2"),
    PerLayer("core.agg_finalize_s", "s", "lower",
             "span on AggregationStorage.finalize", "wall_s on fsm-sim"),
    PerLayer("core.agg_entries_shipped", "count", "lower",
             "aggregation_shuffle_summary()['entries_shipped']",
             "sim_s on fsm-sim"),
    PerLayer("core.agg_combine_ratio", "ratio", "lower",
             "aggregation_shuffle_summary()['combine_ratio']",
             "sim_s on fsm-sim"),
    PerLayer("core.freeze_calls", "count", "lower",
             "span on Subgraph.freeze",
             "wall_s and peak_rss_mb on query-list only; 0 elsewhere"),
    PerLayer("core.freeze_self_s", "s", "lower",
             "span on Subgraph.freeze", "as core.freeze_calls"),
    PerLayer("core.plan_steps_s", "s", "lower",
             "span on plan_steps", "runtime.driver.self_s"),
    PerLayer("core.steps", "count", "lower",
             "len(ExecutionReport.steps) summed over calls", "-"),
    # ---- runtime ----------------------------------------------------
    PerLayer("runtime.driver.execute_calls", "count", "lower",
             "span on execute_plan", "-"),
    PerLayer("runtime.driver.execute_s", "s", "lower",
             "span on execute_plan (inclusive)", "wall_s everywhere"),
    PerLayer("runtime.driver.self_s", "s", "lower",
             "span on execute_plan (self)",
             "overhead on every workload, visible on query-count"),
    PerLayer("runtime.driver.rep_drift", "ratio", "lower",
             "last / first untraced timed repetition", "wall_s spread"),
    PerLayer("runtime.backend.run_step_s", "s", "lower",
             "spans on each backend's run_step (inclusive)", "wall_s everywhere"),
    PerLayer("runtime.engine.walk_self_s", "s", "lower",
             "self time of run_step_sequential, PatternInducedStrategy."
             "count_matches and ClusterEngine.run_step spans",
             "wall_s on the four single-process workloads"),
    PerLayer("runtime.cluster.events", "count", "lower",
             "scheduler_summary()['events']", "wall_s on fsm-sim"),
    PerLayer("runtime.cluster.requeues", "count", "lower",
             "scheduler_summary()['requeues']", "wall_s on fsm-sim"),
    PerLayer("runtime.cluster.parks", "count", "lower",
             "scheduler_summary()['parks']", "wall_s on fsm-sim"),
    PerLayer("runtime.cluster.victim_scan_steps", "count", "lower",
             "scheduler_summary()['victim_scan_steps']", "wall_s on fsm-sim"),
    PerLayer("runtime.cluster.steals_internal", "count", "lower",
             "Metrics.steals_internal", "sim_s on fsm-sim"),
    PerLayer("runtime.cluster.steals_external", "count", "lower",
             "Metrics.steals_external", "sim_s on fsm-sim"),
    PerLayer("runtime.cluster.steal_messages", "count", "lower",
             "Metrics.steal_messages", "sim_s on fsm-sim"),
    PerLayer("runtime.cluster.utilization", "ratio", "higher",
             "sum of CoreReport.busy_units / (cores x makespan_units) over steps",
             "sim_s on fsm-sim"),
    PerLayer("runtime.cluster.sched_overhead_s", "s", "lower",
             "untraced fsm-sim wall minus one sequential-engine run of the "
             "same input",
             "wall_s on fsm-sim"),
    PerLayer("runtime.mp.step_wall_s", "s", "lower",
             "backend_info['wall_seconds'] summed over steps",
             "wall_s on the mp workloads"),
    PerLayer("runtime.mp.fork_s", "s", "lower",
             "span on BaseProcess.start", "wall_s on motifs-sl-mp2"),
    PerLayer("runtime.mp.worker_lifetime_max_s", "s", "lower",
             "max of backend_info['worker_wall_seconds'], summed over steps",
             "wall_s on the mp workloads"),
    PerLayer("runtime.mp.worker_lifetime_sum_s", "s", "lower",
             "sum of backend_info['worker_wall_seconds']",
             "cpu_s on the mp workloads"),
    PerLayer("runtime.mp.driver_wait_s", "s", "lower",
             "span on the result queue's get", "wall_s on motifs-sl-mp2"),
    PerLayer("runtime.mp.driver_overhead_s", "s", "lower",
             "step wall minus max worker lifetime",
             "wall_s, cpu_s on motifs-ml-mp2 (with core.agg_merge_s)"),
    PerLayer("runtime.mp.chunks", "count", "lower",
             "backend_info['chunks']", "-"),
    PerLayer("runtime.mp.speedup", "ratio", "higher",
             "one sequential-engine run of the same input / untraced wall_s",
             "wall_s on the mp workloads"),
    PerLayer("runtime.mp.efficiency", "ratio", "higher",
             "runtime.mp.speedup / num_procs", "wall_s on motifs-sl-mp2"),
    PerLayer("runtime.mp.cpu_inflation", "ratio", "lower",
             "cpu_s of the mp workload / cpu_s of the sequential run",
             "cpu_s on the mp workloads"),
    PerLayer("runtime.mp.workers_lost", "count", "lower",
             "Metrics.workers_lost (must be 0)", "-"),
    PerLayer("runtime.mp.worker_peak_rss_mb", "MB", "lower",
             "RUSAGE_CHILDREN ru_maxrss", "peak_rss_mb on the mp workloads"),
    PerLayer("runtime.costmodel.work_units", "units", "lower",
             "StepReport.work_units summed over a repetition", "sim_s"),
    PerLayer("runtime.costmodel.ns_per_unit", "ns/unit", "lower",
             "untraced wall_s / work_units",
             "fidelity of sim_s as a stand-in for wall_s"),
    PerLayer("runtime.costmodel.qerror", "ratio", "lower",
             "max(r, 1/r), r = this workload's ns/unit over the six-workload "
             "geomean (needs a run of all six)",
             "a re-pricing PR moves it and sim_s, never wall_s"),
    # ---- apps -------------------------------------------------------
    *_q_rows(),
    PerLayer("apps.fsm.rounds", "count", "lower", "FSMResult.rounds", "-"),
    PerLayer("apps.fsm.frequent_patterns", "count", "lower",
             "len(FSMResult.frequent)", "-"),
    PerLayer("apps.self_s", "s", "lower",
             "wall around the app calls minus their execute_plan spans",
             "wall_s on fsm-sim (pattern set handling between rounds)"),
    # ---- the tracer itself ------------------------------------------
    PerLayer("runtime.trace_overhead_ratio", "ratio", "lower",
             "traced repetition wall / untraced median wall_s", "-"),
]
