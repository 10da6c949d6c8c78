"""Per-layer metrics: spans, report counters and direct timings by name.

``compute`` turns what one traced pass collected into the metrics declared
in ``names.PER_LAYER``.  Times and counts are per repetition (totals over
the traced repetitions divided by their number), and times are at the
reference host speed like ``wall_s`` (see ``host.host_factor``).  A metric that cannot be
measured on a workload is an ``Unavailable`` carrying the reason, never a
zero: a zero here always means "measured, and nothing happened".
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from names import QUERY_NAMES
from spans import Tracer


class Unavailable(str):
    """Why a metric has no value on this workload."""


Value = Union[float, Unavailable]

_WORKER_SIDE = Unavailable(
    "runs inside worker processes; not visible from the driver"
)
_NOT_MP = Unavailable("workload does not use the multiprocess backend")
_NOT_SIM = Unavailable("workload does not use the simulated cluster")
_NO_PATTERN = Unavailable("workload has no pattern-induced fractoid")
_NOT_FSM = Unavailable("workload does not call fsm")
_NEEDS_ALL = Unavailable(
    "compares the six workloads; run without --workload"
)

_WALK_SPANS = (
    "runtime.engine.run_step_sequential",
    "core.enumerator.count_matches",
    "runtime.cluster.run_step",
)
# Seams whose hot path runs in the workers on the mp workloads.
_WORKER_SEAMS = (
    "pattern.dfscode.minimum_dfs_code",
    "pattern.interner.intern",
    "core.enumerator.extensions",
    "core.intersect.intersect_slices",
    "core.subgraph.freeze",
)


@dataclass
class Collected:
    """What one workload's child process gathered for the traced pass."""

    engine: str  # "sequential" | "mp" | "sim"
    num_procs: int
    tracer: Tracer
    # One per traced repetition: its ``workload/rep`` id ("tag"), wall,
    # "host_factor", "reports" (the calls' ExecutionReports), "interner"
    # (hits, misses) and "op_records" -- one {"name", "wall", "info"} per
    # app call, ``info`` being the result's summary (distinct patterns,
    # FSM rounds).  Walls are already at reference speed; raw span and
    # report times are divided by the repetition's host factor here.
    traced_reps: List[dict]
    untraced_walls: Sequence[float]
    untraced_cpu_s: float
    setup: Dict[str, float]  # load_s, index_build_s, vertices, edges
    shm: Optional[Dict[str, float]]  # attach_s, bytes (mp workloads)
    # wall_s / cpu_s of one sequential-engine run of the same calls
    # (mp and sim workloads).
    sequential_run: Optional[Dict[str, float]]
    worker_peak_rss_mb: float


def self_time_share(tracer: Tracer, tag_prefix: str, traced_wall: float) -> float:
    """Sum of all self times over the (raw) traced wall; 1.0 = nothing lost."""
    return sum(row[4] for row in tracer.rows(tag_prefix)) / traced_wall


def compute(c: Collected) -> Dict[str, Value]:
    """Every ``PER_LAYER`` metric for one workload's traced pass."""
    engine, tracer = c.engine, c.tracer
    untraced_wall_s = statistics.median(c.untraced_walls)
    setup, shm, sequential_run = c.setup, c.shm, c.sequential_run
    reps = len(c.traced_reps)
    reports = [r for rep in c.traced_reps for r in rep["reports"]]
    is_mp = engine == "mp"
    sums: Dict[str, List[float]] = {}  # seam -> [calls, total, self]
    add_self_outside_merge = 0.0  # enumeration-side aggregation adds
    op_records = []
    for rep in c.traced_reps:
        factor = rep["host_factor"]
        op_records += [dict(o, wall=o["wall"] / factor) for o in rep["op_records"]]
        for name, parent, calls, total, self_s in tracer.rows(rep["tag"]):
            entry = sums.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total / factor
            entry[2] += self_s / factor
            if (name == "core.aggregation.add"
                    and parent != "core.aggregation.merge"):
                add_self_outside_merge += self_s / factor

    def seam(name: str, field: int) -> Value:
        if name in tracer.missing:
            return Unavailable(f"seam did not resolve: {tracer.missing[name]}")
        if is_mp and name in _WORKER_SEAMS:
            return _WORKER_SIDE
        return sums.get(name, (0, 0.0, 0.0))[field] / reps

    def calls(name: str) -> Value:
        return seam(name, 0)

    def total(name: str) -> Value:
        return seam(name, 1)

    def self_s(name: str) -> Value:
        return seam(name, 2)

    def counter(field: str) -> float:
        return sum(getattr(r.metrics, field) for r in reports) / reps

    out: Dict[str, Value] = {}

    # ---- graph ------------------------------------------------------
    out["graph.load_s"] = setup["load_s"]
    out["graph.index_build_s"] = setup["index_build_s"]
    out["graph.vertices"] = setup["vertices"]
    out["graph.edges"] = setup["edges"]
    if is_mp:
        out["graph.shm_create_s"] = total("graph.shm.create")
        out["graph.shm_attach_s"] = shm["attach_s"]
        out["graph.shm_bytes"] = shm["bytes"]
    else:
        for key in ("shm_create_s", "shm_attach_s", "shm_bytes"):
            out[f"graph.{key}"] = _NOT_MP

    # ---- pattern ----------------------------------------------------
    out["pattern.canon_calls"] = calls("pattern.dfscode.minimum_dfs_code")
    out["pattern.canon_self_s"] = self_s("pattern.dfscode.minimum_dfs_code")
    out["pattern.intern_calls"] = calls("pattern.interner.intern")
    out["pattern.intern_self_s"] = self_s("pattern.interner.intern")
    hits = sum(rep["interner"][0] for rep in c.traced_reps)
    misses = sum(rep["interner"][1] for rep in c.traced_reps)
    if is_mp:
        out["pattern.intern_hit_ratio"] = _WORKER_SIDE
    elif hits + misses == 0:
        out["pattern.intern_hit_ratio"] = Unavailable("the interner was never called")
    else:
        out["pattern.intern_hit_ratio"] = hits / (hits + misses)
    out["pattern.distinct_patterns"] = (
        sum(record["info"].get("distinct_patterns", 0) for record in op_records)
        / reps
    )
    out["pattern.plan_order_s"] = total("core.enumerator.plan_matching_order")
    out["pattern.symmetry_plan_s"] = total("pattern.symmetry.symmetry_plan")
    out["pattern.decomp_plan_s"] = total(
        "pattern.decompose.plan_step_decomposition"
    )
    kernels = [r.pattern_kernel_summary() for r in reports]
    kernels = [k for k in kernels if k["kernel"] is not None]
    if kernels:
        out["pattern.symmetry_conditions"] = (
            sum(k["symmetry"]["conditions"] for k in kernels) / reps
        )
        out["pattern.symmetry_cache_hits"] = counter("symmetry_cache_hits")
    else:
        out["pattern.symmetry_conditions"] = _NO_PATTERN
        out["pattern.symmetry_cache_hits"] = _NO_PATTERN
    decisions = [k["decomposition"] for k in kernels if k["decomposition"]]
    if decisions:
        out["pattern.decomp_picked"] = (
            sum(1 for d in decisions if d.get("executed") == "count") / reps
        )
        qerrors = []
        for k in kernels:
            d = k["decomposition"]
            if not d:
                continue
            estimate = d.get(
                "estimated_decomposed_units"
                if d.get("executed") == "count"
                else "estimated_enumeration_units"
            )
            metered = k["candidate_units"]
            if estimate and metered:
                qerrors.append(max(estimate / metered, metered / estimate))
        out["pattern.chooser_qerror_max"] = (
            max(qerrors) if qerrors else Unavailable("the chooser made no estimate")
        )
    else:
        reason = Unavailable("no call requested the decomposed kernel")
        out["pattern.decomp_picked"] = reason
        out["pattern.chooser_qerror_max"] = reason
    out["pattern.decomp_count_self_s"] = self_s("pattern.decompose.count_embeddings")
    out["pattern.decomp_core_embeddings"] = counter("decomp_core_embeddings")
    out["pattern.decomp_terms"] = counter("decomp_terms")

    # ---- core -------------------------------------------------------
    for field in (
        "extension_tests", "extensions_generated", "subgraphs_enumerated",
        "results_emitted", "orbit_multiplied_embeddings",
        "intersect_comparisons", "gallop_steps", "index_slices",
    ):
        out[f"core.{field}"] = counter(field)
    tests = out["core.extension_tests"]
    out["core.valid_ratio"] = (
        out["core.extensions_generated"] / tests
        if tests
        else Unavailable("no extension test ran")
    )
    out["core.extensions_calls"] = calls("core.enumerator.extensions")
    out["core.extensions_self_s"] = self_s("core.enumerator.extensions")
    out["core.intersect_calls"] = calls("core.intersect.intersect_slices")
    out["core.intersect_self_s"] = self_s("core.intersect.intersect_slices")
    out["core.agg_updates"] = counter("aggregate_updates")
    if "core.aggregation.add" in tracer.missing:
        out["core.agg_add_self_s"] = seam("core.aggregation.add", 2)
    elif is_mp:
        out["core.agg_add_self_s"] = _WORKER_SIDE
    else:
        out["core.agg_add_self_s"] = add_self_outside_merge / reps
    out["core.agg_merge_s"] = total("core.aggregation.merge")
    out["core.agg_finalize_s"] = total("core.aggregation.finalize")
    shuffles = [r.aggregation_shuffle_summary() for r in reports]
    out["core.agg_entries_shipped"] = (
        sum(s["entries_shipped"] for s in shuffles) / reps
    )
    entries_in = sum(s["combine_entries_in"] for s in shuffles)
    out["core.agg_combine_ratio"] = (
        sum(s["combine_entries_out"] for s in shuffles) / entries_in
        if entries_in
        else Unavailable("no worker-level combine ran")
    )
    out["core.freeze_calls"] = calls("core.subgraph.freeze")
    out["core.freeze_self_s"] = self_s("core.subgraph.freeze")
    out["core.plan_steps_s"] = total("core.steps.plan_steps")
    out["core.steps"] = sum(len(r.steps) for r in reports) / reps

    # ---- runtime ----------------------------------------------------
    out["runtime.driver.execute_calls"] = calls("runtime.driver.execute_plan")
    out["runtime.driver.execute_s"] = total("runtime.driver.execute_plan")
    out["runtime.driver.self_s"] = self_s("runtime.driver.execute_plan")
    out["runtime.driver.rep_drift"] = c.untraced_walls[-1] / c.untraced_walls[0]
    out["runtime.backend.run_step_s"] = total("runtime.backend.run_step")
    if is_mp:
        out["runtime.engine.walk_self_s"] = _WORKER_SIDE
    else:
        walk = [self_s(name) for name in _WALK_SPANS]
        broken = [w for w in walk if isinstance(w, Unavailable)]
        out["runtime.engine.walk_self_s"] = broken[0] if broken else sum(walk)

    if engine == "sim":
        scheduler = [r.scheduler_summary() for r in reports]
        for key in ("events", "requeues", "parks", "victim_scan_steps"):
            out[f"runtime.cluster.{key}"] = sum(s[key] for s in scheduler) / reps
        for field in ("steals_internal", "steals_external", "steal_messages"):
            out[f"runtime.cluster.{field}"] = counter(field)
        busy = 0.0
        capacity = 0.0
        for report in reports:
            for step in report.steps:
                if step.cluster is not None:
                    busy += sum(core.busy_units for core in step.cluster.cores)
                    capacity += (
                        len(step.cluster.cores) * step.cluster.makespan_units
                    )
        out["runtime.cluster.utilization"] = (
            busy / capacity if capacity else Unavailable("no cluster step ran")
        )
        out["runtime.cluster.sched_overhead_s"] = (
            untraced_wall_s - sequential_run["wall_s"]
        )
    else:
        for key in ("events", "requeues", "parks", "victim_scan_steps",
                    "steals_internal", "steals_external", "steal_messages",
                    "utilization", "sched_overhead_s"):
            out[f"runtime.cluster.{key}"] = _NOT_SIM

    if is_mp:
        step_wall = lifetime_max = lifetime_sum = chunks = 0.0
        for rep in c.traced_reps:
            for report in rep["reports"]:
                for step in report.steps:
                    info = step.backend_info or {}
                    if "worker_wall_seconds" not in info:
                        continue
                    lifetimes = info["worker_wall_seconds"]
                    step_wall += info["wall_seconds"] / rep["host_factor"]
                    lifetime_max += max(lifetimes, default=0.0) / rep["host_factor"]
                    lifetime_sum += sum(lifetimes) / rep["host_factor"]
                    chunks += info["chunks"]
        step_wall, lifetime_max = step_wall / reps, lifetime_max / reps
        out["runtime.mp.step_wall_s"] = step_wall
        out["runtime.mp.fork_s"] = total("runtime.mp.fork")
        out["runtime.mp.worker_lifetime_max_s"] = lifetime_max
        out["runtime.mp.worker_lifetime_sum_s"] = lifetime_sum / reps
        out["runtime.mp.driver_wait_s"] = total("runtime.mp.queue_get")
        out["runtime.mp.driver_overhead_s"] = step_wall - lifetime_max
        out["runtime.mp.chunks"] = chunks / reps
        speedup = sequential_run["wall_s"] / untraced_wall_s
        out["runtime.mp.speedup"] = speedup
        out["runtime.mp.efficiency"] = speedup / c.num_procs
        out["runtime.mp.cpu_inflation"] = c.untraced_cpu_s / sequential_run["cpu_s"]
        out["runtime.mp.workers_lost"] = counter("workers_lost")
        out["runtime.mp.worker_peak_rss_mb"] = c.worker_peak_rss_mb
    else:
        for key in ("step_wall_s", "fork_s", "worker_lifetime_max_s",
                    "worker_lifetime_sum_s", "driver_wait_s",
                    "driver_overhead_s", "chunks", "speedup", "efficiency",
                    "cpu_inflation", "workers_lost", "worker_peak_rss_mb"):
            out[f"runtime.mp.{key}"] = _NOT_MP

    units = sum(step.work_units for r in reports for step in r.steps) / reps
    out["runtime.costmodel.work_units"] = units
    out["runtime.costmodel.ns_per_unit"] = (
        untraced_wall_s / units * 1e9 if units else Unavailable("no work was priced")
    )
    out["runtime.costmodel.qerror"] = _NEEDS_ALL

    # ---- apps -------------------------------------------------------
    for q in QUERY_NAMES:
        walls = [r["wall"] for r in op_records if r["name"] == q]
        out[f"apps.{q}.wall_s"] = (
            sum(walls) / reps
            if walls
            else Unavailable(f"workload does not call {q}")
        )
    fsm_infos = [r["info"] for r in op_records if "rounds" in r["info"]]
    if fsm_infos:
        out["apps.fsm.rounds"] = sum(i["rounds"] for i in fsm_infos) / reps
        out["apps.fsm.frequent_patterns"] = (
            sum(i["frequent"] for i in fsm_infos) / reps
        )
    else:
        out["apps.fsm.rounds"] = _NOT_FSM
        out["apps.fsm.frequent_patterns"] = _NOT_FSM
    execute_s = out["runtime.driver.execute_s"]
    app_wall = sum(r["wall"] for r in op_records) / reps
    out["apps.self_s"] = (
        execute_s if isinstance(execute_s, Unavailable) else app_wall - execute_s
    )

    out["runtime.trace_overhead_ratio"] = (
        sum(rep["wall"] for rep in c.traced_reps) / reps / untraced_wall_s
    )

    return out


def costmodel_qerror(ns_per_unit: Dict[str, float]) -> Dict[str, float]:
    """Per workload: max ratio of its ns/unit to the geomean of all."""
    product = 1.0
    for value in ns_per_unit.values():
        product *= value
    geomean = product ** (1.0 / len(ns_per_unit))
    return {
        name: max(value / geomean, geomean / value)
        for name, value in ns_per_unit.items()
    }
