"""Execution driver: Algorithm 2 over fractal steps.

Given a fractoid's primitives, the driver plans steps
(:func:`~repro.core.steps.plan_steps`), executes them in order on the
configured execution backend (sequential Algorithm 1, the simulated
cluster, or real worker processes over shared memory — resolved once
per execution through :func:`~repro.runtime.backend.resolve_backend`),
finalizes and caches aggregation results so later steps — and later
executions of fractoids derived from this one — reuse instead of
recompute, and assembles an :class:`ExecutionReport`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..core.aggregation import AggregationView
from ..core.primitives import Aggregate, Primitive
from ..core.steps import plan_steps
from ..core.subgraph import SubgraphResult
from ..graph.graph import Graph
from ..pattern.pattern import PatternInterner
from .backend import SHORTCUT_FLAGS, ExecutionBackend, resolve_backend
from .cluster import ClusterConfig, ClusterStepResult
from .costmodel import DEFAULT_COST_MODEL, CostModel
from .metrics import Metrics
from .mp_backend import MultiprocessConfig

__all__ = ["ExecutionReport", "StepReport", "execute_plan", "EngineSpec"]

EngineSpec = Union[str, ClusterConfig, MultiprocessConfig]


@dataclass
class StepReport:
    """Outcome of one fractal step."""

    index: int
    description: str
    metrics: Metrics
    work_units: float
    simulated_seconds: float
    cluster: Optional[ClusterStepResult] = None
    # Candidate-kernel description (``ExtensionStrategy.kernel_info``):
    # ``None`` for strategies without a selectable kernel, else a dict
    # with the kernel name and matching order.
    kernel_info: Optional[Dict[str, object]] = None
    # Backend-specific observability (backend name, real wall time,
    # shared-memory footprint, ...).
    backend_info: Optional[Dict[str, object]] = None


@dataclass
class ExecutionReport:
    """Outcome of a full fractoid execution."""

    subgraphs: Optional[List[SubgraphResult]]
    result_count: int
    aggregations: Dict[int, AggregationView]
    metrics: Metrics
    steps: List[StepReport] = field(default_factory=list)
    simulated_seconds: float = 0.0
    setup_seconds: float = 0.0
    wall_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Simulated runtime including framework setup overhead."""
        return self.simulated_seconds + self.setup_seconds

    def recovery_summary(self) -> Dict[str, float]:
        """Fault-handling observability rolled up over all steps.

        All values are zero for failure-free executions.  ``wasted_*``
        quantify redundant work caused by from-scratch recovery;
        ``detection_latency_units`` sums the heartbeat detector's lag per
        failure (``mean_detection_latency_units`` divides by failures).
        """
        m = self.metrics
        failures = m.failures_injected
        return {
            "failures_injected": failures,
            "failures_detected": m.failures_detected,
            "detection_latency_units": m.detection_latency_units,
            "mean_detection_latency_units": (
                m.detection_latency_units / failures if failures else 0.0
            ),
            "reenumerated_frames": m.reenumerated_frames,
            "reenumerated_extensions": m.reenumerated_extensions,
            "wasted_work_units": m.wasted_work_units,
            "wasted_extension_tests": m.wasted_extension_tests,
            "steal_retries": m.steal_retries,
            "steal_messages_dropped": m.steal_messages_dropped,
            "steal_messages_duplicated": m.steal_messages_duplicated,
            "steal_messages_delayed": m.steal_messages_delayed,
        }

    def scheduler_summary(self) -> Dict[str, float]:
        """Scheduler-efficiency observability rolled up over all steps.

        Meters the scheduler itself, not the mined workload: heap pops
        (``events``) and lazily-invalidated stale entries, idle-core
        parking (park episodes, wake notifications, total parked
        simulated units), victim-scan work of the stealable registry,
        and chunked-steal volume (``steal_chunk_extensions`` over
        ``steals`` gives the mean extensions moved per successful
        steal).  Parking/wake counters stay zero on the sequential
        engine; the adaptive counters (steal-degree adjustments,
        cost-preferred victim picks, and ``adaptive_chunk_mean`` —
        extensions per controller-sized steal) stay zero under
        ``steal_policy="one"``.
        """
        m = self.metrics
        steals = m.steals_internal + m.steals_external
        return {
            "events": m.scheduler_events,
            "requeues": m.scheduler_requeues,
            "parks": m.cores_parked,
            "wake_events": m.wake_events,
            "parked_units": m.parked_units,
            "victim_scan_steps": m.victim_scan_steps,
            "steal_chunk_extensions": m.steal_chunk_extensions,
            "mean_steal_chunk": (
                m.steal_chunk_extensions / steals if steals else 0.0
            ),
            "steal_degree_adjustments": m.steal_degree_adjustments,
            "victim_cost_skips": m.victim_cost_skips,
            "adaptive_steals": m.adaptive_steals,
            "adaptive_chunk_mean": (
                m.adaptive_chunk_extensions / m.adaptive_steals
                if m.adaptive_steals
                else 0.0
            ),
        }

    def aggregation_shuffle_summary(self) -> Dict[str, float]:
        """Two-level aggregation shuffle observability over all steps.

        ``combine_ratio`` is output/input entries of the worker-level
        combine — the map-side combining effectiveness (1.0 = nothing
        combined, lower is better).  All values are zero for executions
        without aggregations or on the sequential engine.
        """
        m = self.metrics
        entries_in = m.agg_combine_entries_in
        return {
            "entries_shipped": m.agg_entries_shipped,
            "words_shipped": m.agg_words_shipped,
            "messages": m.agg_messages,
            "ship_units": m.agg_ship_units,
            "combine_entries_in": entries_in,
            "combine_entries_out": m.agg_combine_entries_out,
            "combine_ratio": (
                m.agg_combine_entries_out / entries_in if entries_in else 0.0
            ),
            "combine_units": m.agg_combine_units,
        }

    def backend_summary(self) -> Dict[str, object]:
        """Which backend executed the plan, and what it cost for real.

        ``wall_seconds`` sums the per-step backend wall time when the
        backend reports it (multiprocess); the sequential and simulator
        backends report name and shape only — their currency is
        simulated seconds.

        On the multiprocess backend the summary also carries the
        fault-recovery ledger rolled up over all steps — workers lost
        and respawned, chunk leases re-executed, chunks quarantined to
        the driver's sequential path; all zero on a fault-free run.
        ``degraded_to`` appears, on any backend, when a step abandoned
        real parallelism entirely (no ``fork``, no shared memory, every
        worker lost), with ``degraded_reason`` saying which and why — the
        reason the step's ``RuntimeWarning`` gave.
        ``entries_shipped``/``shipped_bytes`` are the
        aggregation entries and encoded payload bytes that crossed the
        process boundary, counted once per retired chunk (the real-core
        counterpart of the simulator's metered aggregation shuffle).
        ``fold_seconds`` is the part of ``wall_seconds`` the driver spent
        decoding and reducing chunk payloads while the workers ran — the
        serial share of a step that ``worker_wall_seconds`` cannot show,
        and ``fold_cpu_seconds`` the driver thread's CPU time over the
        same stretch.  ``automaton`` sums what the workers' journals
        added to the driver's canonicalization tables — ``nodes``,
        ``transitions``, ``templates`` — and the ``bytes`` they took on
        the wire; all zero once the tables are warm.  These three are
        absent when no step forked workers.  When the final step ran past
        the enumeration its flag is here, as the backend set it:
        ``decomposed`` / ``orbit_counted`` / ``listed``, suffixed
        ``_in_driver`` / ``_in_worker`` by the multiprocess backend.
        """
        info = None
        wall = 0.0
        forked = []  # backend_info of every step that forked workers
        entries_shipped = shipped_bytes = 0
        degraded = None  # backend_info of the last step that degraded
        for step in self.steps:
            if step.backend_info is not None:
                info = step.backend_info
                wall += step.backend_info.get("wall_seconds", 0.0)
                entries_shipped += step.backend_info.get("entries_shipped", 0)
                shipped_bytes += step.backend_info.get("shipped_bytes", 0)
                if "fold_seconds" in step.backend_info:
                    forked.append(step.backend_info)
                if step.backend_info.get("degraded_to"):
                    degraded = step.backend_info
        if info is None:
            return {"backend": None}
        summary: Dict[str, object] = {"backend": info.get("backend")}
        for key in ("workers", "cores_per_worker", "num_procs",
                    "start_method", "shared_graph_bytes"):
            if key in info:
                summary[key] = info[key]
        for key in info:
            if key.partition("_in_")[0] in SHORTCUT_FLAGS.values():
                summary[key] = info[key]
        if "wall_seconds" in info:
            summary["wall_seconds"] = wall
        if info.get("backend") == "multiprocess":
            m = self.metrics
            summary["workers_lost"] = m.workers_lost
            summary["workers_respawned"] = m.workers_respawned
            summary["chunks_reexecuted"] = m.chunks_reexecuted
            summary["chunks_quarantined"] = m.chunks_quarantined
            summary["entries_shipped"] = entries_shipped
            summary["shipped_bytes"] = shipped_bytes
            if forked:
                for key in ("fold_seconds", "fold_cpu_seconds"):
                    summary[key] = sum(step_info[key] for step_info in forked)
                summary["automaton"] = {
                    name: sum(step_info["automaton"][name] for step_info in forked)
                    for name in forked[0]["automaton"]
                }
        if degraded is not None:
            for key in ("degraded_to", "degraded_reason"):
                summary[key] = degraded[key]
        return summary

    def pattern_kernel_summary(self) -> Dict[str, object]:
        """Candidate-kernel observability rolled up over all steps.

        ``kernel`` / ``order`` describe the pattern strategy's kernel and
        the matching order derived from it (``None`` when the execution
        used no pattern strategy).  The counters meter candidate generation:
        ``back_edge_probes`` are the legacy kernel's ``edge_between``
        hash probes, the rest is the indexed kernel's sorted-array work.
        ``candidate_units`` prices all of it (plus extension tests) with
        the default cost model — the quantity the pattern-kernel
        benchmark compares across kernels.

        When the ``decomposed`` kernel ran, ``decomposition`` carries
        the chooser's decision record (requested/executed/reason, plus
        the plan and estimates when decomposition was picked) and the
        ``decomp_*`` counters meter the inclusion–exclusion combine;
        they stay zero on pure-enumeration runs.

        ``levels`` lists, per matching-order position, the earlier
        positions its candidates are computed from (``reads``), whether
        sibling prefixes share them (``shared`` — a plan-time property:
        the indexed kernels share the positions that, the root aside, do
        not read their whole prefix), the earlier positions a candidate
        is tested against for injectivity (``injective``) and the
        earlier position whose candidates it starts from (``base``,
        ``None`` for none and on every legacy level).

        ``symmetry`` reports the restriction set the matching plan uses
        (optimized size vs the classic heuristic, the automorphism group
        order, the bulk-counted orbit tail and the ``twins``, the pattern
        vertices the planner matched last to form it); ``orbit_count`` records
        whether the counting-only fast path executed and why not
        otherwise; ``list_walk`` records whether a listing step was
        walked (``PatternInducedStrategy.list_matches``) and why not
        otherwise.  ``orbit_multiplied_embeddings`` are embeddings that
        were credited in bulk without being walked, and
        ``symmetry_cache_hits`` meters reuse of per-pattern restriction
        plans.
        """
        info = None
        for step in self.steps:
            if step.kernel_info is not None:
                info = step.kernel_info
        m = self.metrics
        return {
            "kernel": info["kernel"] if info else None,
            "order": info["order"] if info else None,
            "levels": info.get("levels") if info else None,
            "decomposition": info.get("decomposition") if info else None,
            "symmetry": info.get("symmetry") if info else None,
            "orbit_count": info.get("orbit_count") if info else None,
            "list_walk": info.get("list_walk") if info else None,
            "orbit_multiplied_embeddings": m.orbit_multiplied_embeddings,
            "symmetry_cache_hits": m.symmetry_cache_hits,
            "back_edge_probes": m.back_edge_probes,
            "intersect_comparisons": m.intersect_comparisons,
            "gallop_steps": m.gallop_steps,
            "index_slices": m.index_slices,
            "decomp_core_embeddings": m.decomp_core_embeddings,
            "decomp_blocks": m.decomp_blocks,
            "decomp_terms": m.decomp_terms,
            "decomp_fallbacks": m.decomp_fallbacks,
            "candidate_units": DEFAULT_COST_MODEL.candidate_units(m),
        }


def execute_plan(
    graph: Graph,
    strategy_factory: Callable,
    interner: PatternInterner,
    primitives: Sequence[Primitive],
    aggregation_cache: Dict[int, AggregationView],
    engine: EngineSpec = "sequential",
    collect: Optional[str] = None,
    root_words: Optional[List[int]] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> ExecutionReport:
    """Plan and execute a fractoid workflow.

    Args:
        graph: input graph.
        strategy_factory: ``(graph, metrics, interner) -> ExtensionStrategy``.
        interner: shared pattern interner.
        primitives: the full workflow.
        aggregation_cache: uid -> finalized view; mutated in place so the
            owning :class:`~repro.core.context.FractalContext` reuses
            results across derived fractoids (Algorithm 2's reuse rule).
        engine: ``"sequential"``, a :class:`ClusterConfig` (simulator) or
            a :class:`MultiprocessConfig` (real worker processes).
        collect: ``"subgraphs"`` materializes results, ``"count"`` only
            counts them, ``None`` runs for aggregations alone.
        root_words: optional level-0 partition restriction.
        cost_model: calibration constants for simulated time.

    Returns:
        The :class:`ExecutionReport` with results, metrics and timings.
    """
    started = time.perf_counter()
    steps = plan_steps(primitives, set(aggregation_cache))
    backend = resolve_backend(engine, cost_model)
    total_metrics = Metrics()
    reports: List[StepReport] = []
    collected: Optional[List[SubgraphResult]] = (
        [] if collect == "subgraphs" else None
    )
    count = 0
    simulated = 0.0

    try:
        for step_index, step in enumerate(steps):
            is_final = step_index == len(steps) - 1
            mode = collect if is_final else None
            sink = None
            if is_final and collect == "subgraphs":
                def sink(subgraph, _out=collected):
                    _out.append(subgraph.freeze())
            elif is_final and collect == "count":
                def sink(subgraph):
                    pass  # counting happens via metrics.results_emitted
            step_report, subgraphs = _run_one_step(
                graph,
                strategy_factory,
                interner,
                step,
                step_index,
                aggregation_cache,
                backend,
                sink,
                root_words,
                mode,
            )
            if subgraphs is not None and collected is not None:
                collected.extend(subgraphs)
            reports.append(step_report)
            total_metrics.merge(step_report.metrics)
            simulated += step_report.simulated_seconds
            if is_final:
                count = step_report.metrics.results_emitted
    finally:
        backend.close()

    return ExecutionReport(
        subgraphs=collected,
        result_count=count,
        aggregations=dict(aggregation_cache),
        metrics=total_metrics,
        steps=reports,
        simulated_seconds=simulated,
        setup_seconds=backend.setup_seconds(),
        wall_seconds=time.perf_counter() - started,
    )


def _run_one_step(
    graph: Graph,
    strategy_factory,
    interner: PatternInterner,
    step: List[Primitive],
    step_index: int,
    aggregation_cache: Dict[int, AggregationView],
    backend: ExecutionBackend,
    sink,
    root_words,
    collect: Optional[str],
):
    cached_uids = set(aggregation_cache)
    description = "".join(repr(p) for p in step)
    outcome = backend.run_step(
        graph,
        strategy_factory,
        interner,
        step,
        aggregation_cache,
        cached_uids,
        sink=sink,
        root_words=root_words,
        collect=collect,
    )
    _finalize(outcome.storages, step, aggregation_cache)
    report = StepReport(
        index=step_index,
        description=description,
        metrics=outcome.metrics,
        work_units=outcome.work_units,
        simulated_seconds=outcome.simulated_seconds,
        cluster=outcome.cluster,
        kernel_info=outcome.kernel_info,
        backend_info=outcome.backend_info,
    )
    return report, outcome.subgraphs


def _finalize(storages, step, aggregation_cache) -> None:
    """Finalize this step's aggregations into the shared cache."""
    for primitive in step:
        if isinstance(primitive, Aggregate) and primitive.uid in storages:
            aggregation_cache[primitive.uid] = storages[primitive.uid].finalize()
