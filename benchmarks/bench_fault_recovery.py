"""Chaos harness for the fault-injection & recovery subsystem.

Runs every fault schedule against every application and asserts the
subsystem's core invariant: *results and aggregations are byte-identical
to the failure-free run* — failures, stragglers, and steal-message
faults may only change clocks and recovery metrics, never what gets
mined (the paper's §4.1 from-scratch recovery guarantee).

Schedule inventory (27 total, >= 20 required):

* 5 handcrafted adversarial schedules — whole-worker kill, message
  faults only (heavy drop/duplicate/delay), straggler-only, kill every
  core but one, and core kills with both work-stealing levels disabled
  (exercising the driver-level resubmission fallback);
* 22 seeded random schedules (``FaultPlan.from_seed``) whose horizons
  are scaled to the measured failure-free makespan so kills land
  mid-execution, spread round-robin across all four work-stealing
  configurations.

Each schedule runs against 3 applications (clique counting,
vertex-induced exploration, motif census via canonical pattern codes),
so a full pass is 81 fault runs checked against 12 failure-free
baselines.  The harness also records a recovery-overhead-vs-failure-rate
curve and writes everything to ``BENCH_fault_recovery.json`` at the
repository root (``--smoke``: under ``.benchmarks/``); any invariant
violation makes it exit nonzero.

Usage::

    PYTHONPATH=src python benchmarks/bench_fault_recovery.py [--smoke]
        [--out PATH]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import ClusterConfig, FractalContext
from bench_schema import make_header, result_path
from repro.graph import powerlaw_graph
from repro.runtime.faults import (
    CoreFailure,
    FaultPlan,
    MessageFaults,
    StragglerWindow,
    WorkerFailure,
)

WORKERS = 2
CORES = 3
WS_CONFIGS: List[Tuple[bool, bool]] = [
    (True, True),
    (True, False),
    (False, True),
    (False, False),
]


# ----------------------------------------------------------------------
# Applications.  Each returns (canonical-result, ExecutionReport); the
# canonical result is JSON-serialized and compared byte-for-byte.
# ----------------------------------------------------------------------
def app_cliques(graph, config):
    context = FractalContext(engine=config)
    report = (
        context.from_graph(graph)
        .vfractoid()
        .expand(1)
        .filter(lambda s, c: s.edges_added_last() == s.n_vertices - 1)
        .explore(3)
        .execute(collect="count")
    )
    return report.result_count, report


def app_induced(graph, config):
    context = FractalContext(engine=config)
    report = (
        context.from_graph(graph)
        .vfractoid()
        .expand(3)
        .execute(collect="count")
    )
    return report.result_count, report


def app_census(graph, config):
    context = FractalContext(engine=config)
    view = (
        context.from_graph(graph)
        .vfractoid()
        .expand(3)
        .aggregate(
            "motifs",
            key_fn=lambda s, c: s.pattern(),
            value_fn=lambda s, c: 1,
            reduce_fn=lambda a, b: a + b,
        )
        .aggregation("motifs")
    )
    census = {str(p.canonical_code()): v for p, v in view.items()}
    return dict(sorted(census.items())), context.last_report


APPS: Dict[str, Callable] = {
    "cliques_k3": app_cliques,
    "induced_k3": app_induced,
    "census_k3": app_census,
}


# ----------------------------------------------------------------------
# Fault schedules.  Each builder receives the measured failure-free
# horizon (max step makespan in units) so faults land mid-execution.
# ----------------------------------------------------------------------
def _handcrafted(horizon: float) -> List[Tuple[str, Tuple[bool, bool], FaultPlan]]:
    mid = 0.3 * horizon
    return [
        (
            "worker_kill",
            (True, True),
            FaultPlan(worker_failures=(WorkerFailure(1, mid),)),
        ),
        (
            "message_faults_only",
            (True, True),
            FaultPlan(
                message_faults=MessageFaults(
                    drop=0.45, duplicate=0.25, delay=0.35, delay_units=200.0
                ),
                seed=11,
            ),
        ),
        (
            "straggler_only",
            (True, True),
            FaultPlan(
                stragglers=(
                    StragglerWindow(0, 0.0, horizon, factor=6.0),
                    StragglerWindow(3, mid, horizon, factor=3.0),
                )
            ),
        ),
        (
            "kill_all_but_one",
            (True, True),
            FaultPlan(
                core_failures=tuple(
                    CoreFailure(cid, mid + 10.0 * cid)
                    for cid in range(1, WORKERS * CORES)
                )
            ),
        ),
        (
            "kills_without_stealing",
            (False, False),
            FaultPlan(
                core_failures=(CoreFailure(0, mid), CoreFailure(4, 2 * mid))
            ),
        ),
    ]


def build_schedules(
    horizon: float, seeded: int
) -> List[Tuple[str, Tuple[bool, bool], FaultPlan]]:
    schedules = _handcrafted(horizon)
    for seed in range(seeded):
        ws = WS_CONFIGS[seed % len(WS_CONFIGS)]
        plan = FaultPlan.from_seed(
            seed, WORKERS, CORES, horizon_units=max(50.0, 0.8 * horizon)
        )
        schedules.append((f"seeded_{seed}", ws, plan))
    return schedules


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def _config(ws: Tuple[bool, bool], plan: Optional[FaultPlan] = None) -> ClusterConfig:
    return ClusterConfig(
        workers=WORKERS,
        cores_per_worker=CORES,
        ws_internal=ws[0],
        ws_external=ws[1],
        fault_plan=plan,
    )


def _canonical_bytes(result) -> bytes:
    return json.dumps(result, sort_keys=True).encode()


def _makespan_units(report) -> float:
    return max(
        (s.cluster.makespan_units for s in report.steps if s.cluster is not None),
        default=0.0,
    )


def _total_units(report) -> float:
    return sum(
        s.cluster.makespan_units for s in report.steps if s.cluster is not None
    )


def run(graph, seeded_schedules: int, out: Path) -> int:
    print(
        f"graph: {graph.n_vertices} vertices, {graph.n_edges} edges; "
        f"cluster {WORKERS}x{CORES}, 4 work-stealing configs"
    )

    # Failure-free baselines per (app, ws config).
    baselines: Dict[Tuple[str, Tuple[bool, bool]], dict] = {}
    for app_name, app in APPS.items():
        for ws in WS_CONFIGS:
            result, report = app(graph, _config(ws))
            baselines[(app_name, ws)] = {
                "bytes": _canonical_bytes(result),
                "total_units": _total_units(report),
            }
    horizon = _makespan_units_from_baseline(graph)
    print(f"failure-free horizon: {horizon:.0f} units")

    schedules = build_schedules(horizon, seeded_schedules)
    print(f"{len(schedules)} schedules x {len(APPS)} apps")

    runs: List[dict] = []
    violations: List[str] = []
    for name, ws, plan in schedules:
        for app_name, app in APPS.items():
            result, report = app(graph, _config(ws, plan))
            base = baselines[(app_name, ws)]
            identical = _canonical_bytes(result) == base["bytes"]
            metrics = report.metrics
            record = {
                "schedule": name,
                "app": app_name,
                "ws_internal": ws[0],
                "ws_external": ws[1],
                "results_identical": identical,
                "failures_injected": metrics.failures_injected,
                "failures_detected": metrics.failures_detected,
                "detection_latency_units": round(
                    metrics.detection_latency_units, 2
                ),
                "reenumerated_frames": metrics.reenumerated_frames,
                "wasted_work_units": round(metrics.wasted_work_units, 2),
                "steal_retries": metrics.steal_retries,
                "messages_dropped": metrics.steal_messages_dropped,
                "messages_duplicated": metrics.steal_messages_duplicated,
                "messages_delayed": metrics.steal_messages_delayed,
                "makespan_overhead": round(
                    _total_units(report) / base["total_units"], 4
                )
                if base["total_units"]
                else 1.0,
            }
            runs.append(record)
            if not identical:
                violations.append(f"{name}/{app_name}: results diverged")
            if metrics.failures_detected != metrics.failures_injected:
                violations.append(
                    f"{name}/{app_name}: detector missed failures "
                    f"({metrics.failures_detected}/{metrics.failures_injected})"
                )
        mark = "ok" if not any(v.startswith(name + "/") for v in violations) else "FAIL"
        last = runs[-1]
        print(
            f"  {name:24s} {mark}  failures={last['failures_injected']:.0f} "
            f"overhead={last['makespan_overhead']:.2f}x"
        )

    # Recovery-overhead-vs-failure-rate curve: mean makespan overhead
    # bucketed by the number of failures a schedule injected.
    curve: Dict[int, List[float]] = {}
    for r in runs:
        curve.setdefault(int(r["failures_injected"]), []).append(
            r["makespan_overhead"]
        )
    overhead_curve = [
        {
            "failures": k,
            "runs": len(v),
            "mean_makespan_overhead": round(sum(v) / len(v), 4),
            "max_makespan_overhead": round(max(v), 4),
        }
        for k, v in sorted(curve.items())
    ]

    all_identical = all(r["results_identical"] for r in runs)
    payload = {
        **make_header(
            "fault_recovery",
            {"schedules": len(schedules), "apps": list(APPS)},
            ("all fault-injected runs byte-identical to fault-free "
             "results" if all_identical and not violations
             else f"{len(violations)} invariant violations"),
        ),
        "generated_by": "benchmarks/bench_fault_recovery.py",
        "graph": {"vertices": graph.n_vertices, "edges": graph.n_edges},
        "cluster": {"workers": WORKERS, "cores_per_worker": CORES},
        "invariant": (
            "results and aggregations byte-identical to the failure-free "
            "run under every fault schedule; detector converges on every "
            "injected failure"
        ),
        "schedules": len(schedules),
        "apps": list(APPS),
        "fault_runs": len(runs),
        "all_identical": all(r["results_identical"] for r in runs),
        "violations": violations,
        "overhead_vs_failures": overhead_curve,
        "runs": runs,
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    if violations:
        print(f"FAIL: {len(violations)} invariant violations")
        for v in violations:
            print(f"  {v}")
        return 1
    print(
        f"PASS: {len(runs)} fault runs across {len(schedules)} schedules, "
        f"all results byte-identical to failure-free baselines"
    )
    return 0


def _makespan_units_from_baseline(graph) -> float:
    """Horizon for fault plans: the induced-exploration makespan on the
    default (both levels on) work-stealing configuration."""
    _, report = app_induced(graph, _config((True, True)))
    return _makespan_units(report)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smaller graph for CI; still >= 20 schedules x 3 apps",
    )
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    n = 48 if args.smoke else 110
    graph = powerlaw_graph(n, attach=4, seed=17)
    seeded = 16 if args.smoke else 22
    out = args.out or result_path("fault_recovery", args.smoke)
    return run(graph, seeded, out)


if __name__ == "__main__":
    raise SystemExit(main())
