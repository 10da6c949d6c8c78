"""Multiprocess fault-recovery benchmark: chaos schedules vs fault-free.

Two questions, answered with real processes and real signals:

1. **Correctness under chaos** — for a matrix of fault schedules
   (worker SIGKILLs, sleeps past the supervision deadline, SIGSTOP
   freezes, dropped result messages, poison chunks, mixed schedules),
   does the supervised multiprocess backend produce counts
   byte-identical to the fault-free simulator?  Any mismatch fails the
   benchmark.
2. **Overhead of recovery** — how much wall-clock does surviving N
   injected worker kills cost relative to the fault-free run?  The
   overhead-vs-failures curve is the price of the lease/respawn
   machinery when it actually has to work.

Usage::

    python benchmarks/bench_mp_fault_recovery.py          # full, writes JSON
    python benchmarks/bench_mp_fault_recovery.py --smoke  # CI: 2 workers,
                                                          # one injected kill
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro import ClusterConfig, FractalContext, MultiprocessConfig  # noqa: E402
from repro.apps import motifs  # noqa: E402
from repro.graph.datasets import mico_like  # noqa: E402
from repro.runtime.faults import (  # noqa: E402
    FaultPlan,
    MpDropResult,
    MpPoisonChunk,
    MpWorkerKill,
    MpWorkerStall,
)

from bench_schema import make_header  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "BENCH_mp_fault_recovery.json"


def _census(engine, graph, k=3):
    fc = FractalContext(engine=engine)
    start = time.perf_counter()
    result = motifs(fc.from_graph(graph), k)
    wall = time.perf_counter() - start
    return result, wall, fc.last_report


def _canonical(census):
    """Census keyed by canonical code: representative-independent."""
    return {p.canonical_code(): c for p, c in census.items()}


def _recovery(report):
    m = report.metrics
    return {
        "workers_lost": m.workers_lost,
        "workers_respawned": m.workers_respawned,
        "chunks_reexecuted": m.chunks_reexecuted,
        "chunks_quarantined": m.chunks_quarantined,
    }


# (name, num_procs, worker_timeout, plan) — the same families
# the test suite exercises, run here against a larger graph with timing.
def chaos_matrix():
    return [
        ("kill_first_chunk", 2, 5.0,
         FaultPlan(mp_worker_kills=(MpWorkerKill(0, 0),))),
        ("kill_after_two_chunks", 2, 5.0,
         FaultPlan(mp_worker_kills=(MpWorkerKill(0, 2),))),
        ("kill_two_of_three", 3, 5.0,
         FaultPlan(mp_worker_kills=(MpWorkerKill(0, 0), MpWorkerKill(1, 1)))),
        ("stall_below_timeout", 2, 5.0,
         FaultPlan(mp_worker_stalls=(MpWorkerStall(0, 1, 0.3),))),
        ("stall_past_timeout", 2, 1.0,
         FaultPlan(mp_worker_stalls=(MpWorkerStall(0, 1, 4.0),))),
        ("freeze_sigstop", 2, 1.0,
         FaultPlan(mp_worker_stalls=(MpWorkerStall(1, 0, 600.0, True),))),
        ("drop_first_result", 2, 1.0,
         FaultPlan(mp_drop_results=(MpDropResult(1, 0),))),
        ("drop_two_results", 2, 1.0,
         FaultPlan(mp_drop_results=(MpDropResult(0, 1), MpDropResult(1, 0)))),
        ("poison_chunk", 2, 2.0,
         FaultPlan(mp_poison_chunks=(MpPoisonChunk(2),))),
        ("poison_plus_kill", 3, 2.0,
         FaultPlan(mp_poison_chunks=(MpPoisonChunk(0),),
                   mp_worker_kills=(MpWorkerKill(2, 1),))),
        ("kill_stall_drop_mixed", 3, 1.0,
         FaultPlan(mp_worker_kills=(MpWorkerKill(0, 1),),
                   mp_worker_stalls=(MpWorkerStall(1, 2, 4.0),),
                   mp_drop_results=(MpDropResult(2, 0),))),
        ("seeded_plan", 2, 2.0,
         FaultPlan.from_seed_mp(11, 2, stall_seconds=0.2)),
    ]


def run_smoke() -> int:
    """CI chaos job: 2 workers, one injected kill, counts == simulator."""
    graph = mico_like(scale=0.25)
    sim, _, _ = _census(ClusterConfig(workers=2, cores_per_worker=2), graph)
    plan = FaultPlan(mp_worker_kills=(MpWorkerKill(worker_id=0, after_chunks=0),))
    mp, wall, report = _census(
        MultiprocessConfig(num_procs=2, worker_timeout=10.0, fault_plan=plan),
        graph,
    )
    if _canonical(mp) != _canonical(sim):
        print("FAIL: counts under injected kill differ from simulator")
        return 1
    rec = _recovery(report)
    if rec["workers_lost"] < 1:
        print("FAIL: injected kill was not detected")
        return 1
    print(
        f"smoke OK: {sum(mp.values())} subgraphs match simulator under a "
        f"worker kill ({rec['workers_lost']} lost, "
        f"{rec['workers_respawned']} respawned, "
        f"{rec['chunks_reexecuted']} chunks re-executed; {wall:.2f}s wall)"
    )
    return 0


def run_full(out: Path) -> int:
    host_cpus = os.cpu_count() or 1
    graph = mico_like(scale=0.5)

    sim_census, _, _ = _census(
        ClusterConfig(workers=2, cores_per_worker=2), graph
    )
    reference = _canonical(sim_census)

    # ---- chaos matrix: byte-identity under every schedule -------------
    schedules = {}
    for name, procs, timeout, plan in chaos_matrix():
        config = MultiprocessConfig(
            num_procs=procs,
            worker_timeout=timeout,
            fault_plan=plan,
        )
        census, wall, report = _census(config, graph)
        identical = _canonical(census) == reference
        schedules[name] = {
            "num_procs": procs,
            "worker_timeout_s": timeout,
            "wall_s": round(wall, 4),
            "counts_identical_to_simulator": identical,
            **_recovery(report),
        }
        status = "ok" if identical else "COUNTS DIFFER"
        rec = schedules[name]
        print(
            f"{name}: {status} ({wall:.2f}s, lost={rec['workers_lost']}, "
            f"reexec={rec['chunks_reexecuted']}, "
            f"quarantined={rec['chunks_quarantined']})"
        )
        if not identical:
            print(f"FAIL: schedule {name} changed the results")
            return 1

    # ---- overhead-vs-failures curve -----------------------------------
    # N gen-0 worker kills on a 4-proc step; overhead is the wall-clock
    # ratio against the same config with no faults.
    curve = {}
    base_wall = None
    for n_kills in (0, 1, 2, 3):
        plan = (
            FaultPlan(
                mp_worker_kills=tuple(
                    MpWorkerKill(worker_id=w, after_chunks=0)
                    for w in range(n_kills)
                )
            )
            if n_kills
            else None
        )
        config = MultiprocessConfig(
            num_procs=4, worker_timeout=10.0, fault_plan=plan
        )
        census, wall, report = _census(config, graph)
        if _canonical(census) != reference:
            print(f"FAIL: counts differ at {n_kills} injected kills")
            return 1
        if n_kills == 0:
            base_wall = wall
        curve[str(n_kills)] = {
            "wall_s": round(wall, 4),
            "overhead_vs_fault_free": round(wall / base_wall, 3),
            **_recovery(report),
        }
        print(
            f"{n_kills} kills: {wall:.3f}s "
            f"({wall / base_wall:.2f}x fault-free)"
        )

    worst = max(v["overhead_vs_fault_free"] for v in curve.values())
    headline = (
        f"{len(schedules)} chaos schedules byte-identical to the fault-free "
        f"simulator; surviving 3/4 worker kills costs "
        f"{curve['3']['overhead_vs_fault_free']:.2f}x fault-free wall "
        f"(worst overhead {worst:.2f}x)"
    )
    payload = {
        **make_header(
            "mp_fault_recovery",
            {
                "mode": "full",
                "workload": "motifs_k3",
                "dataset": graph.name,
                "schedules": len(schedules),
                "kill_curve_procs": 4,
            },
            headline,
        ),
        "generated_by": "benchmarks/bench_mp_fault_recovery.py",
        "host_cpus": host_cpus,
        "dataset": {
            "name": graph.name,
            "vertices": graph.n_vertices,
            "edges": graph.n_edges,
        },
        "methodology": (
            "motifs k=3 census under real injected process faults "
            "(SIGKILL, sleep/SIGSTOP stalls, dropped result messages, "
            "poison chunks); every schedule's canonical-code-keyed "
            "counts asserted equal to the fault-free simulator; the "
            "overhead curve re-runs the same workload at 4 worker "
            "processes with 0..3 gen-0 worker kills and reports "
            "wall-clock relative to the 0-kill run on this host"
        ),
        "chaos_schedules": schedules,
        "overhead_vs_failures": curve,
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    print(headline)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args()
    if args.smoke:
        return run_smoke()
    return run_full(args.out)


if __name__ == "__main__":
    sys.exit(main())
