"""Decomposed counting kernel vs indexed enumeration, measured.

Standalone harness writing ``BENCH_decomposed_counting.json`` at the
repository root (``--quick``: under ``.benchmarks/``):

* **Counting workload** — the q1-q8 subgraph-counting queries on the
  patents stand-in (the Fig 15 workload, sparse) and the denser mico
  stand-in, each run under ``kernel="indexed"`` (pure enumeration) and
  ``"decomposed"`` (the cost-based chooser between enumeration and the
  core-fringe inclusion-exclusion combine,
  :mod:`repro.pattern.decompose`).  Counts are asserted byte-identical
  per query; candidate cost units and wall-clock are recorded for both.
* **Crossover sweep** — the galloping crossover
  (``intersect.GALLOP_CROSSOVER``) swept over {1, 2, 4, 8, 16, 32, 64}
  on the Fig 15 workload; asserts the default (8) prices within 10% of
  the best value (the assertion runs on deterministic candidate units;
  wall-clock per value is reported alongside).
* **Cross-backend equality** — the decomposition-heavy queries run
  under the simulator and multiprocess backends with
  ``kernel="decomposed"``; counts must match the sequential
  enumeration baseline.

The acceptance target is a >= 5x candidate-unit reduction (geometric
mean) over the queries where the chooser picks decomposition.  Queries
where it keeps enumeration (cliques, cycles — fringes of at most one
vertex) are reported with a 1.0x reduction by construction; the
all-query geomean and honest wall-clock ratios appear alongside the
headline so the summary never overstates the win.

The 5x gates the full run only.  It was recorded at 13.7x (mico q3 3.3x,
q7 56.6x) before orbit-multiplicity counting made q7's enumeration side
cheap and the twins-last matching order made q3's; the full run now
reads what ``--quick`` reads, 0.96x (mico q3 0.97x, q7 0.95x: both
picks priced a little above their enumeration), and re-recording it
belongs with the chooser re-calibration ROADMAP.md asks for.  ``--quick`` (the CI job) gates what
a regression would break instead: counts identical everywhere (asserted
as they are measured), and no chooser-picked query priced more than the
chooser's own ``DECOMPOSITION_MARGIN`` above its enumeration.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import ClusterConfig, FractalContext  # noqa: E402
from repro.apps import QUERY_PATTERNS  # noqa: E402
from repro.apps.queries import query_fractoid  # noqa: E402
from repro.core import intersect  # noqa: E402
from repro.harness import bench_mico, bench_patents  # noqa: E402
from repro.pattern.decompose import DECOMPOSITION_MARGIN  # noqa: E402
from repro.runtime.mp_backend import MultiprocessConfig  # noqa: E402

from bench_schema import make_header, result_path  # noqa: E402

CROSSOVER_SWEEP = (1, 2, 4, 8, 16, 32, 64)
CROSSOVER_TOLERANCE = 1.10  # default must price within 10% of the best
TARGET_REDUCTION = 5.0


def run_count(graph, kernel: str, pattern, engine="sequential"):
    """One counting run; returns (count, units, wall_s, decomposition)."""
    context = FractalContext(engine=engine)
    fractoid = query_fractoid(context.from_graph(graph), pattern, kernel=kernel)
    started = time.perf_counter()
    report = fractoid.execute(collect="count")
    wall = time.perf_counter() - started
    summary = report.pattern_kernel_summary()
    return (
        report.result_count,
        summary["candidate_units"],
        wall,
        summary["decomposition"],
    )


def measure(name: str, graph, pattern, reps: int) -> Dict:
    """Interleaved indexed/decomposed reps; verify counts; return a record."""
    wall: Dict[str, List[float]] = {"indexed": [], "decomposed": []}
    units: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    decomposition = None
    for _ in range(reps):
        for kernel in ("indexed", "decomposed"):
            count, u, w, d = run_count(graph, kernel, pattern)
            wall[kernel].append(w)
            units[kernel] = u
            counts[kernel] = count
            if kernel == "decomposed":
                decomposition = d
    if counts["indexed"] != counts["decomposed"]:
        raise AssertionError(
            f"{name}: kernels disagree "
            f"({counts['indexed']} vs {counts['decomposed']} matches)"
        )
    chosen = decomposition is not None and decomposition.get("executed") == "count"
    best = {k: min(wall[k]) for k in wall}
    record = {
        "matches": counts["indexed"],
        "decomposition_chosen": chosen,
        "chooser_reason": None if chosen else decomposition.get("reason"),
        "candidate_units_indexed": round(units["indexed"], 2),
        "candidate_units_decomposed": round(units["decomposed"], 2),
        "unit_reduction": round(units["indexed"] / units["decomposed"], 3)
        if units["decomposed"]
        else None,
        "wall_s_indexed": round(best["indexed"], 4),
        "wall_s_decomposed": round(best["decomposed"], 4),
        "wall_speedup": round(best["indexed"] / best["decomposed"], 3)
        if best["decomposed"]
        else None,
    }
    if chosen:
        plan = decomposition["plan"]
        record["plan"] = {
            "core": plan["core"],
            "fringe": plan["fringe"],
            "n_blocks": plan["n_blocks"],
            "n_terms": plan["n_terms"],
            "automorphisms": plan["automorphisms"],
        }
    print(
        f"  {name:12s} {record['matches']:>8d} matches  "
        f"units {units['indexed']:>11.0f} -> {units['decomposed']:>11.0f} "
        f"({record['unit_reduction']:.2f}x)  "
        f"wall {best['indexed']:.3f}s -> {best['decomposed']:.3f}s "
        f"({record['wall_speedup']:.2f}x)  "
        f"[{'decomposed' if chosen else 'enumeration'}]"
    )
    return record


def crossover_sweep(graph, query_names: Sequence[str], reps: int) -> Dict:
    """Sweep the gallop crossover on the indexed kernel over the workload.

    ``intersect.GALLOP_CROSSOVER`` is an algorithm constant, not an
    option: the sweep sets it here, for this bench only, to check the
    shipped value.  The assertion runs on priced candidate units
    (deterministic); wall seconds per crossover are recorded for the
    honest picture.
    """
    results = {}
    default = intersect.GALLOP_CROSSOVER
    try:
        for crossover in CROSSOVER_SWEEP:
            intersect.GALLOP_CROSSOVER = crossover
            total_units = 0.0
            walls = []
            for _ in range(reps):
                rep_wall = 0.0
                total_units = 0.0
                for name in query_names:
                    _, u, w, _ = run_count(graph, "indexed", QUERY_PATTERNS[name])
                    total_units += u
                    rep_wall += w
                walls.append(rep_wall)
            results[str(crossover)] = {
                "candidate_units": round(total_units, 2),
                "wall_s": round(min(walls), 4),
            }
            print(
                f"  crossover {crossover:>3d}: "
                f"{total_units:>12.0f} units, {min(walls):.3f}s"
            )
    finally:
        intersect.GALLOP_CROSSOVER = default
    best_units = min(r["candidate_units"] for r in results.values())
    default_units = results[str(default)]["candidate_units"]
    within = default_units <= best_units * CROSSOVER_TOLERANCE
    return {
        "values": results,
        "default": default,
        "best_units": best_units,
        "default_units": default_units,
        "tolerance": CROSSOVER_TOLERANCE,
        "default_within_tolerance": bool(within),
    }


def cross_backend(graph, query_names: Sequence[str]) -> Dict:
    """Decomposed counts across simulator and multiprocess backends."""
    results = {}
    for name in query_names:
        pattern = QUERY_PATTERNS[name]
        baseline, _, _, _ = run_count(graph, "indexed", pattern)
        sim, _, _, _ = run_count(
            graph,
            "decomposed",
            pattern,
            engine=ClusterConfig(workers=2, cores_per_worker=2),
        )
        mp, _, _, _ = run_count(
            graph, "decomposed", pattern, engine=MultiprocessConfig(num_procs=2)
        )
        if not (baseline == sim == mp):
            raise AssertionError(
                f"{name}: backends disagree "
                f"(sequential {baseline}, simulator {sim}, mp {mp})"
            )
        results[name] = {"matches": baseline, "backends_agree": True}
        print(f"  {name:4s} {baseline:>8d} matches on all three backends")
    return results


def geomean(values: Sequence[float]) -> Optional[float]:
    values = [v for v in values if v and v > 0]
    if not values:
        return None
    return math.exp(sum(math.log(v) for v in values) / len(values))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="single repetition, q1/q3/q7 only (CI smoke)",
    )
    parser.add_argument("--reps", type=int, default=None, help="repetitions")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    reps = args.reps if args.reps is not None else (1 if args.quick else 3)
    if reps < 1:
        parser.error("--reps must be >= 1")

    query_names = ["q1", "q3", "q7"] if args.quick else sorted(QUERY_PATTERNS)
    workloads = {}
    for graph_name, graph in (
        ("patents", bench_patents(labeled=False)),
        ("mico", bench_mico(labeled=False)),
    ):
        print(
            f"counting workload on {graph.name} "
            f"({graph.n_vertices} vertices, {graph.n_edges} edges), "
            f"{reps} rep(s) per kernel:"
        )
        workloads[graph_name] = {
            name: measure(name, graph, QUERY_PATTERNS[name], reps)
            for name in query_names
        }

    print("galloping crossover sweep (indexed kernel, patents workload):")
    sweep = crossover_sweep(
        bench_patents(labeled=False),
        query_names if args.quick else ["q1", "q2", "q3", "q6", "q7"],
        reps,
    )
    if not sweep["default_within_tolerance"]:
        print(
            f"FAIL: default crossover {sweep['default']} prices "
            f"{sweep['default_units']:.0f} units, more than "
            f"{CROSSOVER_TOLERANCE:.2f}x the best {sweep['best_units']:.0f}"
        )
        return 1

    print("cross-backend equality (mico, decomposed kernel):")
    backends = cross_backend(bench_mico(labeled=False), ["q3", "q7"])

    all_records = [
        r for per_graph in workloads.values() for r in per_graph.values()
    ]
    chosen_records = [r for r in all_records if r["decomposition_chosen"]]
    chosen_reduction = geomean([r["unit_reduction"] for r in chosen_records])
    all_reduction = geomean([r["unit_reduction"] for r in all_records])
    chosen_wall = geomean([r["wall_speedup"] for r in chosen_records])
    # Picks metered further above the enumeration they replaced than the
    # margin the chooser demanded of its own estimate.
    overpriced = [
        f"{graph_name}/{name}"
        for graph_name, per_graph in workloads.items()
        for name, r in per_graph.items()
        if r["decomposition_chosen"]
        and r["candidate_units_decomposed"]
        > r["candidate_units_indexed"] * DECOMPOSITION_MARGIN
    ]
    if args.quick:
        met = not overpriced
        target = (
            f"quick gate: no pick priced over {DECOMPOSITION_MARGIN}x "
            "its enumeration"
        )
    else:
        met = bool(chosen_reduction and chosen_reduction >= TARGET_REDUCTION)
        target = f"target {TARGET_REDUCTION:.0f}x"

    payload = {
        **make_header(
            "decomposed_counting",
            {
                "mode": "quick" if args.quick else "full",
                "reps": reps,
                "workload": "fig15_counting_queries",
            },
            (
                f"decomposition cuts candidate cost "
                f"{chosen_reduction:.2f}x (geomean over "
                f"{len(chosen_records)} chooser-picked queries, {target}, "
                f"{'met' if met else 'NOT met'}); "
                f"wall {chosen_wall:.2f}x on those, counts identical "
                f"everywhere"
                if chosen_reduction
                else "chooser picked enumeration on every query"
            ),
        ),
        "generated_by": "benchmarks/bench_decomposed_counting.py",
        "mode": "quick" if args.quick else "full",
        "reps": reps,
        "methodology": (
            "each query runs on the sequential engine under the indexed "
            "(pure enumeration) and decomposed (cost-based chooser) "
            "kernels, repetitions interleaved; candidate units = "
            "CostModel.candidate_units including the decomposition "
            "counters at their model weights; wall-clock is the best rep "
            "per side; counts asserted identical per query and across "
            "backends; unit_reduction is 1.0x by construction where the "
            "chooser keeps enumeration"
        ),
        "workloads": workloads,
        "crossover_sweep": sweep,
        "cross_backend": backends,
        "target": {
            "metric": (
                "candidate cost units, geometric mean over "
                "decomposition-chosen queries"
            ),
            "required_reduction": None if args.quick else TARGET_REDUCTION,
            "overpriced_picks": overpriced,
            "chosen_queries": len(chosen_records),
            "achieved_reduction": round(chosen_reduction, 3)
            if chosen_reduction
            else None,
            "all_query_reduction": round(all_reduction, 3)
            if all_reduction
            else None,
            "chosen_wall_speedup": round(chosen_wall, 3)
            if chosen_wall
            else None,
            "met": met,
        },
    }
    out = args.out or result_path("decomposed_counting", args.quick)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    if not met:
        print(
            f"FAIL ({target}): chosen-query unit reduction "
            f"{chosen_reduction}, overpriced picks {overpriced}"
        )
        return 1
    if chosen_reduction is None:
        print("chooser picked enumeration on every query")
        return 0
    print(
        f"chosen-query unit reduction {chosen_reduction:.2f}x ({target}), "
        f"all-query {all_reduction:.2f}x, wall {chosen_wall:.2f}x on chosen"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
