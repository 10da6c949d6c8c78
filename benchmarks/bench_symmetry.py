"""Symmetry-breaking + orbit-multiplicity counting, measured.

Standalone harness writing ``BENCH_symmetry.json`` at the repository
root:

* **Motif census A/B** (the headline) — the Fig 11 motif-counting
  workload (every connected pattern on k=3 and k=4 vertices) on the
  patents and mico stand-ins, counted per pattern twice: the *baseline*
  uses the classic heuristic restriction sets with orbit counting off
  on the indexed kernel (the pre-optimizer behaviour), the *optimized*
  side uses the anchor-search minimal sets, orbit-multiplicity bulk
  counting, and the decomposed kernel.  The compared quantity is
  *enumerated embeddings* (walked subgraph-tree nodes plus decomposed
  core embeddings); counts are asserted identical per pattern.
* **Restriction set sizes** — the optimizer's minimal sets must never
  be larger than the heuristic sets, over the census patterns and the
  q1-q8 query patterns.
* **Cross-backend census equality** — the per-pattern induced census
  (:func:`repro.apps.motif_census_by_pattern`) must be byte-identical
  across the sequential, simulator, and multiprocess backends, and
  equal to the seed aggregation-based ``motifs()`` census after label
  erasure.

The acceptance target is a >= 2x geometric-mean reduction in
enumerated embeddings over the census patterns.  Cliques gain nothing
from orbit counting (their minimal chains already collapse the tree to
one representative) and are reported at ~1x; stars and paths carry the
win.  Exits non-zero when any target is unmet.
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
from repro.apps import (  # noqa: E402
    QUERY_PATTERNS,
    motif_census_by_pattern,
    motif_counts_ignoring_labels,
    motifs,
    query_fractoid,
)
from repro.core.enumerator import set_orbit_counting  # noqa: E402
from repro.harness import bench_mico, bench_patents  # noqa: E402
from repro.pattern import (  # noqa: E402
    all_connected_patterns,
    heuristic_symmetry_breaking_conditions,
    minimal_restriction_set,
    set_symmetry_construction,
)
from repro.runtime.mp_backend import MultiprocessConfig  # noqa: E402

from bench_schema import make_header  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "BENCH_symmetry.json"
TARGET_REDUCTION = 2.0


def run_count(graph, pattern, kernel: str):
    """One sequential counting run; returns (count, enumerated, wall_s)."""
    fractoid = query_fractoid(
        FractalContext().from_graph(graph), pattern, kernel=kernel
    )
    started = time.perf_counter()
    report = fractoid.execute(collect="count")
    wall = time.perf_counter() - started
    m = report.metrics
    enumerated = m.subgraphs_enumerated + m.decomp_core_embeddings
    return report.result_count, enumerated, wall


def measure_pattern(name: str, graph, pattern, reps: int) -> Dict:
    """Baseline (heuristic sets, no orbit counting, indexed) vs
    optimized (minimal sets, orbit counting, decomposed)."""
    walls = {"baseline": [], "optimized": []}
    enumerated = {}
    counts = {}
    for _ in range(reps):
        previous_mode = set_symmetry_construction("heuristic")
        previous_orbit = set_orbit_counting(False)
        try:
            count, enum, wall = run_count(graph, pattern, "indexed")
        finally:
            set_orbit_counting(previous_orbit)
            set_symmetry_construction(previous_mode)
        counts["baseline"], enumerated["baseline"] = count, enum
        walls["baseline"].append(wall)

        count, enum, wall = run_count(graph, pattern, "decomposed")
        counts["optimized"], enumerated["optimized"] = count, enum
        walls["optimized"].append(wall)
    if counts["baseline"] != counts["optimized"]:
        raise AssertionError(
            f"{name}: counts disagree (baseline {counts['baseline']}, "
            f"optimized {counts['optimized']})"
        )
    reduction = (
        enumerated["baseline"] / enumerated["optimized"]
        if enumerated["optimized"]
        else None
    )
    record = {
        "matches": counts["baseline"],
        "enumerated_baseline": enumerated["baseline"],
        "enumerated_optimized": enumerated["optimized"],
        "reduction": round(reduction, 3) if reduction else None,
        "wall_s_baseline": round(min(walls["baseline"]), 4),
        "wall_s_optimized": round(min(walls["optimized"]), 4),
    }
    print(
        f"  {name:16s} {record['matches']:>9d} matches  "
        f"enumerated {enumerated['baseline']:>9d} -> "
        f"{enumerated['optimized']:>9d} "
        f"({reduction:.2f}x)" if reduction else f"  {name:16s} trivial"
    )
    return record


def restriction_sizes(patterns: Dict[str, object]) -> Dict:
    """Minimal vs heuristic restriction-set sizes; minimal must win."""
    sizes = {}
    violations = []
    for name, pattern in patterns.items():
        plan = minimal_restriction_set(pattern)
        heuristic = len(heuristic_symmetry_breaking_conditions(pattern))
        sizes[name] = {
            "minimal": len(plan.conditions),
            "heuristic": heuristic,
            "group_order": plan.group_order,
        }
        if len(plan.conditions) > heuristic:
            violations.append(name)
        print(
            f"  {name:16s} minimal {len(plan.conditions)} vs heuristic "
            f"{heuristic} (|Aut| {plan.group_order})"
        )
    if violations:
        raise AssertionError(
            f"minimal sets larger than heuristic for: {violations}"
        )
    return sizes


def census_key(census) -> Dict[str, int]:
    return {p.canonical_code(): c for p, c in census.items() if c}


def cross_backend_census(graph, k: int) -> Dict:
    """Per-pattern census equality across all three backends + seed."""
    fc = FractalContext(engine="sequential")
    fg = fc.from_graph(graph)
    seed = census_key(motif_counts_ignoring_labels(motifs(fg, k)))
    results = {}
    for backend_name, engine in (
        ("sequential", "sequential"),
        ("simulator", ClusterConfig(workers=2, cores_per_worker=2)),
        ("multiprocess", MultiprocessConfig(num_procs=2)),
    ):
        census = census_key(
            motif_census_by_pattern(fg, k, engine=engine, kernel="decomposed")
        )
        if census != seed:
            raise AssertionError(
                f"k={k} census on {backend_name} differs from seed "
                f"motifs(): {census} vs {seed}"
            )
        results[backend_name] = True
    print(
        f"  k={k}: {len(seed)} pattern classes byte-identical on "
        f"sequential/simulator/multiprocess and == seed motifs()"
    )
    return {"classes": len(seed), "backends_agree": True}


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
        help="single rep, patents only, k=3 census cross-backend (CI smoke)",
    )
    parser.add_argument("--reps", type=int, default=None, help="repetitions")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    reps = args.reps if args.reps is not None else (1 if args.quick else 3)
    if reps < 1:
        parser.error("--reps must be >= 1")

    ks = (3, 4)
    graphs = [("patents", bench_patents(labeled=False))]
    if not args.quick:
        graphs.append(("mico", bench_mico(labeled=False)))

    workloads: Dict[str, Dict] = {}
    for graph_name, graph in graphs:
        print(
            f"motif census A/B on {graph.name} "
            f"({graph.n_vertices} vertices, {graph.n_edges} edges), "
            f"{reps} rep(s) per side:"
        )
        records = {}
        for k in ks:
            for index, pattern in enumerate(all_connected_patterns(k)):
                name = f"k{k}_p{index}_{pattern.n_edges}e"
                records[name] = measure_pattern(name, graph, pattern, reps)
        workloads[graph_name] = records

    print("restriction set sizes (census + q1-q8):")
    size_patterns = dict(QUERY_PATTERNS)
    for k in ks:
        for index, pattern in enumerate(all_connected_patterns(k)):
            size_patterns[f"k{k}_p{index}"] = pattern
    sizes = restriction_sizes(size_patterns)

    print("cross-backend census equality (patents):")
    census_graph = bench_patents(labeled=False)
    backends = {
        f"k{k}": cross_backend_census(census_graph, k)
        for k in ((3,) if args.quick else ks)
    }

    all_records = [
        r for per_graph in workloads.values() for r in per_graph.values()
    ]
    reduction = geomean([r["reduction"] for r in all_records])
    met = bool(reduction and reduction >= TARGET_REDUCTION)

    payload = {
        **make_header(
            "symmetry",
            {
                "mode": "quick" if args.quick else "full",
                "reps": reps,
                "workload": "fig11_motif_census_k3_k4",
            },
            (
                f"minimal restriction sets + orbit counting cut enumerated "
                f"embeddings {reduction:.2f}x (geomean over "
                f"{len(all_records)} census patterns, target "
                f"{TARGET_REDUCTION:.0f}x, {'met' if met else 'NOT met'}); "
                f"census byte-identical on all three backends"
            ),
        ),
        "generated_by": "benchmarks/bench_symmetry.py",
        "methodology": (
            "per census pattern, baseline = heuristic restriction sets + "
            "orbit counting off + indexed kernel; optimized = anchor-search "
            "minimal sets + orbit-multiplicity bulk counting + decomposed "
            "kernel; enumerated embeddings = subgraphs_enumerated + "
            "decomp_core_embeddings; counts asserted identical per pattern; "
            "induced census via per-pattern counting + Möbius transform "
            "asserted equal to the aggregation-based motifs() census on "
            "every backend"
        ),
        "workloads": workloads,
        "restriction_sizes": sizes,
        "cross_backend_census": backends,
        "target": {
            "metric": "enumerated embeddings, geometric mean over census patterns",
            "required_reduction": TARGET_REDUCTION,
            "achieved_reduction": round(reduction, 3) if reduction else None,
            "met": met,
        },
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    if not met:
        print(
            f"FAIL: enumerated-embedding reduction {reduction} < "
            f"{TARGET_REDUCTION}x target"
        )
        return 1
    print(
        f"enumerated-embedding reduction {reduction:.2f}x "
        f"(target {TARGET_REDUCTION:.0f}x) over {len(all_records)} patterns"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
