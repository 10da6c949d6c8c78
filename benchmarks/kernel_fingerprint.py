"""Fingerprint of what each pattern kernel does, kernel pinned on the fractoid.

q1-q8 x {legacy, indexed, decomposed} x {sequential, simulator 1x1,
simulator 2x2, multiprocess 2-proc} x {count, subgraphs} on one unlabeled
and one 2-label graph (there the query vertices alternate labels).  Each
run records the result, ``kernel_info()["order"]``, ``work_units`` and
``Metrics.snapshot()`` minus ``symmetry_cache_hits`` (which depends on
how often a strategy is planned, not on what a kernel does).  A change
that must leave the kernels alone is checked by running this at both
commits and diffing the two files::

    PYTHONPATH=src python benchmarks/kernel_fingerprint.py --out a.json
"""

from __future__ import annotations

import argparse
import hashlib
import json

from repro import ClusterConfig, FractalContext, MultiprocessConfig, Pattern
from repro.apps.queries import QUERY_PATTERNS, query_fractoid
from repro.core.enumerator import PATTERN_KERNELS
from repro.graph import erdos_renyi_graph

ENGINES = {
    "sequential": "sequential",
    "sim1x1": ClusterConfig(workers=1, cores_per_worker=1),
    "sim2x2": ClusterConfig(workers=2, cores_per_worker=2),
    "mp2": MultiprocessConfig(num_procs=2),
}


def _alternating(pattern: Pattern) -> Pattern:
    labels = [v % 2 for v in range(pattern.n_vertices)]
    return Pattern(labels, pattern.edges)


def _listing_digest(subgraphs) -> str:
    rows = sorted((tuple(s.vertices), tuple(s.edges)) for s in subgraphs)
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def fingerprint() -> dict:
    graphs = {
        "unlabeled": (erdos_renyi_graph(40, 260, n_labels=1, seed=5), lambda p: p),
        "2-label": (erdos_renyi_graph(48, 420, n_labels=2, seed=11), _alternating),
    }
    out = {}
    for graph_name, (graph, relabel) in graphs.items():
        fg = FractalContext().from_graph(graph)
        for query, pattern in QUERY_PATTERNS.items():
            pattern = relabel(pattern)
            for kernel in PATTERN_KERNELS:
                for engine_name, engine in ENGINES.items():
                    for collect in ("count", "subgraphs"):
                        report = query_fractoid(fg, pattern, kernel=kernel).execute(
                            collect=collect, engine=engine
                        )
                        metrics = report.metrics.snapshot()
                        metrics.pop("symmetry_cache_hits", None)
                        step = report.steps[-1]
                        key = f"{graph_name}/{query}/{kernel}/{engine_name}/{collect}"
                        out[key] = {
                            "count": report.result_count,
                            "listing": (
                                _listing_digest(report.subgraphs)
                                if collect == "subgraphs"
                                else None
                            ),
                            "order": step.kernel_info["order"],
                            "work_units": sum(s.work_units for s in report.steps),
                            "metrics": metrics,
                        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    runs = fingerprint()
    with open(args.out, "w") as handle:
        json.dump(runs, handle, indent=1, sort_keys=True)
    print(f"{len(runs)} runs -> {args.out}")


if __name__ == "__main__":
    main()
