"""Perf-regression harness for the hot-path enumeration kernels.

Measures the optimized enumeration core against a faithful in-process
reconstruction of the pre-PR (seed) hot path and writes the results to
``BENCH_perf_kernels.json`` at the repository root.

Why reconstruct the baseline instead of comparing against recorded
wall-clock numbers?  Shared machines drift: the same motifs workload has
been observed anywhere between 0.39s and 0.64s minutes apart.  Comparing
two implementations *in the same process with interleaved repetitions*
cancels that noise; the frozen pre-PR wall-clock numbers are still
embedded (with provenance) so absolute drift is visible too.

The legacy classes below are line-faithful copies of the seed
implementations (commit a1bb194) of every component this PR optimized:

* ``LegacyVertexStrategy`` / ``LegacyEdgeStrategy`` — from-scratch
  extension computation (full adjacency rescan per call, no incremental
  candidate maintenance);
* ``LegacySubgraph`` — quotient via per-edge accessor calls and per-vertex
  label lookups, rebuilt for every pattern request;
* ``LegacyInterner`` — a quotient-keyed cache with full ``Pattern``
  construction (with eager adjacency, as the seed ``Pattern.__init__``
  built it) per cache miss;
* ``legacy_run_step_sequential`` — the seed DFS executor without the leaf
  aggregation specialization or batched counters;
* the unmemoized minimum-DFS-code search (``_minimum_dfs_code_search``),
  installed in place of the rank-compressed memoizing front-end.

Both sides produce identical results; the harness asserts it.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_kernels.py [--quick]
        [--reps N] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core.context import FractalContext
from repro.core.enumerator import EdgeInducedStrategy, ExtensionStrategy, VertexInducedStrategy
from repro.core.primitives import Aggregate, AggregationFilter, Expand, Filter
from repro.core.subgraph import Subgraph
from repro.graph.datasets import mico_like
from repro.pattern import dfscode
from repro.pattern.pattern import Pattern, PatternInterner

from bench_schema import make_header
from repro.runtime import backend as backend_module
from repro.runtime.engine import new_storages

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_perf_kernels.json"

# Pre-PR wall-clock measurements (best of 3) taken at the seed commit
# a1bb194 on a quiet machine, for provenance.  The pass/fail comparison
# below does NOT use these: machine noise makes cross-process wall-clock
# comparisons unreliable, so the harness re-times a faithful in-process
# reconstruction of the seed hot path instead.
PREPR_WALLCLOCK = {
    "provenance": "best of 3, measured at commit a1bb194 (pre-PR seed)",
    "motifs_k3_mico_seconds": 0.7614,
    "cliques_k4_mico_seconds": 0.4337,
    "vertex_extension_kernel_seconds": 0.0185,
    "edge_extension_kernel_seconds": 0.1385,
}


# ----------------------------------------------------------------------
# Faithful reconstructions of the seed (pre-PR) hot path
# ----------------------------------------------------------------------
class LegacySubgraph(Subgraph):
    """Seed subgraph: quotient via per-edge accessor calls."""

    def vertex_labels(self):
        label = self.graph.vertex_label
        return tuple(label(v) for v in self.vertices)

    def quotient(self):
        graph = self.graph
        index = self.vertices.index
        edge = graph.edge
        edge_label = graph.edge_label
        qedges = []
        for eid in self.edges:
            u, v = edge(eid)
            pu, pv = index(u), index(v)
            if pu > pv:
                pu, pv = pv, pu
            qedges.append((pu, pv, edge_label(eid)))
        qedges.sort()
        return self.vertex_labels(), tuple(qedges)

    def pattern_with_positions(self):
        # The seed canonicalized every request from its whole quotient.
        return self.interner.intern(*self.quotient())


class LegacyVertexStrategy(ExtensionStrategy):
    """Seed vertex-induced strategy: from-scratch extensions every call."""

    mode = "vertex"

    def make_subgraph(self):
        return LegacySubgraph(self.graph, self.interner)

    def extensions(self, subgraph):
        words = subgraph.vertices
        graph = self.graph
        if not words:
            return list(graph.vertices())
        k = len(words)
        suffmax = [0] * (k + 1)
        suffmax[k] = -1
        for i in range(k - 1, -1, -1):
            word = words[i]
            suffmax[i] = word if word > suffmax[i + 1] else suffmax[i + 1]
        first = words[0]
        in_subgraph = subgraph.vertex_set
        first_pos = {}
        tests = 0
        for i, w in enumerate(words):
            for u, _ in graph.neighborhood(w):
                tests += 1
                if u not in in_subgraph and u not in first_pos:
                    first_pos[u] = i
        self.metrics.extension_tests += tests
        result = [
            u for u, pos in first_pos.items() if u > first and u > suffmax[pos + 1]
        ]
        result.sort()
        self.metrics.extensions_generated += len(result)
        return result

    def push(self, subgraph, word):
        graph = self.graph
        in_subgraph = subgraph.vertex_set
        incident = [eid for u, eid in graph.neighborhood(word) if u in in_subgraph]
        self.metrics.adjacency_scans += graph.degree(word)
        subgraph.push_vertex(word, incident)


class LegacyEdgeStrategy(ExtensionStrategy):
    """Seed edge-induced strategy: from-scratch extensions every call."""

    mode = "edge"

    def make_subgraph(self):
        return LegacySubgraph(self.graph, self.interner)

    def extensions(self, subgraph):
        words = subgraph.edges
        graph = self.graph
        if not words:
            return list(graph.edges())
        k = len(words)
        suffmax = [0] * (k + 1)
        suffmax[k] = -1
        for i in range(k - 1, -1, -1):
            word = words[i]
            suffmax[i] = word if word > suffmax[i + 1] else suffmax[i + 1]
        first = words[0]
        in_subgraph = subgraph.edge_set
        first_pos = {}
        tests = 0
        for i, e in enumerate(words):
            for endpoint in graph.edge(e):
                for _, eid in graph.neighborhood(endpoint):
                    tests += 1
                    if eid not in in_subgraph and eid not in first_pos:
                        first_pos[eid] = i
        self.metrics.extension_tests += tests
        result = [
            e for e, pos in first_pos.items() if e > first and e > suffmax[pos + 1]
        ]
        result.sort()
        self.metrics.extensions_generated += len(result)
        return result

    def push(self, subgraph, word):
        subgraph.push_edge(word)


class LegacyInterner(PatternInterner):
    """Seed interner: full Pattern construction per miss, eager adjacency."""

    def __init__(self):
        super().__init__()
        self._cache = {}
        self._by_code = {}

    def intern(self, vertex_labels, edges):
        key = (vertex_labels, edges)
        hit = self._cache.get(key)
        if hit is not None:
            self.hits += 1
            return hit
        self.misses += 1
        pattern = Pattern(vertex_labels, edges)
        _ = pattern.adjacency  # the seed __init__ built _adj eagerly
        code = pattern.canonical_code()
        mapping = pattern.canonical_vertex_map()
        shared = self._by_code.setdefault(code, pattern)
        result = (shared, mapping)
        self._cache[key] = result
        return result


def legacy_run_step_sequential(
    strategy,
    primitives,
    computation,
    cached_uids,
    sink=None,
    root_words=None,
):
    """The seed DFS step executor, verbatim."""
    subgraph = strategy.make_subgraph()
    strategy.reset_state()
    storages = new_storages(primitives, cached_uids)
    metrics = computation.metrics
    views = computation.aggregation_views
    n = len(primitives)

    def process(idx):
        while idx < n:
            primitive = primitives[idx]
            kind = type(primitive)
            if kind is Expand:
                if subgraph.depth == 0 and root_words is not None:
                    extensions = root_words
                else:
                    extensions = strategy.extensions(subgraph)
                next_idx = idx + 1
                for word in extensions:
                    strategy.push(subgraph, word)
                    metrics.subgraphs_enumerated += 1
                    process(next_idx)
                    strategy.pop(subgraph)
                return
            if kind is Filter:
                metrics.filter_calls += 1
                if not primitive.fn(subgraph, computation):
                    return
                metrics.filter_passed += 1
            elif kind is AggregationFilter:
                metrics.filter_calls += 1
                view = views[primitive.source_uid]
                if not primitive.fn(subgraph, view):
                    return
                metrics.filter_passed += 1
            else:  # Aggregate
                storage = storages.get(primitive.uid)
                if storage is not None:
                    key = primitive.key_fn(subgraph, computation)
                    value = primitive.value_fn(subgraph, computation)
                    storage.add(key, value)
                    metrics.aggregate_updates += 1
            idx += 1
        if sink is not None:
            sink(subgraph)
            metrics.results_emitted += 1

    process(0)
    for storage in storages.values():
        if len(storage) > metrics.peak_aggregation_entries:
            metrics.peak_aggregation_entries = len(storage)
    return storages


class _seed_hot_path:
    """Context manager swapping the optimized hot path for the seed one.

    Installs the seed DFS executor and the unmemoized minimum-DFS-code
    search; the strategies/subgraph/interner are selected per-run by the
    workload functions.
    """

    def __enter__(self):
        # The sequential executor is invoked through the backend seam
        # (SequentialBackend.run_step), so that module's namespace is
        # where the swap must land.
        self._engine = backend_module.run_step_sequential
        self._dfs = dfscode.minimum_dfs_code
        backend_module.run_step_sequential = legacy_run_step_sequential
        dfscode.minimum_dfs_code = dfscode._minimum_dfs_code_search
        return self

    def __exit__(self, *exc):
        backend_module.run_step_sequential = self._engine
        dfscode.minimum_dfs_code = self._dfs
        return False


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _motifs_fractoid(graph, k, strategy_factory=None):
    ctx = FractalContext()
    if strategy_factory is LegacyVertexStrategy:
        ctx.interner = LegacyInterner()
    return (
        ctx.from_graph(graph)
        .vfractoid(custom_strategy=strategy_factory)
        .expand(k)
        .aggregate(
            "motifs",
            key_fn=lambda subgraph, computation: subgraph.pattern(),
            value_fn=lambda subgraph, computation: 1,
            reduce_fn=lambda a, b: a + b,
        )
    )


def run_motifs(graph, k, legacy):
    """End-to-end motif census; returns (seconds, canonical result)."""
    dfscode.clear_code_cache()
    if legacy:
        with _seed_hot_path():
            fr = _motifs_fractoid(graph, k, LegacyVertexStrategy)
            t0 = time.perf_counter()
            counts = fr.aggregation("motifs")
            elapsed = time.perf_counter() - t0
    else:
        fr = _motifs_fractoid(graph, k)
        t0 = time.perf_counter()
        counts = fr.aggregation("motifs")
        elapsed = time.perf_counter() - t0
    canonical = sorted((str(p.canonical_code()), c) for p, c in counts.items())
    return elapsed, canonical


def _cliques_fractoid(graph, k, strategy_factory=None):
    from repro.apps.cliques import clique_filter

    ctx = FractalContext()
    if strategy_factory is LegacyVertexStrategy:
        ctx.interner = LegacyInterner()
    return (
        ctx.from_graph(graph)
        .vfractoid(custom_strategy=strategy_factory)
        .expand(1)
        .filter(clique_filter)
        .explore(k)
    )


def run_cliques(graph, k, legacy):
    """End-to-end clique count; returns (seconds, count)."""
    dfscode.clear_code_cache()
    if legacy:
        with _seed_hot_path():
            fr = _cliques_fractoid(graph, k, LegacyVertexStrategy)
            t0 = time.perf_counter()
            count = fr.count()
            elapsed = time.perf_counter() - t0
    else:
        fr = _cliques_fractoid(graph, k)
        t0 = time.perf_counter()
        count = fr.count()
        elapsed = time.perf_counter() - t0
    return elapsed, count


def _kernel(strategy, roots):
    """Depth-2 extension kernel: push root, extend every child once."""
    from repro.runtime.metrics import Metrics  # noqa: F401  (strategy owns one)

    subgraph = strategy.make_subgraph()
    strategy.reset_state()
    total = 0
    for root in roots:
        strategy.push(subgraph, root)
        for word in strategy.extensions(subgraph):
            strategy.push(subgraph, word)
            total += len(strategy.extensions(subgraph))
            strategy.pop(subgraph)
        strategy.pop(subgraph)
    return total


def run_kernel(graph, mode, roots, legacy):
    """Micro-kernel over the extension strategies; returns (seconds, total)."""
    from repro.runtime.metrics import Metrics

    if mode == "vertex":
        cls = LegacyVertexStrategy if legacy else VertexInducedStrategy
    else:
        cls = LegacyEdgeStrategy if legacy else EdgeInducedStrategy
    strategy = cls(graph, Metrics(), PatternInterner())
    t0 = time.perf_counter()
    total = _kernel(strategy, roots)
    elapsed = time.perf_counter() - t0
    return elapsed, total


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def measure(name, fn, reps):
    """Interleave baseline/current reps; verify results; return a record."""
    baseline_s: List[float] = []
    current_s: List[float] = []
    baseline_result = current_result = None
    for _ in range(reps):
        t, r = fn(legacy=True)
        baseline_s.append(t)
        baseline_result = r
        t, r = fn(legacy=False)
        current_s.append(t)
        current_result = r
    if baseline_result != current_result:
        raise AssertionError(
            f"{name}: optimized result differs from seed reconstruction"
        )
    best_base = min(baseline_s)
    best_cur = min(current_s)
    record = {
        "baseline_s": [round(t, 4) for t in baseline_s],
        "current_s": [round(t, 4) for t in current_s],
        "baseline_best_s": round(best_base, 4),
        "current_best_s": round(best_cur, 4),
        "speedup_best": round(best_base / best_cur, 3),
        "speedup_median": round(
            statistics.median(baseline_s) / statistics.median(current_s), 3
        ),
        "results_equal": True,
    }
    print(
        f"  {name:26s} baseline {best_base:.4f}s  current {best_cur:.4f}s  "
        f"speedup {record['speedup_best']:.2f}x (median {record['speedup_median']:.2f}x)"
    )
    return record


def check_view_caching(graph) -> None:
    """Regression guard: accessor views must be cached immutable tuples.

    ``neighbors()`` / ``neighborhood()`` / ``incident_edges()`` sit on the
    hot path of every extension kernel; rebuilding a fresh list per call
    silently costs an O(degree) copy each time.  Identity (``is``) catches
    that regression; tuple-ness catches a return to mutable lists.
    """
    for v in range(min(8, graph.n_vertices)):
        for accessor in (graph.neighbors, graph.neighborhood, graph.incident_edges):
            first = accessor(v)
            assert accessor(v) is first, f"{accessor.__name__} rebuilds its view"
            assert isinstance(first, tuple), f"{accessor.__name__} not a tuple"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="single repetition (CI smoke)"
    )
    parser.add_argument("--reps", type=int, default=None, help="repetitions")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    reps = args.reps if args.reps is not None else (1 if args.quick else 5)
    if reps < 1:
        parser.error("--reps must be >= 1")

    graph = mico_like()
    print(f"dataset mico_like: {graph.n_vertices} vertices, {graph.n_edges} edges")
    print(f"reps per side: {reps} (interleaved)")
    check_view_caching(graph)
    print("view-caching guard: accessors return cached tuples")

    workloads: Dict[str, dict] = {}
    workloads["motifs_k3"] = measure(
        "motifs k=3 (end-to-end)", lambda legacy: run_motifs(graph, 3, legacy), reps
    )
    workloads["cliques_k4"] = measure(
        "cliques k=4 (end-to-end)", lambda legacy: run_cliques(graph, 4, legacy), reps
    )
    vroots = [v for v in range(min(60, graph.n_vertices))]
    workloads["vertex_extension_kernel"] = measure(
        "vertex extension kernel",
        lambda legacy: run_kernel(graph, "vertex", vroots, legacy),
        reps,
    )
    eroots = [e for e in range(min(40, graph.n_edges))]
    workloads["edge_extension_kernel"] = measure(
        "edge extension kernel",
        lambda legacy: run_kernel(graph, "edge", eroots, legacy),
        reps,
    )

    achieved = workloads["motifs_k3"]["speedup_best"]
    payload = {
        **make_header(
            "perf_kernels",
            {"mode": "quick" if args.quick else "full", "reps": reps,
             "workload": "motifs_k3"},
            f"motifs k=3 hot-path kernels {achieved:.2f}x over seed "
            f"(target 2.0x, {'met' if achieved >= 2.0 else 'MISSED'})",
        ),
        "generated_by": "benchmarks/bench_perf_kernels.py",
        "mode": "quick" if args.quick else "full",
        "reps": reps,
        "dataset": "mico_like",
        "methodology": (
            "baseline = faithful in-process reconstruction of the pre-PR "
            "(commit a1bb194) hot path: from-scratch extension strategies, "
            "accessor-based quotient, full Pattern construction per intern "
            "miss, unmemoized DFS-code search, seed DFS executor; "
            "repetitions interleaved baseline/current to cancel machine "
            "drift; DFS-code cache cleared before every repetition"
        ),
        "prepr_wallclock": PREPR_WALLCLOCK,
        "view_caching_guard": "passed",
        "workloads": workloads,
        "target": {
            "workload": "motifs_k3",
            "required_speedup": 2.0,
            "achieved_speedup": achieved,
            "met": achieved >= 2.0,
        },
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    if not args.quick and achieved < 2.0:
        print(f"FAIL: motifs k=3 speedup {achieved:.2f}x < 2.0x target")
        return 1
    print(f"motifs k=3 speedup {achieved:.2f}x (target 2.0x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
