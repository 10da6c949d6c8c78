"""The six fixed workloads: inputs, call sequences and why each is here.

A workload is a set of generated graph files plus a fixed sequence of
public app calls (*operations*).  One repetition runs the sequence on a
fresh ``FractalContext`` over the already-loaded graphs.

Inputs and the seed.  Every graph is the generator's default-seed graph,
relabeled: ``--seed`` draws a vertex permutation and an edge order, so
each seed is a different file with the same structure.  Generator seeds
were measured first and move the amount of work itself (``sim_s`` by 6%,
``wall_s`` by 19% between quartiles on ``motifs-ml-seq``), more than any
regression bound; a relabeling moves only layout-dependent work (a few
percent), and every result is invariant under it, so the recorded golden
digests hold for every seed.  The program under test only ever receives
the written edge-list file.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import ClusterConfig, FractalContext, MultiprocessConfig
from repro.apps import (
    QUERY_PATTERNS,
    count_query_matches,
    fsm,
    motifs,
    query_fractoid,
)
from repro.graph import datasets
from repro.graph.graph import Graph, GraphBuilder
from repro.graph.io import save_edge_list

NUM_PROCS = 2
SMOKE_FACTOR = 0.1


@dataclass(frozen=True)
class GraphSpec:
    """One input graph: a dataset stand-in at a scale."""

    key: str
    generator: str
    scale: float
    labeled: Optional[bool] = None
    # Smallest scale the generator accepts with a non-trivial result
    # (its preferential attachment needs more vertices than ``attach``).
    min_scale: float = 0.0

    def base_graph(self, smoke: bool = False) -> Graph:
        scale = self.scale
        if smoke:
            scale = max(round(scale * SMOKE_FACTOR, 4), self.min_scale)
        kwargs = {} if self.labeled is None else {"labeled": self.labeled}
        return getattr(datasets, self.generator)(scale=scale, **kwargs)


@dataclass(frozen=True)
class Op:
    """One public app call; ``kind`` selects the call and its digest."""

    name: str
    kind: str  # "motifs" | "count" | "list" | "fsm"
    graph: str
    query: Optional[str] = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    engine: str  # "sequential" | "mp" | "sim"
    graphs: Tuple[GraphSpec, ...]
    ops: Tuple[Op, ...]


_MICO_ML = GraphSpec("mico-ml", "mico_like", 0.5, labeled=True, min_scale=0.15)
_MICO_SL = GraphSpec("mico-sl", "mico_like", 1.1, labeled=False, min_scale=0.15)
_ORKUT_SMALL = GraphSpec("orkut-small", "orkut_like", 0.09, min_scale=0.024)
_ORKUT_LARGE = GraphSpec("orkut-large", "orkut_like", 1.5, min_scale=0.03)
_ORKUT_LIST = GraphSpec("orkut-list", "orkut_like", 0.9, min_scale=0.024)
_PATENTS = GraphSpec("patents", "patents_like", 1.3, labeled=True, min_scale=0.05)

_HEAVY_QUERIES = ("q2", "q6", "q8")  # sparse shapes: run on the small graph

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "motifs-ml-seq",
        "vertex-induced DFS walk with ~5e4 distinct labeled patterns: core "
        "enumerator, pattern canonicalization/interning and aggregation do "
        "the work; kernels, scheduler and processes do none",
        "sequential",
        (_MICO_ML,),
        (Op("motifs", "motifs", "mico-ml"),),
    ),
    Workload(
        "motifs-ml-mp2",
        "same input and call on 2 worker processes: every chunk ships tens "
        "of thousands of aggregation entries, so pickling and driver merge "
        "dominate the overhead",
        "mp",
        (_MICO_ML,),
        (Op("motifs", "motifs", "mico-ml"),),
    ),
    Workload(
        "motifs-sl-mp2",
        "single-label twin: ~7e5 subgraphs but 6 aggregation keys, so "
        "shipping and merge vanish and fork, shm attach, lease hand-out "
        "and idle tails remain",
        "mp",
        (_MICO_SL,),
        (Op("motifs", "motifs", "mico-sl"),),
    ),
    Workload(
        "query-count",
        "q1-q8 counted with kernel='decomposed' pinned: planning, "
        "core.intersect, the label-partitioned index and orbit-tail bulk "
        "counting; never canonicalizes or aggregates",
        "sequential",
        (_ORKUT_SMALL, _ORKUT_LARGE),
        tuple(
            Op(q, "count",
               "orkut-small" if q in _HEAVY_QUERIES else "orkut-large", q)
            for q in ("q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8")
        ),
    ),
    Workload(
        "query-list",
        "q1-q4 listed with kernel='indexed': the same kernels with no bulk "
        "counting, every embedding walked and frozen; the memory-heavy "
        "workload for peak_rss_mb",
        "sequential",
        (_ORKUT_LIST,),
        tuple(Op(q, "list", "orkut-list", q) for q in ("q1", "q2", "q3", "q4")),
    ),
    Workload(
        "fsm-sim",
        "edge-induced FSM over three fractal steps on the simulated 4x7 "
        "cluster: aggregation filters, DomainSupport, two-level shuffle and "
        "the scheduler; the only sim_s that is a cluster makespan",
        "sim",
        (_PATENTS,),
        (Op("fsm", "fsm", "patents"),),
    ),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)

FSM_MIN_SUPPORT = 4
FSM_MAX_EDGES = 3
MOTIF_K = 4


# ----------------------------------------------------------------------
# Input generation
# ----------------------------------------------------------------------


def edge_list_sha256(graph: Graph) -> str:
    """Digest of a graph's labeled edge list, in id order."""
    h = hashlib.sha256()
    h.update(" ".join(map(str, graph.vertex_labels())).encode())
    for u, v, label in graph.iter_edge_tuples():
        h.update(b"\n%d %d %d" % (u, v, label))
    return h.hexdigest()[:16]


def relabel(graph: Graph, seed: int) -> Tuple[Graph, List[int]]:
    """A seeded isomorphic copy: permuted vertex ids, shuffled edge order.

    Returns the copy and ``inverse`` with ``inverse[new_id] == base_id``,
    which lets listing digests be taken over base ids.
    """
    rng = random.Random(seed)
    n = graph.n_vertices
    inverse = list(range(n))
    rng.shuffle(inverse)
    forward = [0] * n
    for new, old in enumerate(inverse):
        forward[old] = new
    builder = GraphBuilder(name=graph.name)
    for new in range(n):
        builder.add_vertex(label=graph.vertex_label(inverse[new]))
    edges = [
        (forward[u], forward[v], label)
        for u, v, label in graph.iter_edge_tuples()
    ]
    rng.shuffle(edges)
    for u, v, label in edges:
        builder.add_edge(u, v, label=label)
    return builder.build(), inverse


def build_input(
    spec: GraphSpec, seed: int, directory: Path, smoke: bool = False
) -> Dict[str, object]:
    """Generate one input file; returns its path and checking metadata."""
    base = spec.base_graph(smoke)
    relabeled, inverse = relabel(base, seed)
    suffix = "-smoke" if smoke else ""
    path = directory / f"{spec.key}{suffix}-seed{seed}.el"
    save_edge_list(relabeled, str(path))
    return {
        "path": str(path),
        "inverse": inverse,
        "base_sha256": edge_list_sha256(base),
    }


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------


def engine_for(workload: Workload):
    """The engine spec a workload pins (None = the context default)."""
    if workload.engine == "mp":
        return MultiprocessConfig(num_procs=NUM_PROCS, degrade="never")
    if workload.engine == "sim":
        return ClusterConfig(workers=4, cores_per_worker=7)
    return None


def run_op(op: Op, fractal_graph, engine=None, reference: bool = False):
    """Execute one operation; returns ``(result, reports)``.

    ``reports`` are the ``ExecutionReport`` objects the call produced
    (read from the public ``FractalContext.last_report`` /
    ``FSMResult.reports``).  ``reference=True`` swaps the pinned pattern
    kernels for ``"legacy"``.
    """
    context = fractal_graph.context
    if op.kind == "motifs":
        result = motifs(fractal_graph, MOTIF_K, engine=engine)
        return result, [context.last_report]
    if op.kind == "count":
        result = count_query_matches(
            fractal_graph, QUERY_PATTERNS[op.query], engine=engine,
            kernel="legacy" if reference else "decomposed",
        )
        return result, [context.last_report]
    if op.kind == "list":
        result = query_fractoid(
            fractal_graph, QUERY_PATTERNS[op.query],
            kernel="legacy" if reference else "indexed",
        ).subgraphs(engine=engine)
        return result, [context.last_report]
    if op.kind == "fsm":
        result = fsm(
            fractal_graph, FSM_MIN_SUPPORT, FSM_MAX_EDGES, engine=engine
        )
        return result, list(result.reports)
    raise ValueError(f"unknown operation kind {op.kind!r}")


def reference_op(op: Op, graph: Graph):
    """The operation's result on the sequential engine with the legacy kernel.

    The independent path golden digests are recorded from, and the
    reference when no golden applies (``--smoke`` sizes, or a generator
    whose output differs from the recorded one).
    """
    return run_op(op, FractalContext().from_graph(graph), reference=True)[0]


def by_name(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(name)
