"""Result digests, the recorded goldens, and the brute-force pre-check.

Every digest is invariant under the seed's relabeling (patterns compare
by canonical code; listings are mapped back to base vertex ids first) and
independent of ``PYTHONHASHSEED`` (sorted before hashing), so one golden
per operation serves every seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import oracle
from workloads import (
    FSM_MAX_EDGES,
    FSM_MIN_SUPPORT,
    MOTIF_K,
    Op,
    Workload,
    engine_for,
    reference_op,
    run_op,
)
from repro import FractalContext
from repro.apps import QUERY_PATTERNS
from repro.graph.graph import GraphBuilder

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# Generator scales of the 10- to 24-vertex instances the brute-force
# oracle is run on.
ORACLE_SCALE = {"mico_like": 0.1, "orkut_like": 0.01, "patents_like": 0.04}


def _sha(items: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(items).encode()).hexdigest()[:16]


def digest(op: Op, result, graph, inverse: Sequence[int]) -> Dict[str, object]:
    """A small JSON-able fingerprint of one operation's result."""
    if op.kind == "motifs":
        rows = sorted(f"{p.canonical_code()!r}:{c}" for p, c in result.items())
        return {"patterns": len(result), "total": sum(result.values()),
                "sha": _sha(rows)}
    if op.kind == "count":
        return {"count": result}
    if op.kind == "list":
        # Order-independent checksum over instances in base vertex ids.
        checksum = 0
        edge = graph.edge
        for r in result:
            pairs = []
            for e in r.edges:
                u, v = edge(e)
                a, b = inverse[u], inverse[v]
                pairs.append((a, b) if a < b else (b, a))
            pairs.sort()
            checksum += zlib.crc32(repr(pairs).encode())
        return {"count": len(result), "checksum": checksum % (1 << 64)}
    if op.kind == "fsm":
        rows = sorted(
            f"{p.canonical_code()!r}:{s.support}"
            for p, s in result.frequent.items()
        )
        return {"frequent": len(result.frequent), "rounds": result.rounds,
                "sha": _sha(rows)}
    raise ValueError(f"unknown operation kind {op.kind!r}")


def load_golden() -> Dict[str, object]:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text())


def expected_digests(
    workload: Workload,
    inputs: Dict[str, Dict[str, object]],
    graphs: Dict[str, object],
    smoke: bool,
) -> Dict[str, object]:
    """Op name -> expected digest, and where it came from.

    The recorded golden applies when it was recorded for exactly these
    base graphs; otherwise the reference is computed here, untimed, on
    the sequential engine with the legacy kernel.
    """
    golden = load_golden().get(workload.name)
    if not smoke and golden is not None and all(
        golden["graphs"].get(key) == meta["base_sha256"]
        for key, meta in inputs.items()
    ):
        return {"source": "golden", "ops": golden["ops"]}
    expected = {}
    for op in workload.ops:
        result = reference_op(op, graphs[op.graph])
        expected[op.name] = digest(
            op, result, graphs[op.graph], inputs[op.graph]["inverse"]
        )
    return {"source": "reference (sequential engine, legacy kernel)",
            "ops": expected}


def record_golden() -> None:
    """Write golden.json from the reference path at the full sizes.

    The base (unrelabeled) graphs stand for every seed: digests are
    relabeling-invariant, and ``--seed`` runs re-derive them through the
    inverse permutation.
    """
    from workloads import WORKLOADS, edge_list_sha256

    golden = {}
    for workload in WORKLOADS:
        graphs = {spec.key: spec.base_graph() for spec in workload.graphs}
        golden[workload.name] = {
            "graphs": {k: edge_list_sha256(g) for k, g in graphs.items()},
            "ops": {
                op.name: digest(
                    op,
                    reference_op(op, graphs[op.graph]),
                    graphs[op.graph],
                    range(graphs[op.graph].n_vertices),
                )
                for op in workload.ops
            },
        }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Brute-force pre-check
# ----------------------------------------------------------------------


def _coarsen_labels(graph, n_labels: int = 3):
    """Fold vertex labels onto a few values, so a tiny instance still has
    repeated labeled patterns (29 labels on 16 vertices would make every
    subgraph its own pattern and every support 1)."""
    builder = GraphBuilder(name=graph.name)
    for v in graph.vertices():
        builder.add_vertex(label=graph.vertex_label(v) % n_labels)
    for u, v, label in graph.iter_edge_tuples():
        builder.add_edge(u, v, label=label)
    return builder.build()


def _plain(graph):
    labels = list(graph.vertex_labels())
    edges = [(u, v, label) for u, v, label in graph.iter_edge_tuples()]
    return labels, edges


def _pattern_form(pattern):
    return oracle.canonical_form(list(pattern.vertex_labels), list(pattern.edges))


def oracle_check(workload: Workload) -> List[str]:
    """Run the workload's calls on tiny instances against the oracle.

    Uses the workload's own engine and kernels, so the path about to be
    timed is the one checked.  Returns a list of mismatch descriptions
    (empty = all agree).
    """
    problems: List[str] = []
    small: Dict[str, object] = {}
    for spec in workload.graphs:
        scaled = dataclasses.replace(spec, scale=ORACLE_SCALE[spec.generator])
        small[spec.key] = _coarsen_labels(scaled.base_graph())
    context = FractalContext()
    for op in workload.ops:
        graph = small[op.graph]
        labels, edges = _plain(graph)
        result, _ = run_op(op, context.from_graph(graph), engine_for(workload))
        if op.kind == "motifs":
            got = {_pattern_form(p): c for p, c in result.items()}
            want = dict(oracle.motif_census(labels, edges, MOTIF_K))
        elif op.kind in ("count", "list"):
            pattern = QUERY_PATTERNS[op.query]
            want = oracle.pattern_instances(
                labels, edges, list(pattern.vertex_labels), list(pattern.edges)
            )
            if op.kind == "count":
                got, want = result, len(want)
            else:
                got = {
                    frozenset(tuple(sorted(graph.edge(e))) for e in r.edges)
                    for r in result
                }
                if len(got) != len(result):
                    problems.append(f"{op.name}: listing repeats an instance")
        else:
            got = {
                _pattern_form(p): s.support for p, s in result.frequent.items()
            }
            want = oracle.frequent_subgraphs(
                labels, edges, FSM_MIN_SUPPORT, FSM_MAX_EDGES
            )
        if got != want:
            problems.append(
                f"{op.name} on {graph.n_vertices}-vertex {op.graph}: "
                f"system and brute-force oracle disagree"
            )
    return problems
