"""Graphlet degree vectors (GDD — Pržulj 2007, the paper's motif motivation).

Bioinformatics motif analyses go beyond counting shapes: they count, for
every vertex, how often it appears at each *automorphism orbit* of each
k-graphlet (connected induced subgraph).  The resulting graphlet degree
vector characterizes a vertex's local topology far more precisely than
its degree, and comparing GDV distributions is the standard way to
compare biological networks.

This app composes the machinery the reproduction already has — canonical
patterns, canonical positions and position orbits — over the
vertex-induced enumeration, so every instance is visited exactly once and
each of its vertices is credited at its orbit.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional, Tuple

from ..core.context import FractalGraph
from ..pattern.pattern import Pattern
from ..runtime.driver import EngineSpec

__all__ = [
    "graphlet_degree_vectors",
    "gdv_similarity",
    "graphlet_frequency_profile",
]

OrbitKey = Tuple[Pattern, int]


def graphlet_degree_vectors(
    fractal_graph: FractalGraph,
    k: int,
    engine: Optional[EngineSpec] = None,
) -> Dict[int, Dict[OrbitKey, int]]:
    """Per-vertex orbit participation counts over all k-graphlets.

    Returns ``counts[vertex][(pattern, orbit_id)]`` — how many connected
    induced k-subgraphs contain ``vertex`` at that orbit of that pattern.
    Orbit ids refer to :meth:`Pattern.canonical_position_orbits`.
    """
    if k < 1:
        raise ValueError("graphlets require k >= 1")
    counts: Dict[int, Dict[OrbitKey, int]] = defaultdict(
        lambda: defaultdict(int)
    )

    def credit(subgraph, computation) -> bool:
        pattern, positions = subgraph.pattern_with_positions()
        orbit_of = pattern.canonical_position_orbits()
        for vertex, position in zip(subgraph.vertices, positions):
            counts[vertex][(pattern, orbit_of[position])] += 1
        return True

    fractal_graph.vfractoid().expand(k).filter(credit).execute(
        collect=None, engine=engine
    )
    return {vertex: dict(vector) for vertex, vector in counts.items()}


def graphlet_frequency_profile(
    fractal_graph: FractalGraph,
    k: int,
    engine: Optional[EngineSpec] = None,
    kernel: Optional[str] = None,
) -> Dict[Pattern, float]:
    """Relative k-graphlet frequencies via per-pattern counting queries.

    A whole-graph companion to the per-vertex degree vectors: the
    induced k-motif census (computed with
    :func:`repro.apps.motifs.motif_census_by_pattern`, so each pattern
    is a counting-only query that rides the symmetry-breaking and
    orbit-multiplicity fast paths) normalized to sum to 1.  This is the
    classic "graphlet frequency distribution" used to compare networks.
    """
    from .motifs import motif_census_by_pattern

    census = motif_census_by_pattern(
        fractal_graph, k, engine=engine, kernel=kernel
    )
    total = sum(census.values())
    if not total:
        return {}
    return {pattern: count / total for pattern, count in census.items()}


def gdv_similarity(
    vector_a: Dict[OrbitKey, int], vector_b: Dict[OrbitKey, int]
) -> float:
    """Similarity in [0, 1] between two graphlet degree vectors.

    The standard log-scaled agreement: orbits where both vertices have
    similar (log) counts score near 1, disagreements near 0; the result
    is the mean over the union of touched orbits.
    """
    import math

    keys = set(vector_a) | set(vector_b)
    if not keys:
        return 1.0
    total = 0.0
    for key in keys:
        a = math.log(vector_a.get(key, 0) + 1.0)
        b = math.log(vector_b.get(key, 0) + 1.0)
        total += 1.0 - abs(a - b) / max(a, b, 1.0)
    return total / len(keys)
