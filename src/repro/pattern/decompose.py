"""Pattern-decomposition counting: core–fringe split + inclusion–exclusion.

The enumeration kernels walk one tree node per embedding.  For
counting-only aggregations that is wasted work: DwarvesGraph and the
SEED baseline (PAPERS.md) show that the count of a pattern follows from
counts of smaller *sub-patterns*, combined algebraically.  This module
implements that third kernel (``kernel="decomposed"``):

1. **Core–fringe split.**  Pick the smallest *connected vertex cover*
   ``C`` of the pattern (brute force over subsets — query patterns are
   tiny).  Because ``C`` covers every edge, each *fringe* vertex
   ``f in V \\ C`` has all its pattern neighbors inside the core and
   fringe vertices are pairwise non-adjacent.  Connectivity of the core
   keeps its enumeration anchored (every position after the first has a
   back edge), and a connected pattern always admits a connected cover
   of size ``n - 1`` (drop any non-cut vertex), so planning never fails
   on connectivity alone.

2. **Core enumeration.**  Injective embeddings of the induced core
   pattern are enumerated with the PR-5 indexed machinery —
   label-partitioned sorted adjacency slices intersected per back edge
   (``core/intersect.py``) — under a *symmetry-restricted* walk: the
   automorphisms mapping the core onto itself project to a permutation
   group over core positions, and a GraphZero-style restriction set
   (``pattern/symmetry.py``) collapses the walk by exactly that group's
   order via the same ``[lo, hi)`` window machinery the indexed kernel
   uses.  Only the residual multiplicity ``|Aut(P)| / |projected
   group|`` is divided out at the end (the action is free, so the
   restricted total is exactly divisible; the division is asserted as a
   correctness tripwire that quarantines the step back to enumeration —
   see :class:`DecompositionError`).

3. **Fringe counting by inclusion–exclusion.**  Per core embedding
   ``m``, each fringe vertex ``f`` must land in the *candidate set*
   ``S_f`` = intersection of the labeled-adjacency slices of its core
   anchors, minus the core image.  Distinct fringe vertices must take
   distinct graph vertices; the number of such injective placements is
   the permanent-style sum over set partitions of the fringe::

       sum over partitions pi of F:
           prod over blocks B in pi:
               (-1)^(|B|-1) * (|B|-1)! * |S_B|,   S_B = inter_{f in B} S_f

   (Moebius inversion on the partition lattice.)  ``S_B`` needs only the
   *size* of a slice intersection, never its members, and blocks are
   deduplicated across terms by their constraint signature — a
   single-anchor block costs one O(1) segment lookup, never a scan.

The per-query chooser (:func:`choose_counting_kernel`) prices both
strategies with the same label statistics ``plan_matching_order`` uses
and picks decomposition only when its estimate is strictly cheaper;
fringe-1 patterns (cliques, cycles) keep enumeration — their
intermediate-level intersection work dominates and is shared, and the
core loses enumeration's symmetry pruning — while multi-fringe patterns
(diamond, house, double-diamond) collapse their deepest levels into
O(1) block-size arithmetic.

Everything here falls back to enumeration whenever the aggregation
needs *embeddings* rather than counts (FSM domain support, subgraph
collection, embedding callbacks, partial-pattern steps) — see
:func:`plan_step_decomposition`, which the step planner
(:mod:`repro.runtime.stepplan`) calls; the planner reports the fallback
reason into ``kernel_info`` and meters it as ``metrics.decomp_fallbacks``.

This module deliberately avoids importing ``core.enumerator`` (the
step planner imports both); the restricted cost-order planner below
computes the same order ``plan_matching_order`` would on the full
vertex set.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from operator import mul, sub
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.intersect import base_positions, compile_levels, intersect_slices
from ..graph.graph import Graph
from ..runtime.costmodel import DEFAULT_COST_MODEL, CostModel
from ..runtime.metrics import Metrics
from ..runtime.stepplan import walk_blockers
from .isomorphism import automorphisms
from .pattern import Pattern
from .symmetry import conditions_by_position, restriction_conditions_for_group

__all__ = [
    "BlockSpec",
    "DecompositionError",
    "DecompositionPlan",
    "plan_decomposition",
    "estimate_enumeration_units",
    "choose_counting_kernel",
    "plan_step_decomposition",
    "count_embeddings",
    "instance_count",
]


class DecompositionError(RuntimeError):
    """Inconsistent multiplicity arithmetic in a decomposed count.

    Carries the offending pattern's canonical DFS ``code`` so the report
    names the exact query shape.
    """

    def __init__(self, message: str, code=None):
        super().__init__(message)
        self.code = code


# Brute-force planning limits: query patterns in the paper's workloads
# have <= 6 vertices; these caps keep subset/partition enumeration
# trivially cheap while leaving generous headroom.
MAX_PLAN_VERTICES = 12
MAX_FRINGE = 8

# The chooser only picks decomposition when it is estimated at least
# this much cheaper than enumeration.  Both estimates come from the
# same label-statistics walk, but the decomposed one runs ~1.5-3x low
# against metered units (the enumeration one is tighter), so close
# calls would otherwise flip toward decomposition where it cannot pay
# off.  With the structural gates below filtering out the shapes where
# decomposition is categorically hopeless, a thin 1.2x margin suffices:
# on the q1-q8 x {ER, patents, mico, orkut} matrix every gated plan
# that clears it is a measured winner, and the closest measured loser
# (mico q6, distinct fringe blocks) only ever reaches a 1.23x estimate.
DECOMPOSITION_MARGIN = 1.2

# The chooser also requires at least this many fringe vertices.  A
# single fringe vertex has no injectivity combinatorics to collapse —
# decomposition then only replaces the last extension level with a
# block-size lookup while giving up symmetry breaking across the whole
# core walk.  Measured over q1-q8 on four stand-ins (ER, patents, mico,
# orkut), fringe-1 plans never beat enumeration (0.05x-0.43x), and on
# deep sparse shapes (cycles) the skew-corrected estimates compound
# enough error to mispick them without this gate.
MIN_CHOSEN_FRINGE = 2

# Finally, the fringe vertices must share at least one merged block
# (identical vertex label and anchor constraints).  Sharing is where
# inclusion–exclusion collapses a falling factorial s(s-1)...(s-k+1)
# into a handful of shared slice evaluations; with pairwise-distinct
# blocks each fringe vertex costs its own slice per core embedding and
# the plan degenerates into enumeration without symmetry breaking.
# Measured across the same matrix, every single-shared-block plan
# (e.g. q3, q7) beats enumeration by 1.3x-57x while every
# distinct-block plan (e.g. q6: 3 blocks over 2 fringe vertices) loses
# at 0.09x-0.64x regardless of what the estimates predicted.
REQUIRE_SHARED_FRINGE_BLOCK = True


@dataclass(frozen=True)
class BlockSpec:
    """One deduplicated fringe block: the size ``|S_B|`` to evaluate.

    ``anchors`` are ``(core position, edge label)`` constraints — every
    member of the block must be adjacent (with that edge label) to the
    graph vertex matched at that core position and carry ``vlabel``.
    ``collidable`` lists the core positions whose *pattern* label equals
    ``vlabel``: only those core images can appear inside the slice
    intersection and must be subtracted for injectivity against the
    core.
    """

    vlabel: int
    anchors: Tuple[Tuple[int, int], ...]
    collidable: Tuple[int, ...]


@dataclass(eq=False)
class DecompositionPlan:
    """A compiled core–fringe counting plan for one pattern."""

    pattern: Pattern
    core: Tuple[int, ...]  # pattern vertex ids, in core matching order
    fringe: Tuple[int, ...]  # pattern vertex ids
    core_labels: Tuple[int, ...]  # per core position
    # per core position: sorted ((earlier core position, edge label), ...)
    core_back_edges: Tuple[Tuple[Tuple[int, int], ...], ...]
    blocks: Tuple[BlockSpec, ...]
    # inclusion–exclusion terms: (summed coefficient, block indices);
    # partitions sharing a block-index signature are pre-aggregated.
    terms: Tuple[Tuple[int, Tuple[int, ...]], ...]
    automorphism_count: int
    # True when two fringe vertices map to the same merged block — the
    # shape where inclusion–exclusion collapses injectivity work.
    shared_fringe_block: bool = False
    estimated_core_embeddings: float = 0.0
    estimated_units: float = 0.0
    # Symmetry restriction of the core walk: ordering conditions over
    # *core positions* breaking the projection of the core-stabilizing
    # automorphisms, their per-position compiled checks, the projected
    # group's order, and the residual divisor |Aut(P)| / |proj group|
    # applied to the restricted raw total.  The zero default means
    # "derive from automorphism_count" (unrestricted legacy plans).
    core_conditions: Tuple[Tuple[int, int], ...] = ()
    core_checks: Tuple[Tuple[Tuple[int, bool], ...], ...] = ()
    core_group_order: int = 1
    count_divisor: int = 0

    def describe(self) -> Dict[str, object]:
        """Compact JSON-friendly plan summary for reports and the CLI."""
        return {
            "core": list(self.core),
            "fringe": list(self.fringe),
            "n_blocks": len(self.blocks),
            "n_terms": len(self.terms),
            "shared_fringe_block": self.shared_fringe_block,
            "automorphisms": self.automorphism_count,
            "core_conditions": [list(c) for c in self.core_conditions],
            "core_group_order": self.core_group_order,
            "count_divisor": self.count_divisor,
            "estimated_units": self.estimated_units,
            "blocks": [
                {
                    "vlabel": block.vlabel,
                    "anchors": [list(anchor) for anchor in block.anchors],
                }
                for block in self.blocks
            ],
            "terms": [
                [coefficient, list(block_indices)]
                for coefficient, block_indices in self.terms
            ],
        }


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------


def _pattern_edges(pattern: Pattern) -> List[Tuple[int, int]]:
    """Undirected edge list as (u, v) pairs with u < v."""
    edges = set()
    for v in range(pattern.n_vertices):
        for u, _ in pattern.neighborhood(v):
            edges.add((v, u) if v < u else (u, v))
    return sorted(edges)


def _is_connected_subset(pattern: Pattern, subset: Sequence[int]) -> bool:
    """Whether the pattern induced on ``subset`` is connected."""
    members = set(subset)
    if not members:
        return False
    stack = [subset[0]]
    seen = {subset[0]}
    while stack:
        v = stack.pop()
        for u, _ in pattern.neighborhood(v):
            if u in members and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(members)


def _cost_order(
    pattern: Pattern, graph: Graph, subset: Sequence[int]
) -> List[int]:
    """``plan_matching_order`` restricted to a connected vertex subset.

    Identical ranking rules (rarest-label root, smallest estimated
    candidate set next, ties on back-edge count then vertex id), with
    back edges counted only inside ``subset`` — so on the full vertex
    set this computes exactly the enumeration planner's order.
    """
    members = sorted(set(subset))
    if not members:
        return []
    vertex_counts, pair_counts = graph.label_stats()
    labels = pattern.vertex_labels

    def root_size(p: int) -> int:
        return vertex_counts.get(labels[p], 0)

    start = min(members, key=lambda p: (root_size(p), -pattern.degree(p), p))
    order = [start]
    chosen = {start}
    while len(order) < len(members):
        best_vertex = -1
        best_rank: Optional[tuple] = None
        for p in members:
            if p in chosen:
                continue
            backs = [
                (q, elabel)
                for q, elabel in pattern.neighborhood(p)
                if q in chosen
            ]
            if not backs:
                continue
            estimate = float(root_size(p))
            for q, elabel in backs:
                denominator = vertex_counts.get(labels[q], 0) * root_size(p)
                if denominator:
                    estimate *= (
                        pair_counts.get((labels[q], elabel, labels[p]), 0)
                        / denominator
                    )
                else:
                    estimate = 0.0
            rank = (estimate, -len(backs), p)
            if best_rank is None or rank < best_rank:
                best_rank = rank
                best_vertex = p
        if best_vertex < 0:  # disconnected subset; caller filtered these
            break
        order.append(best_vertex)
        chosen.add(best_vertex)
    return order


def _degree_skew(graph: Graph) -> float:
    """``E[d^2] / E[d]^2``, the degree distribution's skew (>= 1).

    A walk that multiplies *average* per-level candidate counts
    underestimates the work on hub-heavy graphs: anchors beyond the
    root are reached through edges, so their degrees are size-biased —
    a hub hosts proportionally more partial embeddings AND offers
    larger candidate sets, and the walk misses that correlation (63x
    low on the orkut stand-in's q7).  Scaling each edge-reached
    anchor's slice estimate by this factor is the first-order
    correction; it is exactly 1.0 on regular graphs.
    """
    n = graph.n_vertices
    if n == 0:
        return 1.0
    offsets = graph.csr()[0]
    total = offsets[n] - offsets[0]
    if total == 0:
        return 1.0
    degrees = list(map(sub, offsets[1:], offsets[:-1]))
    squares = sum(map(mul, degrees, degrees))
    return (squares * n) / (total * total)


def _walk_estimate(
    pattern: Pattern,
    graph: Graph,
    order: Sequence[int],
    cost_model: CostModel,
) -> Tuple[float, float]:
    """Estimate ``(leaf embeddings, work units)`` of matching ``order``.

    Same independence model as ``plan_matching_order`` — level width
    multiplies per-back-edge selectivities from the label statistics;
    per-node work prices the slice lookups, the expected driving-slice
    intersection scan and the surviving candidate tests — with two
    refinements: slices anchored on edge-reached vertices (everything
    but the root) are scaled by the degree skew (:func:`_degree_skew`),
    the size-bias the independence model otherwise misses; and a
    position with a base (:func:`~repro.core.intersect.base_positions`,
    here without symmetry windows or orbit tail) is priced as it runs —
    the slices its base lacks, and a scan of the base's estimated width.
    """
    if not order:
        return 0.0, 0.0
    vertex_counts, pair_counts = graph.label_stats()
    skew = _degree_skew(graph)
    labels = [pattern.vertex_labels[p] for p in order]
    position_of = {p: i for i, p in enumerate(order)}
    back_edges = [
        sorted(
            (position_of[q], elabel)
            for q, elabel in pattern.neighborhood(p)
            if position_of.get(q, pos) < pos
        )
        for pos, p in enumerate(order)
    ]
    # The walk is priced un-broken: no symmetry windows, no orbit tail.
    bases = base_positions(labels, back_edges, [()] * len(order), len(order))
    nodes = float(vertex_counts.get(labels[0], 0))
    units = cost_model.index_slice_units + nodes * cost_model.extension_test_units
    widths = [nodes]
    for pos in range(1, len(order)):
        label = labels[pos]
        base = bases[pos]
        slice_sizes = []
        candidates = float(vertex_counts.get(label, 0))
        for q, elabel in back_edges[pos]:
            count_q = vertex_counts.get(labels[q], 0)
            pair = pair_counts.get((labels[q], elabel, label), 0)
            bias = skew if q != 0 else 1.0
            if base is None or (q, elabel) not in back_edges[base]:
                slice_sizes.append(bias * pair / count_q if count_q else 0.0)
            denominator = count_q * vertex_counts.get(label, 0)
            candidates *= bias * pair / denominator if denominator else 0.0
        # A level with a base scans the base's candidates, not its
        # smallest slice, and looks up only the slices the base lacks.
        driving = widths[base] if base is not None else min(slice_sizes, default=0.0)
        per_node = (
            len(slice_sizes) * cost_model.index_slice_units
            + driving * cost_model.intersect_compare_units
            + candidates * cost_model.extension_test_units
        )
        units += nodes * per_node
        nodes *= candidates
        widths.append(candidates)
    return nodes, units


def _set_partitions(items: Tuple[int, ...]):
    """All set partitions of ``items`` (deterministic order)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1 :]
        yield [[first]] + partition


def _factorial(n: int) -> int:
    result = 1
    for i in range(2, n + 1):
        result *= i
    return result


def _compile_cover(
    pattern: Pattern,
    graph: Graph,
    cover: Tuple[int, ...],
    cost_model: CostModel,
    auts: Sequence[Tuple[int, ...]],
) -> Optional[DecompositionPlan]:
    """Compile one candidate connected cover into a full plan."""
    n = pattern.n_vertices
    labels = pattern.vertex_labels
    core_order = _cost_order(pattern, graph, cover)
    if len(core_order) != len(cover):
        return None
    position_of = {p: i for i, p in enumerate(core_order)}

    # Symmetry restriction of the core walk.  Automorphisms that map the
    # core onto itself (setwise) project to permutations of core
    # *positions*; the projected group acts freely on injective core
    # embeddings (an injective map fixed under composition with a
    # non-identity position permutation is impossible) and the
    # inclusion–exclusion completion count is constant on its orbits
    # (the inducing automorphism bijects fringe completions).  Breaking
    # the projected group with ordering conditions therefore shrinks the
    # walk by exactly its order, and the residual multiplicity of the
    # restricted total is |Aut(P)| / |projected group| (an integer:
    # |Aut| = |pointwise-core-fixers| * |projection| * [Aut : H]).
    cover_set = set(cover)
    projected = {
        tuple(position_of[alpha[p]] for p in core_order)
        for alpha in auts
        if all(alpha[v] in cover_set for v in cover_set)
    }
    core_group_order = len(projected)
    core_conditions = tuple(
        restriction_conditions_for_group(sorted(projected), len(core_order))
    )
    core_checks = tuple(
        tuple(entries)
        for entries in conditions_by_position(
            core_conditions, list(range(len(core_order)))
        )
    )
    core_labels = tuple(labels[p] for p in core_order)
    core_backs: List[Tuple[Tuple[int, int], ...]] = []
    for pos, p in enumerate(core_order):
        backs = sorted(
            (position_of[q], elabel)
            for q, elabel in pattern.neighborhood(p)
            if q in position_of and position_of[q] < pos
        )
        core_backs.append(tuple(backs))
    fringe = tuple(v for v in range(n) if v not in position_of)

    # Per-fringe-vertex anchor constraints (all neighbors are core).
    anchor_of: Dict[int, Tuple[Tuple[int, int], ...]] = {}
    for f in fringe:
        anchors = sorted(
            (position_of[q], elabel) for q, elabel in pattern.neighborhood(f)
        )
        anchor_of[f] = tuple(anchors)

    # Two fringe vertices share a block iff their singleton signatures
    # (vertex label + anchor constraints) coincide.
    singleton_keys = {(labels[f], anchor_of[f]) for f in fringe}
    shared_fringe_block = len(singleton_keys) < len(fringe)

    def block_signature(members: Sequence[int]) -> Optional[BlockSpec]:
        """Merged constraint signature of one partition block.

        ``None`` marks a statically-empty block (conflicting vertex
        labels, or two different edge labels required toward the same
        core position — impossible in a simple graph), whose terms are
        dropped at plan time.
        """
        vlabels = {labels[f] for f in members}
        if len(vlabels) != 1:
            return None
        merged: Dict[int, int] = {}
        for f in members:
            for core_pos, elabel in anchor_of[f]:
                if merged.setdefault(core_pos, elabel) != elabel:
                    return None
        vlabel = vlabels.pop()
        anchors = tuple(sorted(merged.items()))
        collidable = tuple(
            pos for pos, lab in enumerate(core_labels) if lab == vlabel
        )
        return BlockSpec(vlabel=vlabel, anchors=anchors, collidable=collidable)

    blocks: List[BlockSpec] = []
    block_index: Dict[Tuple[int, Tuple[Tuple[int, int], ...]], int] = {}
    term_coefficients: Dict[Tuple[int, ...], int] = {}
    for partition in _set_partitions(fringe):
        coefficient = 1
        indices: List[int] = []
        dead = False
        for members in partition:
            spec = block_signature(members)
            if spec is None:
                dead = True
                break
            key = (spec.vlabel, spec.anchors)
            idx = block_index.get(key)
            if idx is None:
                idx = len(blocks)
                block_index[key] = idx
                blocks.append(spec)
            indices.append(idx)
            if len(members) > 1:
                sign = -1 if (len(members) - 1) % 2 else 1
                coefficient *= sign * _factorial(len(members) - 1)
        if dead:
            continue
        signature = tuple(sorted(indices))
        term_coefficients[signature] = (
            term_coefficients.get(signature, 0) + coefficient
        )
    terms = tuple(
        (coefficient, signature)
        for signature, coefficient in sorted(term_coefficients.items())
        if coefficient != 0
    )

    # Cost estimate: the core walk plus per-embedding combine work.
    # Deliberately the *unrestricted* walk even though the executed core
    # walk is now symmetry-broken (``core_group_order`` times smaller):
    # the enumeration estimate it competes against is likewise un-broken
    # (see ``estimate_enumeration_units``), and keeping both conventions
    # aligned preserves the PR-8 chooser calibration.  The restriction
    # only makes executed decomposed runs cheaper than estimated — the
    # safe direction for the margin gate.
    core_embeddings, core_units = _walk_estimate(
        pattern, graph, core_order, cost_model
    )
    vertex_counts, pair_counts = graph.label_stats()
    per_embedding = cost_model.decomp_core_embedding_units
    for block in blocks:
        slice_sizes = []
        for core_pos, elabel in block.anchors:
            anchor_label = core_labels[core_pos]
            count_anchor = vertex_counts.get(anchor_label, 0)
            pair = pair_counts.get((anchor_label, elabel, block.vlabel), 0)
            slice_sizes.append(pair / count_anchor if count_anchor else 0.0)
        per_embedding += (
            len(block.anchors) * cost_model.index_slice_units
            + cost_model.decomp_block_units
        )
        if len(block.anchors) > 1:
            per_embedding += (
                min(slice_sizes) * cost_model.intersect_compare_units
            )
    per_embedding += len(terms) * cost_model.decomp_term_units
    estimated_units = core_units + core_embeddings * per_embedding

    return DecompositionPlan(
        pattern=pattern,
        core=tuple(core_order),
        fringe=fringe,
        core_labels=core_labels,
        core_back_edges=tuple(core_backs),
        blocks=tuple(blocks),
        terms=terms,
        automorphism_count=len(auts),
        shared_fringe_block=shared_fringe_block,
        estimated_core_embeddings=core_embeddings,
        estimated_units=estimated_units,
        core_conditions=core_conditions,
        core_checks=core_checks,
        core_group_order=core_group_order,
        count_divisor=max(1, len(auts) // max(1, core_group_order)),
    )


def plan_decomposition(
    pattern: Pattern,
    graph: Graph,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> Optional[DecompositionPlan]:
    """Plan the cheapest core–fringe decomposition of ``pattern``.

    Candidate cores are the smallest *connected vertex covers* (ties
    settled by estimated cost, then lexicographically — fully
    deterministic).  Returns ``None`` when no usable decomposition
    exists: single-vertex patterns, patterns past the planning caps, or
    covers with an empty fringe only (a fringeless plan is plain
    enumeration without symmetry breaking — strictly worse).
    """
    n = pattern.n_vertices
    if n < 2 or n > MAX_PLAN_VERTICES or not pattern.is_connected():
        return None
    edges = _pattern_edges(pattern)
    if not edges:
        return None
    auts = automorphisms(pattern)

    best: Optional[DecompositionPlan] = None
    for size in range(max(1, n - MAX_FRINGE), n):
        for cover in combinations(range(n), size):
            members = set(cover)
            if any(u not in members and v not in members for u, v in edges):
                continue
            if not _is_connected_subset(pattern, cover):
                continue
            plan = _compile_cover(pattern, graph, cover, cost_model, auts)
            if plan is None:
                continue
            if best is None or plan.estimated_units < best.estimated_units:
                best = plan
        if best is not None:
            break  # minimal cover size wins; larger covers only shrink fringe
    return best


# ----------------------------------------------------------------------
# Chooser
# ----------------------------------------------------------------------


def estimate_enumeration_units(
    pattern: Pattern,
    graph: Graph,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> float:
    """Estimated indexed-enumeration work for a full counting run.

    The full (non-symmetry-broken) cost-order walk.  Symmetry breaking
    prunes up to ``|Aut(P)|`` *leaves*, but the metered candidate work
    is dominated by interior extension tests that shrink far less, so
    dividing by the automorphism count grossly underestimates real
    enumeration cost (measured up to 50x low on cliques).  The
    decomposed estimate's core walk is likewise un-broken, so comparing
    raw walks is the apples-to-apples choice — calibrated against
    metered candidate units on the q1–q8 query shapes, it predicts the
    cheaper kernel on all eight.
    """
    order = _cost_order(pattern, graph, range(pattern.n_vertices))
    _, units = _walk_estimate(pattern, graph, order, cost_model)
    return units


def choose_counting_kernel(
    pattern: Pattern,
    graph: Graph,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> Tuple[Optional[DecompositionPlan], Dict[str, object]]:
    """Pick enumeration vs decomposition for one counting query.

    Returns ``(plan, estimates)``: ``plan`` is ``None`` when enumeration
    is (estimated) at least as cheap within :data:`DECOMPOSITION_MARGIN`,
    when the fringe is smaller than :data:`MIN_CHOSEN_FRINGE`, when no
    two fringe vertices share a merged block (see
    :data:`REQUIRE_SHARED_FRINGE_BLOCK`), or when no decomposition
    exists.  Both estimates use the same label statistics, so the
    decision is deterministic for a given (pattern, graph, cost model).
    """
    enumeration_units = estimate_enumeration_units(pattern, graph, cost_model)
    plan = plan_decomposition(pattern, graph, cost_model)
    estimates: Dict[str, object] = {
        "estimated_enumeration_units": enumeration_units,
        "estimated_decomposed_units": (
            plan.estimated_units if plan is not None else None
        ),
    }
    if plan is None or len(plan.fringe) < MIN_CHOSEN_FRINGE:
        return None, estimates
    if REQUIRE_SHARED_FRINGE_BLOCK and not plan.shared_fringe_block:
        return None, estimates
    if plan.estimated_units * DECOMPOSITION_MARGIN >= enumeration_units:
        return None, estimates
    return plan, estimates


def plan_step_decomposition(
    pattern: Pattern,
    graph: Graph,
    primitives: Sequence[object],
    collect: Optional[str],
    root_words: Optional[Sequence[int]],
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> Tuple[Optional[DecompositionPlan], Dict[str, object]]:
    """Gate + chooser for one fractal step that requested ``"decomposed"``.

    Returns ``(plan, info)``.  ``plan`` is non-``None`` only when the
    step is a pure full-pattern counting step
    (:func:`~repro.runtime.stepplan.walk_blockers`) *and* the cost-based
    chooser favors decomposition.  ``info`` always describes the decision for
    ``kernel_info`` reporting; on fallback it carries the reason, and
    the caller meters ``metrics.decomp_fallbacks``.

    The step planner only calls this for steps it has already found to
    be pure counts (the orbit-count record reads the same test); the
    gate here is for direct callers.
    """
    blocker, _ = walk_blockers(pattern, primitives, collect, root_words)
    if blocker is not None:
        return None, fallback_info(blocker)
    plan, estimates = choose_counting_kernel(pattern, graph, cost_model)
    info: Dict[str, object] = {"requested": True, **estimates}
    if plan is None:
        info["executed"] = "enumeration"
        info["reason"] = (
            "chooser picked enumeration (estimated cheaper, or the "
            "fringe shape is below the pay-off threshold)"
        )
        return None, info
    info["executed"] = "count"
    info["reason"] = None
    info["plan"] = plan.describe()
    return plan, info


def fallback_info(reason: str) -> Dict[str, object]:
    """Uniform ``kernel_info["decomposition"]`` shape for fallbacks that
    never reach the chooser (step shape, fault plans, partitions,
    quarantine)."""
    return {"requested": True, "executed": "enumeration", "reason": reason}


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


def count_embeddings(
    plan: DecompositionPlan,
    graph: Graph,
    metrics: Metrics,
    roots: Optional[Sequence[int]] = None,
) -> int:
    """Raw injective embedding count of ``plan.pattern`` in ``graph``.

    Enumerates core embeddings depth-first with the indexed kernel's
    own level programs (:func:`repro.core.intersect.compile_levels`, so
    metered exactly like it: one ``index_slices`` per segment lookup,
    intersection work inside ``intersect_slices``, ``extension_tests``
    per candidate — and sharing candidates between sibling prefixes
    exactly where it does), then evaluates the inclusion–exclusion
    combine at every leaf.

    The walk is symmetry-restricted by the plan's core conditions
    (``core_checks``): they are each level program's ``[lo, hi)``
    window, so the walk visits one representative per
    projected-core-group orbit.

    ``roots`` restricts core position 0 to the given (label-correct)
    vertices — the step executor's unit of work splitting; the caller meters
    the root listing in that case.  (No condition ever binds at position
    0 — it is the earliest position — so root splitting composes with
    the restriction.)  Partial totals from disjoint root sets sum to the
    full total but are **not** individually divisible by the residual
    multiplicity — divide only after merging (:func:`instance_count`).
    """
    index, lnbr, _ = graph.labeled_adjacency()
    depth = len(plan.core)
    blocks = plan.blocks
    terms = plan.terms
    checks = plan.core_checks or [()] * depth
    levels, _ = compile_levels(
        graph,
        plan.core_labels,
        plan.core_back_edges,
        checks,
        base_positions(plan.core_labels, plan.core_back_edges, checks, depth),
    )
    matched = [0] * depth
    used = set()
    total = 0

    if roots is None:
        roots = levels[0](matched, metrics)

    def leaf() -> int:
        metrics.decomp_core_embeddings += 1
        sizes = [0] * len(blocks)
        for bi, block in enumerate(blocks):
            metrics.decomp_blocks += 1
            metrics.index_slices += len(block.anchors)
            segments = []
            empty = False
            for core_pos, elabel in block.anchors:
                segment = index[matched[core_pos]].get((block.vlabel, elabel))
                if segment is None:
                    empty = True
                    break
                segments.append(segment)
            if empty:
                continue
            if len(segments) == 1:
                lo, hi = segments[0]
                arr = lnbr
                size = hi - lo
            else:
                members = intersect_slices(
                    [(lnbr, lo, hi) for lo, hi in segments], metrics
                )
                arr, lo, hi = members, 0, len(members)
                size = hi - lo
            if size:
                # Injectivity against the core image: subtract matched
                # core vertices present in the slice/intersection.
                for core_pos in block.collidable:
                    v = matched[core_pos]
                    metrics.gallop_steps += (hi - lo).bit_length()
                    j = bisect_left(arr, v, lo, hi)
                    if j < hi and arr[j] == v:
                        size -= 1
            sizes[bi] = size
        extensions = 0
        for coefficient, block_indices in terms:
            metrics.decomp_terms += 1
            product = coefficient
            for bi in block_indices:
                s = sizes[bi]
                if not s:
                    product = 0
                    break
                product *= s
            extensions += product
        return extensions

    def dfs(pos: int) -> None:
        nonlocal total
        if pos == depth:
            total += leaf()
            return
        for v in levels[pos](matched, metrics):
            if v in used:
                continue
            matched[pos] = v
            used.add(v)
            dfs(pos + 1)
            used.discard(v)

    for root in roots:
        matched[0] = root
        used.add(root)
        if depth == 1:
            total += leaf()
        else:
            dfs(1)
        used.discard(root)
    return total


def instance_count(plan: DecompositionPlan, raw_embeddings: int) -> int:
    """Merged raw embeddings -> pattern instances.

    The symmetry-restricted core walk already divides out the projected
    core group, so only the residual multiplicity
    ``|Aut(P)| / |projected group|`` (:attr:`DecompositionPlan.count_divisor`)
    remains; plans without the restriction fields (``count_divisor == 0``)
    divide by the full ``|Aut(P)|`` as before.  The group action is free,
    so the merged total is exactly divisible; anything else means the
    inclusion–exclusion combine (or a partial, unmerged total) is wrong,
    and the raised :class:`DecompositionError` names the offending
    pattern's DFS code so the quarantining step executor can report it.
    """
    divisor = plan.count_divisor or max(1, plan.automorphism_count)
    if raw_embeddings % divisor:
        raise DecompositionError(
            f"decomposed count {raw_embeddings} not divisible by residual "
            f"multiplicity {divisor} "
            f"(|Aut(P)| = {plan.automorphism_count}, projected core group "
            f"order {plan.core_group_order}) for pattern with DFS code "
            f"{plan.pattern.canonical_code()}; inclusion–exclusion combine "
            f"is inconsistent",
            code=plan.pattern.canonical_code(),
        )
    return raw_embeddings // divisor
