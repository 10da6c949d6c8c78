"""Sorted-set intersection kernels for pattern-matching candidates.

The indexed pattern kernel reduces candidate generation to intersecting
label-partitioned adjacency segments (``Graph.labeled_adjacency``): every
back edge of the pattern vertex being matched contributes one sorted
slice, and the candidates are exactly the vertices present in all of
them.  Three kernels cover the size regimes, in the style of the
worst-case-optimal join engines (EmptyHeaded, GraphZero — see PAPERS.md):

* **linear merge** for two similarly sized slices — one comparison per
  advanced cursor;
* **galloping** (exponential search + binary search) when the slice
  sizes are skewed by at least :data:`GALLOP_CROSSOVER` — the small side
  drives, probing the big side in O(log gap) steps, metered in closed
  form around one C-level bisect per seek;
* **leapfrog k-way join** for three or more slices — round-robin seeks
  with galloping, never materializing a pairwise intermediate.

Each kernel meters its work into :class:`~repro.runtime.metrics.Metrics`
(``intersect_comparisons`` for merge comparisons, ``gallop_steps`` for
exponential probes and binary-search halvings) so the cost model can
charge the simulated clock for the *actual* cheaper work instead of the
per-candidate tests the legacy kernel would have run.

Slices are ``(arr, lo, hi)`` triples over a shared flat list: the
half-open index range ``arr[lo:hi]``, sorted ascending, no copies made
until the output list.  All outputs are fresh sorted lists.

:func:`compile_levels` turns a whole matching order into level programs
and shares a level's candidates between the sibling prefixes that agree
on every position the level reads (:func:`level_reads`,
:func:`share_level`).  A position whose *base* (:func:`base_positions`)
already intersected all but some of its slices starts from the base's
candidates instead of joining every back neighbour again
(:func:`compile_reused_level`, :func:`remember_level`): the clique's
last level becomes a two-way merge of a suffix of its parent's list.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..runtime.metrics import Metrics

if TYPE_CHECKING:
    from ..graph.graph import Graph

__all__ = [
    "GALLOP_CROSSOVER",
    "LevelProgram",
    "base_positions",
    "compile_level",
    "compile_levels",
    "compile_reused_level",
    "intersect_slices",
    "level_reads",
    "plan_reads",
    "range_bounds",
    "remember_level",
    "share_level",
    "shares_candidates",
    "symmetry_order",
]

# Size ratio at which galloping beats the linear merge.  Galloping costs
# O(small * log(big/small)) versus O(small + big) for the merge; with the
# binary-search constant factor the crossover sits near big/small = 8.
# An algorithm constant, spelled here only; :func:`intersect_slices`
# reads it per call, and ``benchmarks/bench_decomposed_counting.py``
# sweeps it to assert it stays within noise of the best setting on the
# Fig 15 workload.
GALLOP_CROSSOVER = 8

Slice = Tuple[Sequence[int], int, int]

#: ``program(matched, metrics)``: the candidates of one matching-order
#: position given the vertices matched at earlier positions — a fresh
#: list from :func:`compile_level`, a stored tuple from a shared level
#: (:func:`share_level`).
LevelProgram = Callable[[Sequence[int], Metrics], Sequence[int]]


def range_bounds(
    arr: Sequence[int],
    lo: int,
    hi: int,
    lower: int,
    upper: int,
    metrics: Metrics,
) -> Tuple[int, int]:
    """Narrow ``arr[lo:hi]`` to the elements in ``[lower, upper)``.

    Two binary searches on the sorted slice; returns the new ``(lo, hi)``
    bounds.  This is how symmetry-breaking ``<`` / ``>`` conditions are
    applied *before* intersecting: every condition is a strict comparison
    against an already-matched vertex id, so the surviving candidates form
    one contiguous run of the sorted slice.  Each search is metered as
    ``bit_length`` of the searched range — the number of halvings the
    binary search performs.
    """
    if hi > lo and lower > arr[lo]:
        metrics.gallop_steps += (hi - lo).bit_length()
        lo = bisect_left(arr, lower, lo, hi)
    if hi > lo and upper <= arr[hi - 1]:
        metrics.gallop_steps += (hi - lo).bit_length()
        hi = bisect_left(arr, upper, lo, hi)
    return lo, hi


def intersect_slices(
    slices: List[Slice], metrics: Metrics, crossover: Optional[int] = None
) -> List[int]:
    """Intersect ``k >= 1`` sorted slices into a fresh ascending list.

    Kernel selection: a single slice is copied out; two slices use the
    linear merge, or galloping when the size ratio reaches ``crossover``
    (default :data:`GALLOP_CROSSOVER`); three or more use the leapfrog
    k-way join.  The output set is identical for every ``crossover``;
    only the metered work (``intersect_comparisons`` vs
    ``gallop_steps``) shifts.

    Slices are processed smallest first, ties in the given order; one
    and two slices need no sort for that.
    """
    k = len(slices)
    if k == 2:
        (a, alo, ahi), (b, blo, bhi) = slices
        if bhi - blo < ahi - alo:
            a, alo, ahi, b, blo, bhi = b, blo, bhi, a, alo, ahi
        if ahi <= alo:
            return []
        if crossover is None:
            crossover = GALLOP_CROSSOVER
        if (bhi - blo) >= crossover * (ahi - alo):
            return _gallop(a, alo, ahi, b, blo, bhi, metrics)
        return _merge(a, alo, ahi, b, blo, bhi, metrics)
    if k == 1:
        arr, lo, hi = slices[0]
        return list(arr[lo:hi])
    slices = sorted(slices, key=_slice_size)
    if slices[0][2] <= slices[0][1]:
        return []
    return _leapfrog(slices, metrics)


def _slice_size(s: Slice) -> int:
    return s[2] - s[1]


def _merge(
    a: Sequence[int],
    alo: int,
    ahi: int,
    b: Sequence[int],
    blo: int,
    bhi: int,
    metrics: Metrics,
) -> List[int]:
    """Intersection of two similarly sized non-empty sorted slices.

    Metered as the linear two-pointer merge — one comparison per loop
    iteration — without running that loop.  Every iteration advances
    the ``a`` cursor, the ``b`` cursor, or (on a match) both, so the
    merge runs ``(i_end - alo) + (j_end - blo) - |out|`` iterations,
    where ``i_end``/``j_end`` are the cursors when it stops.  It stops
    when the side with the smaller last element is exhausted; by then
    the other cursor has passed exactly the elements ``<=`` that last
    element (smaller ones were skipped, an equal one was matched), a
    ``bisect_right``.  The members themselves come from a C-level set
    intersection over the ranges the cursors covered.
    """
    a_last = a[ahi - 1]
    b_last = b[bhi - 1]
    if a_last <= b_last:
        bhi = bisect_right(b, a_last, blo, bhi)
    else:
        ahi = bisect_right(a, b_last, alo, ahi)
    common = set(a[alo:ahi]).intersection(b[blo:bhi])
    metrics.intersect_comparisons += (ahi - alo) + (bhi - blo) - len(common)
    return sorted(common)


def _gallop(
    a: Sequence[int],
    alo: int,
    ahi: int,
    b: Sequence[int],
    blo: int,
    bhi: int,
    metrics: Metrics,
) -> List[int]:
    """Skewed intersection: the small slice ``a`` drives, galloping in ``b``.

    For each element ``x`` of ``a`` the cursor ``j`` in ``b`` seeks the
    first element ``>= x``.  A galloping seek probes ``b[j + 1],
    b[j + 2], b[j + 4], ...`` — ``d`` doublings, one step each — until a
    probe reaches ``x`` or the end, then binary-searches the bracket
    ``[j, end)``, metered as its ``bit_length``; total work is
    O(|a| * log(|b|/|a|)), the textbook bound.  The seek runs as one
    C-level bisect, and its answer ``j + g`` (``1 <= g <= bhi - j``)
    fixes the loop's count: ``b[j + bound] < x`` exactly while
    ``bound < g``, so the doubling stops at ``d = (g - 1).bit_length()``
    and the bracket is ``2**d`` wide, ``d + 1`` halvings, unless it is
    cut at ``bhi``; then it is ``bhi - j`` wide, which is in
    ``[g, 2**d)`` and so has ``d`` bits.  :func:`_leapfrog` seeks the
    same way.
    """
    out: List[int] = []
    steps = 0
    j = blo
    for i in range(alo, ahi):
        x = a[i]
        if j >= bhi:
            break
        if b[j] < x:
            found = bisect_left(b, x, j, bhi)
            d = (found - j - 1).bit_length()
            steps += 2 * d + (bhi - j >= 1 << d)
            j = found
            if j >= bhi:
                break
        if b[j] == x:
            out.append(x)
            j += 1
    metrics.gallop_steps += steps
    return out


def _leapfrog(slices: List[Slice], metrics: Metrics) -> List[int]:
    """Leapfrog k-way join over ``k >= 3`` sorted slices.

    Round-robin over the slices: the current candidate is the largest
    head seen so far; each slice seeks (by galloping, metered and run as
    in :func:`_gallop`) to its first element ``>= candidate``.  When all
    ``k`` heads agree the value is emitted.  Any slice running out ends the join.
    """
    k = len(slices)
    arrs = [s[0] for s in slices]
    pos = [s[1] for s in slices]
    his = [s[2] for s in slices]
    out: List[int] = []
    steps = 0
    for i in range(k):
        if pos[i] >= his[i]:
            return out
    x = arrs[0][pos[0]]
    agree = 1
    idx = 1
    while True:
        arr = arrs[idx]
        hi = his[idx]
        j = pos[idx]
        if j < hi and arr[j] < x:
            found = bisect_left(arr, x, j, hi)
            d = (found - j - 1).bit_length()
            steps += 2 * d + (hi - j >= 1 << d)
            j = pos[idx] = found
        if j >= hi:
            break
        y = arr[j]
        if y == x:
            agree += 1
            if agree == k:
                out.append(x)
                j += 1
                pos[idx] = j
                if j >= hi:
                    break
                x = arr[j]
                agree = 1
        else:
            x = y
            agree = 1
        idx += 1
        if idx == k:
            idx = 0
    metrics.gallop_steps += steps
    return out


def _symmetry_window(
    checks: Sequence[Tuple[int, bool]], n_vertices: int
) -> Callable[[Sequence[int], Sequence[int], int, int, Metrics], Tuple[int, int]]:
    """``window(matched, arr, lo, hi, metrics)``: ``arr[lo:hi]`` narrowed
    to the ``[lower, upper)`` window ``checks`` set (maybe empty),
    metered as :func:`range_bounds`; an empty window costs nothing."""
    above = tuple(pos for pos, must_be_greater in checks if must_be_greater)
    below = tuple(pos for pos, must_be_greater in checks if not must_be_greater)

    def window(
        matched: Sequence[int], arr: Sequence[int], lo: int, hi: int,
        metrics: Metrics,
    ) -> Tuple[int, int]:
        lower = 0
        for pos in above:
            bound = matched[pos] + 1
            if bound > lower:
                lower = bound
        upper = n_vertices
        for pos in below:
            bound = matched[pos]
            if bound < upper:
                upper = bound
        if lower >= upper:
            return lo, lo
        return range_bounds(arr, lo, hi, lower, upper, metrics)

    return window


def compile_level(
    graph: "Graph",
    label: int,
    backs: Sequence[Tuple[int, int]],
    checks: Sequence[Tuple[int, bool]] = (),
) -> LevelProgram:
    """Compile one matching-order position into its candidate routine.

    The position wants vertices labeled ``label`` that are joined to the
    vertex matched at ``back_pos`` by an ``elabel`` edge for every
    ``(back_pos, elabel)`` in ``backs``, and that satisfy the symmetry
    ``checks`` — ``(earlier_pos, must_be_greater)`` strict comparisons
    against matched vertex ids.  Everything that depends only on the
    pattern is resolved here, once: the labeled-adjacency slice keys,
    the positions feeding the ``[lower, upper)`` symmetry window, and
    the routine for the number of slices (one: window + copy; two:
    size-ordered merge/gallop; more: leapfrog).  A position without back
    edges is the root level and lists the label's vertices.

    ``program(matched, metrics)`` returns the candidates as a fresh
    ascending list.  One labeled-adjacency slice per back edge
    guarantees the edge, its label and the candidate's vertex label all
    at once; the window is binary-searched on the smallest slice before
    intersecting.  It meters one ``index_slices`` per slice looked up
    (stopping at the first missing one), the window and intersection
    work as :func:`range_bounds` and :func:`intersect_slices` do, and
    one ``extension_tests`` per returned candidate — the per-element
    work actually performed.  Injectivity against ``matched`` is the
    caller's filter.

    The program reads ``matched`` at the positions in
    :func:`level_reads` only and touches no other counter, which is what
    lets :func:`compile_levels` share its answers between siblings; the
    bare program stays the reference the shared one is tested against.
    """
    if not backs:

        def roots(matched: Sequence[int], metrics: Metrics) -> List[int]:
            metrics.index_slices += 1
            found = list(graph.vertices_with_label(label))
            metrics.extension_tests += len(found)
            return found

        return roots

    adjacency = graph.labeled_adjacency
    lookups = tuple((back_pos, (label, elabel)) for back_pos, elabel in backs)
    windowed = bool(checks)
    window = _symmetry_window(checks, graph.n_vertices)

    if len(lookups) == 1:
        ((back_pos, key),) = lookups

        def single(matched: Sequence[int], metrics: Metrics) -> List[int]:
            index, lnbr, _ = adjacency()
            metrics.index_slices += 1
            segment = index[matched[back_pos]].get(key)
            if segment is None:
                return []
            lo, hi = segment
            if windowed:
                lo, hi = window(matched, lnbr, lo, hi, metrics)
            found = lnbr[lo:hi]
            metrics.extension_tests += len(found)
            return found

        return single

    if len(lookups) == 2:
        (pos_a, key_a), (pos_b, key_b) = lookups

        def pair(matched: Sequence[int], metrics: Metrics) -> List[int]:
            index, lnbr, _ = adjacency()
            metrics.index_slices += 1
            small = index[matched[pos_a]].get(key_a)
            if small is None:
                return []
            metrics.index_slices += 1
            large = index[matched[pos_b]].get(key_b)
            if large is None:
                return []
            if large[1] - large[0] < small[1] - small[0]:
                small, large = large, small
            lo, hi = small
            if windowed:
                lo, hi = window(matched, lnbr, lo, hi, metrics)
                if lo >= hi:
                    return []
            found = intersect_slices(
                [(lnbr, lo, hi), (lnbr, large[0], large[1])], metrics
            )
            metrics.extension_tests += len(found)
            return found

        return pair

    def multiway(matched: Sequence[int], metrics: Metrics) -> List[int]:
        index, lnbr, _ = adjacency()
        slices = []
        for back_pos, key in lookups:
            metrics.index_slices += 1
            segment = index[matched[back_pos]].get(key)
            if segment is None:
                return []
            slices.append((lnbr, segment[0], segment[1]))
        if windowed:
            # The first smallest slice is the one intersect_slices will
            # put first; narrowing it keeps it there.
            smallest = min(slices, key=_slice_size)
            lo, hi = window(matched, lnbr, smallest[1], smallest[2], metrics)
            if lo >= hi:
                return []
            slices[slices.index(smallest)] = (lnbr, lo, hi)
        found = intersect_slices(slices, metrics)
        metrics.extension_tests += len(found)
        return found

    return multiway


def compile_reused_level(
    graph: "Graph",
    label: int,
    added: Sequence[Tuple[int, int]],
    checks: Sequence[Tuple[int, bool]],
    base: int,
    base_answer: Callable[[Sequence[int]], Sequence[int]],
) -> LevelProgram:
    """Compile a position that starts from its base's candidates.

    ``base_answer(matched)`` is the candidate list position ``base``
    computed for the current prefix (:func:`base_positions` says which
    positions have a base, and why the answer contains every candidate
    of this one).  The program cuts it to this position's symmetry
    window — positionally past the base's vertex, unmetered, when this
    position must exceed it, then as :func:`compile_level` narrows a
    slice — and intersects what is left with one slice per back edge in
    ``added`` (the back edges the base does not have), through
    :func:`intersect_slices`.  It meters one ``index_slices`` per
    lookup (stopping at the first missing one), the window and the
    intersection, and one ``extension_tests`` per candidate; nothing for
    the base's own candidates, which the base's level already metered.
    """
    adjacency = graph.labeled_adjacency
    lookups = tuple((back_pos, (label, elabel)) for back_pos, elabel in added)
    windowed = bool(checks)
    window = _symmetry_window(checks, graph.n_vertices)
    suffix = (base, True) in checks

    def reused(matched: Sequence[int], metrics: Metrics) -> List[int]:
        index, lnbr, _ = adjacency()
        slices = [None]
        for back_pos, key in lookups:
            metrics.index_slices += 1
            segment = index[matched[back_pos]].get(key)
            if segment is None:
                return []
            slices.append((lnbr, segment[0], segment[1]))
        found = base_answer(matched)
        lo = bisect_right(found, matched[base]) if suffix else 0
        hi = len(found)
        if windowed:
            lo, hi = window(matched, found, lo, hi, metrics)
            if lo >= hi:
                return []
        slices[0] = (found, lo, hi)
        found = intersect_slices(slices, metrics)
        metrics.extension_tests += len(found)
        return found

    return reused


def symmetry_order(
    checks: Sequence[Sequence[Tuple[int, bool]]]
) -> Iterator[Tuple[Set[int], Set[int], List[Set[int]]]]:
    """Per position ``p``: ``(below, above, lower)``, the transitive
    order the symmetry checks set on matched vertex ids.

    ``below`` / ``above`` are the earlier positions whose vertex the
    checks of positions ``0..p`` prove smaller / greater than the one at
    ``p``; ``lower[y]`` (``y < p``) are the positions proven smaller than
    the one at ``y`` by the checks of positions ``0..p-1`` only — the
    checks that hold once ``p``'s prefix is matched.  ``lower`` is
    extended with ``p``'s checks after the consumer resumes.
    """
    lower: List[Set[int]] = []
    for p, position_checks in enumerate(checks):
        below: Set[int] = set()
        above: Set[int] = set()
        for q, greater in position_checks:
            if greater:
                below |= lower[q] | {q}
            else:
                above |= {y for y in range(p) if q in lower[y]} | {q}
        yield below, above, lower
        for y in above:
            lower[y] |= below | {p}
        lower.append(below)


def base_positions(
    labels: Sequence[object],
    back_edges: Sequence[Sequence[Tuple[int, int]]],
    checks: Sequence[Sequence[Tuple[int, bool]]],
    tail_start: int,
) -> List[Optional[int]]:
    """Per position, the earlier position whose candidates it reuses.

    Position ``p``'s base is the latest earlier position ``q`` that

    * carries ``p``'s vertex label;
    * has at least two back edges, every one of them — edge label
      included — also a back edge of ``p``;
    * lies before ``tail_start``, the orbit tail's first position (a
      tail position's candidates are counted, not listed);
    * has a symmetry window containing ``p``'s for every matched prefix:
      each lower bound of ``q`` is a lower bound of ``p`` or proven
      smaller than one, and each upper bound of ``q`` is an upper bound
      of ``p`` or proven greater than one, under the transitive order
      of the checks of positions ``0..p-1`` (:func:`symmetry_order`).

    Then ``q``'s candidates hold every candidate of ``p``, and ``p``'s
    are exactly those of ``q`` inside ``p``'s window that the back edges
    ``p`` adds also reach.  ``None`` where no position qualifies (with
    fewer than two back edges the base would be one slice, which ``p``
    looks up as cheaply itself).
    """
    out: List[Optional[int]] = []
    for p, (_, _, lower) in enumerate(symmetry_order(checks)):
        backs = set(back_edges[p])
        above = [a for a, greater in checks[p] if greater]
        below = [b for b, greater in checks[p] if not greater]
        base = None
        for q in range(min(p, tail_start) - 1, 0, -1):
            if (
                labels[q] == labels[p]
                and len(back_edges[q]) >= 2
                and backs.issuperset(back_edges[q])
                and all(
                    any(a == x or a in lower[x] for x in above)
                    for a, greater in checks[q]
                    if greater
                )
                and all(
                    any(b == x or x in lower[b] for x in below)
                    for b, greater in checks[q]
                    if not greater
                )
            ):
                base = q
                break
        out.append(base)
    return out


def level_reads(
    backs: Sequence[Tuple[int, int]], checks: Sequence[Tuple[int, bool]]
) -> Tuple[int, ...]:
    """The matching-order positions a level's program reads, ascending.

    A level looks at ``matched`` only through its back edges (one slice
    lookup each) and its symmetry checks (the window bounds), so two
    prefixes that agree on these positions get the same candidates and
    meter the same work, whatever sits at the others.
    """
    return tuple(sorted({pos for pos, _ in backs} | {pos for pos, _ in checks}))


def plan_reads(
    back_edges: Sequence[Sequence[Tuple[int, int]]],
    checks: Sequence[Sequence[Tuple[int, bool]]],
    bases: Sequence[Optional[int]],
) -> List[Tuple[int, ...]]:
    """Per position, the positions its level reads: its own
    :func:`level_reads`, plus its base's reads where it has a base (the
    base's candidates — hence the work a reused level meters on them —
    depend on those)."""
    out: List[Tuple[int, ...]] = []
    for pos, base in enumerate(bases):
        reads = level_reads(back_edges[pos], checks[pos])
        if base is not None:
            reads = tuple(sorted({*reads, *out[base]}))
        out.append(reads)
    return out


def shares_candidates(pos: int, reads: Sequence[int]) -> bool:
    """Whether position ``pos`` shares its candidates between siblings.

    Entries live for one root subtree (:func:`share_level`), so the root
    is part of every key whether the level reads it or not.  Only when
    ``reads`` plus position 0 is a *proper* subset of the prefix
    ``0..pos-1`` can two prefixes under one root agree on all of it and
    still differ: a level that reads the rest of its prefix is entered
    with distinct inputs every time, so a memo there would be all
    misses.  Such levels (the root level and position 1 among them) run
    their program bare.
    """
    return bool(reads) and len({0, *reads}) < pos


def share_level(
    program: LevelProgram, reads: Sequence[int], graph: "Graph", memo: dict
) -> LevelProgram:
    """``program`` computed once per distinct ``reads`` image per root.

    ``memo`` maps ``matched`` restricted to ``reads`` to the candidates
    (a tuple: the entry is handed out as it is, and must not be editable)
    and the four counter deltas the program metered for them.  A miss
    runs ``program`` and records both; a hit re-adds the deltas, so
    ``Metrics`` — hence ``work_units`` and the simulated clock — stay
    those of the enumeration problem no matter which sibling came first,
    while the host skips the intersection.  Entries live for one root
    subtree: ``memo`` is emptied when ``matched[0]`` changes (what bounds
    its size), when ``graph.version`` moves, and by whoever owns it
    (:func:`compile_levels` hands the owner a ``forget``).
    """
    key_of = itemgetter(*reads)
    root = -1
    version = graph.version

    def shared(matched: Sequence[int], metrics: Metrics) -> Sequence[int]:
        nonlocal root, version
        if matched[0] != root or graph.version != version:
            memo.clear()
            root = matched[0]
            version = graph.version
        key = key_of(matched)
        entry = memo.get(key)
        if entry is None:
            slices = metrics.index_slices
            comparisons = metrics.intersect_comparisons
            gallops = metrics.gallop_steps
            tests = metrics.extension_tests
            found = tuple(program(matched, metrics))
            memo[key] = (
                found,
                metrics.index_slices - slices,
                metrics.intersect_comparisons - comparisons,
                metrics.gallop_steps - gallops,
                metrics.extension_tests - tests,
            )
            return found
        found, slices, comparisons, gallops, tests = entry
        metrics.index_slices += slices
        metrics.intersect_comparisons += comparisons
        metrics.gallop_steps += gallops
        metrics.extension_tests += tests
        return found

    return shared


def remember_level(
    program: LevelProgram, reads: Sequence[int], graph: "Graph"
) -> Tuple[LevelProgram, Callable[[Sequence[int]], Sequence[int]], dict]:
    """``program`` keeping its last answer, for the levels that reuse it.

    Returns ``(remembered, answer, last)``: ``remembered`` is ``program``
    storing what it returns (as a tuple: the caller may consume its
    list) in the one-entry cache ``last``, keyed by ``matched``
    restricted to ``reads`` and the graph version; ``answer(matched)``
    hands out that entry when the key matches — in a depth-first walk
    always, the base being matched before every level that reuses it —
    and otherwise (a thief's first level after a steal, a rebuilt
    prefix) recomputes it on a scratch :class:`Metrics`: host work the
    enumeration problem does not contain, so nothing is metered.
    """
    key_of = itemgetter(*reads)
    last: dict = {}

    def remembered(matched: Sequence[int], metrics: Metrics) -> Sequence[int]:
        found = program(matched, metrics)
        last["key"] = (graph.version, key_of(matched))
        last["answer"] = found if type(found) is tuple else tuple(found)
        return found

    def answer(matched: Sequence[int]) -> Sequence[int]:
        if last.get("key") == (graph.version, key_of(matched)):
            return last["answer"]
        remembered(matched, Metrics())
        return last["answer"]

    return remembered, answer, last


def compile_levels(
    graph: "Graph",
    labels: Sequence[int],
    back_edges: Sequence[Sequence[Tuple[int, int]]],
    checks: Sequence[Sequence[Tuple[int, bool]]],
    bases: Sequence[Optional[int]],
) -> Tuple[List[LevelProgram], Callable[[], None]]:
    """Compile a matching order: one program per position — reusing its
    base's candidates where ``bases`` (:func:`base_positions`) names one
    (:func:`compile_reused_level`), :func:`compile_level` elsewhere —
    shared between siblings where :func:`shares_candidates`.

    Returns ``(programs, forget)``; ``forget()`` drops every shared
    level's entries and every remembered base answer (a walk that
    starts over calls it, so nothing outlives the walk that computed
    it).
    """
    programs: List[LevelProgram] = []
    memos: List[dict] = []
    answers: dict = {}
    reads = plan_reads(back_edges, checks, bases)
    used_as_base = set(bases)
    for pos, label in enumerate(labels):
        base = bases[pos]
        if base is None:
            program = compile_level(graph, label, back_edges[pos], checks[pos])
        else:
            added = [edge for edge in back_edges[pos] if edge not in back_edges[base]]
            program = compile_reused_level(
                graph, label, added, checks[pos], base, answers[base]
            )
        if shares_candidates(pos, reads[pos]):
            memos.append({})
            program = share_level(program, reads[pos], graph, memos[-1])
        if pos in used_as_base:
            program, answers[pos], last = remember_level(program, reads[pos], graph)
            memos.append(last)
        programs.append(program)

    def forget() -> None:
        for memo in memos:
            memo.clear()

    return programs, forget
