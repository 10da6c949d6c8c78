"""One generated nested-loop executor per pattern plan.

:meth:`~repro.core.enumerator.PatternInducedStrategy.count_matches` and
:meth:`~repro.core.enumerator.PatternInducedStrategy.list_matches` run
the function :func:`level_executor` returns for the plan's *shape*: per
matching-order position the vertex label, the back edges ``(pos,
elabel)``, the symmetry checks ``(pos, must_be_greater)`` and the base
(:func:`~repro.core.intersect.base_positions`), plus the leaf —
``"count"`` with the orbit tail ``(tau, arrangements)``, or ``"list"``.  The function is Python source generated from the shape,
compiled once with ``compile``/``exec`` and cached process-wide on the
shape alone, so strategies built for other graphs, other steps or other
simulated cores reuse it.  Every matched position is one ``for`` loop
(DwarvesGraph's straight-line nested loops); in its body, what the level
programs of :func:`~repro.core.intersect.compile_levels` do through
closures is written out:

* the labeled-adjacency slice lookups — each issued once, in the loop
  that binds the back neighbour it reads, and metered where the level
  uses it — the ``[lower, upper)`` symmetry window (the two
  ``bisect_left`` of :func:`~repro.core.intersect.range_bounds`), the
  size ordering and the merge; galloping and the leapfrog join stay
  calls (:func:`~repro.core.intersect._gallop`,
  :func:`~repro.core.intersect._leapfrog`);
* candidate reuse: a position with a base starts from the candidate
  list of the enclosing loop at the base — past the base's vertex by
  the loop's own index when the position must exceed it — and looks up
  and intersects only the slices of the back edges it adds, metered as
  :func:`~repro.core.intersect.compile_reused_level` meters it;
* sibling sharing: a per-root memo at exactly the positions
  :func:`~repro.core.intersect.shares_candidates` names, storing next to
  the candidates the deltas of the counters the level moved — what the
  kernels metered into ``metrics`` directly included — and replaying
  them on a hit, as :func:`~repro.core.intersect.share_level` does;
* injectivity decided at generation time (:func:`injective_positions`):
  a candidate is compared only with the earlier positions the plan does
  not already prove distinct from it.

``index_slices``, ``extension_tests``, ``gallop_steps`` (the window's),
``intersect_comparisons`` (the merge's), ``extensions_generated``,
``subgraphs_enumerated`` and ``results_emitted`` accumulate in locals
and are added to ``metrics`` once per call.  The graph's arrays,
``metrics`` and :data:`~repro.core.intersect.GALLOP_CROSSOVER` are call
arguments, read on every call: nothing that depends on a graph is
written into the source, and the slice keys are bound through the exec
namespace, never spelled in it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache, partial
from itertools import repeat
from math import comb
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .intersect import (
    _gallop,
    _leapfrog,
    _slice_size,
    plan_reads,
    shares_candidates,
    symmetry_order,
)
from .subgraph import SubgraphResult

__all__ = ["MAX_POSITIONS", "Shape", "injective_positions", "level_executor"]

#: Longest matching order an executor is generated for: one ``for``
#: statement per matched position, and CPython refuses more than 20
#: statically nested blocks.  Longer patterns are enumerated.
MAX_POSITIONS = 16

Backs = Tuple[Tuple[int, int], ...]
Checks = Tuple[Tuple[int, bool], ...]
#: ``(labels, back_edges, checks, bases, leaf, tail)``: per-position
#: tuples (``bases`` from :func:`~repro.core.intersect.base_positions`),
#: ``leaf`` ``"count"`` with ``tail = (tau, arrangements)`` or ``"list"``
#: with ``tail = None``.
Shape = Tuple[
    tuple, Tuple[Backs, ...], Tuple[Checks, ...], Tuple[Optional[int], ...],
    str, Optional[Tuple[int, int]],
]


def injective_positions(
    labels: Sequence[object],
    back_edges: Sequence[Sequence[Tuple[int, int]]],
    checks: Sequence[Sequence[Tuple[int, bool]]],
) -> List[Tuple[int, ...]]:
    """Per position, the earlier positions a candidate must be tested against.

    A candidate at position ``p`` cannot be the vertex matched at an
    earlier ``q`` — so needs no test against it — when ``q`` carries
    another vertex label (candidates come from label-partitioned slices
    and roots carry the first position's label), when ``q`` is a back
    neighbour of ``p`` (the candidate is adjacent to it, and graphs have
    no self-loops), or when the symmetry checks of positions ``0..p``
    order the two vertices, directly or through a chain of checks.  The
    checks of later positions do not count: they hold only once those
    positions are matched.
    """
    out: List[Tuple[int, ...]] = []
    for p, (below, above, _) in enumerate(symmetry_order(checks)):
        label = labels[p]
        backs = {q for q, _ in back_edges[p]}
        out.append(
            tuple(
                q
                for q in range(p)
                if labels[q] == label
                and q not in backs
                and q not in below
                and q not in above
            )
        )
    return out


class _Source:
    """Lines of generated code at the current indentation."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.depth = 0

    def __call__(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def open(self, text: str) -> None:
        self(text)
        self.depth += 1

    def close(self, levels: int = 1) -> None:
        self.depth -= levels


def _window(
    src: _Source, above: List[int], below: List[int], arr: str = "lnbr"
) -> None:
    """Narrow ``arr[lo:hi]`` to the symmetry window, as ``range_bounds``.

    An empty window (``lower >= upper``) empties the slice unmetered.  A
    bound no check sets — ``0`` below, ``n_vertices`` above — can never
    narrow a slice of vertex ids, so its search is not emitted.
    """
    if above:
        bound = " + 1, ".join(f"v{q}" for q in above) + " + 1"
        src(f"lower = max({bound})" if len(above) > 1 else f"lower = {bound}")
    if below:
        bound = ", ".join(f"v{q}" for q in below)
        src(f"upper = min({bound})" if len(below) > 1 else f"upper = {bound}")
    lower = "lower" if above else "0"
    upper = "upper" if below else "n_vertices"
    src.open(f"if {lower} < {upper}:")
    if above:
        src.open(f"if hi > lo and lower > {arr}[lo]:")
        src("n_gallop += (hi - lo).bit_length()")
        src(f"lo = bisect_left({arr}, lower, lo, hi)")
        src.close()
    if below:
        src.open(f"if hi > lo and upper <= {arr}[hi - 1]:")
        src("n_gallop += (hi - lo).bit_length()")
        src(f"hi = bisect_left({arr}, upper, lo, hi)")
        src.close()
    src.close()
    src.open("else:")
    src("hi = lo")
    src.close()


def _candidates(
    src: _Source, p: int, k: int, checks: Sequence[Tuple[int, bool]],
    sized: bool = False,
) -> None:
    """Code leaving position ``p``'s candidates (before injectivity) in
    ``c{p}``, metered as its :func:`~repro.core.intersect.compile_level`
    program: one ``index_slices`` per lookup up to the first missing
    segment (``s{p}_{i}``, looked up where the back neighbour is bound),
    the window on the smallest slice, the intersection, one
    ``extension_tests`` per candidate.  A ``sized`` position (the count
    leaf) is only measured and tested for membership, so the merge
    leaves its members unsorted."""
    above = [q for q, greater in checks if greater]
    below = [q for q, greater in checks if not greater]
    for i in range(k):
        src("n_slices += 1")
        src.open(f"if s{p}_{i} is None:")
        src(f"c{p} = ()")
        src.close()
        src.open("else:")
    if k == 1:
        src(f"lo, hi = s{p}_0")
        if checks:
            _window(src, above, below)
        src(f"c{p} = lnbr[lo:hi]")
        src("n_tests += hi - lo")
    elif k == 2:
        src(f"lo, hi = s{p}_0")
        src(f"blo, bhi = s{p}_1")
        src.open("if bhi - blo < hi - lo:")
        src("lo, hi, blo, bhi = blo, bhi, lo, hi")
        src.close()
        if checks:
            _window(src, above, below)
        _pair(src, p, sized, "lnbr", "lnbr")
    else:
        triples = ", ".join(f"(lnbr, *s{p}_{i})" for i in range(k))
        src(f"sl = [{triples}]")
        if checks:
            # The first smallest slice is the one the sort below keeps
            # first; narrowing it keeps it there.
            src("smallest = min(sl, key=slice_size)")
            src("lo = smallest[1]")
            src("hi = smallest[2]")
            _window(src, above, below)
            src("sl[sl.index(smallest)] = (lnbr, lo, hi)")
        src("sl.sort(key=slice_size)")
        src.open("if sl[0][2] > sl[0][1]:")
        src(f"c{p} = leapfrog(sl, metrics)")
        src(f"n_tests += len(c{p})")
        src.close()
        src.open("else:")
        src(f"c{p} = ()")
        src.close()
    src.close(k)


def _pair(src: _Source, p: int, sized: bool, arr: str, barr: str) -> None:
    """Intersect ``arr[lo:hi]`` (the smaller) with ``barr[blo:bhi]`` into
    ``c{p}``, as :func:`~repro.core.intersect.intersect_slices` does for
    two slices: empty, galloping past the crossover, else the merge."""
    src.open("if lo >= hi:")
    src(f"c{p} = ()")
    src.close()
    src.open("elif bhi - blo >= crossover * (hi - lo):")
    src(f"c{p} = gallop({arr}, lo, hi, {barr}, blo, bhi, metrics)")
    src(f"n_tests += len(c{p})")
    src.close()
    # The body of intersect._merge, its counter kept in a local.
    src.open("else:")
    src(f"last = {arr}[hi - 1]")
    src(f"blast = {barr}[bhi - 1]")
    src.open("if last <= blast:")
    src(f"bhi = bisect_right({barr}, last, blo, bhi)")
    src.close()
    src.open("else:")
    src(f"hi = bisect_right({arr}, blast, lo, hi)")
    src.close()
    src(f"common = set({arr}[lo:hi]).intersection({barr}[blo:bhi])")
    src("n_comps += hi - lo + bhi - blo - len(common)")
    src(f"c{p} = common" if sized else f"c{p} = sorted(common)")
    src(f"n_tests += len(c{p})")
    src.close()


def _reused_candidates(
    src: _Source, p: int, k: int, checks: Sequence[Tuple[int, bool]],
    sized: bool, base: int, base_list: str, start: Optional[str],
) -> None:
    """Code leaving position ``p``'s candidates in ``c{p}`` from the list
    ``base_list`` of position ``base``, metered as its
    :func:`~repro.core.intersect.compile_reused_level` program: one
    ``index_slices`` per added back edge up to the first missing
    segment, the list — from ``start``, just past the base's vertex,
    when ``p`` must exceed it — narrowed to the window, the intersection
    with the added slices, one ``extension_tests`` per candidate."""
    above = [q for q, greater in checks if greater]
    below = [q for q, greater in checks if not greater]
    if start is not None and not below:
        # Every element past the base's vertex exceeds it, so its bound
        # never narrows; only the emptiness test (with upper bounds)
        # could read it.
        above.remove(base)
    for i in range(k):
        src("n_slices += 1")
        src.open(f"if s{p}_{i} is None:")
        src(f"c{p} = ()")
        src.close()
        src.open("else:")
    src(f"lo = {start or 0}")
    src(f"hi = len({base_list})")
    if above or below:
        _window(src, above, below, base_list)
    if k == 0:
        src(f"c{p} = {base_list}[lo:hi]")
        src("n_tests += hi - lo")
    elif k == 1:
        # The base's list first: it stays the smaller side on a tie.
        src(f"blo, bhi = s{p}_0")
        src.open("if bhi - blo < hi - lo:")
        src("arr = lnbr")
        src(f"barr = {base_list}")
        src("lo, hi, blo, bhi = blo, bhi, lo, hi")
        src.close()
        src.open("else:")
        src(f"arr = {base_list}")
        src("barr = lnbr")
        src.close()
        _pair(src, p, sized, "arr", "barr")
    else:
        triples = ", ".join(f"(lnbr, *s{p}_{i})" for i in range(k))
        src(f"sl = [({base_list}, lo, hi), {triples}]")
        src("sl.sort(key=slice_size)")
        src.open("if sl[0][2] > sl[0][1]:")
        src(f"c{p} = leapfrog(sl, metrics)")
        src(f"n_tests += len(c{p})")
        src.close()
        src.open("else:")
        src(f"c{p} = ()")
        src.close()
    src.close(k)


def _shared_candidates(
    src: _Source, p: int, reads: Sequence[int], emit: Callable[[], None],
    deltas: Sequence[Tuple[str, str]],
) -> None:
    """The code ``emit`` writes behind position ``p``'s per-root memo,
    keyed on the positions it reads; a hit replays ``deltas``, the
    ``(local, now)`` counters a miss moved."""
    key = ", ".join(f"v{q}" for q in reads)
    src(f"key = ({key},)" if len(reads) > 1 else f"key = {key}")
    src(f"entry = memo{p}.get(key)")
    src.open("if entry is None:")
    for i, (_, now) in enumerate(deltas):
        src(f"m{i} = {now}")
    emit()
    stored = ", ".join(f"{now} - m{i}" for i, (_, now) in enumerate(deltas))
    src(f"memo{p}[key] = (c{p}, {stored})")
    src.close()
    src.open("else:")
    src(f"c{p}, " + ", ".join(f"d{i}" for i in range(len(deltas))) + " = entry")
    for i, (local, _) in enumerate(deltas):
        src(f"{local} += d{i}")
    src.close()


def _deltas(
    k: int, checks: Sequence[Tuple[int, bool]], base: Optional[int]
) -> List[Tuple[str, str]]:
    """The ``(local, now)`` counters a memo entry of a level replays:
    those its code can move."""
    deltas = [("n_slices", "n_slices"), ("n_tests", "n_tests")]
    # The kernels meter gallop steps into ``metrics`` themselves; a reused
    # level intersects one slice more than it looks up.
    pairs = k + (base is not None)
    if pairs >= 2:
        deltas.append(("n_gallop", "n_gallop + metrics.gallop_steps"))
    elif checks:
        deltas.append(("n_gallop", "n_gallop"))
    if pairs == 2:
        deltas.append(("n_comps", "n_comps"))
    return deltas


def _list_leaf(
    src: _Source, found: str, cut: int, back_edges: Sequence[Backs]
) -> None:
    """One ``SubgraphResult`` per candidate in ``found``: vertices in
    matching order, per position one ``neighbor_set(back).get(v, -1)``
    per back edge in back-edge order, and the first match's pattern."""
    src.open(f"if {found}:")
    src(f"n_leaves += len({found})")
    prefix = "(" + "".join(f"v{p}, " for p in range(cut)) + ")"
    src(f"prefix = {prefix}")
    src.open("if pattern is None:")
    src(f"pattern = first_pattern(prefix + ({found}[0],))")
    src.close()
    inner = [
        f"neighbor_set(v{back}).get(v{p}, -1), "
        for p in range(1, cut)
        for back, _ in back_edges[p]
    ]
    src(f"edges = ({''.join(inner)})")
    last = [back for back, _ in back_edges[cut]]
    if last:
        columns = ", ".join(
            f"map(neighbor_set(v{back}).get, {found}, repeat(-1))" for back in last
        )
        src(
            "out += [SubgraphResult(prefix + (v,), edges + tail, pattern) "
            f"for v, tail in zip({found}, zip({columns}))]"
        )
    else:
        src(f"out += [SubgraphResult(prefix + (v,), edges, pattern) for v in {found}]")
    src.close()


def _generate(shape: Shape) -> Tuple[str, Dict[str, object]]:
    """The executor's source and the namespace it is executed in."""
    labels, back_edges, checks, bases, leaf, tail = shape
    n = len(labels)
    if n > MAX_POSITIONS:
        raise ValueError(
            f"a level walk is generated for at most {MAX_POSITIONS} "
            f"positions, got {n}"
        )
    cut = n - tail[0] if leaf == "count" else n - 1
    injective = injective_positions(labels, back_edges, checks)
    namespace: Dict[str, object] = {
        "bisect_left": bisect_left,
        "bisect_right": bisect_right,
        "gallop": _gallop,
        "leapfrog": _leapfrog,
        "slice_size": _slice_size,
        "comb": comb,
        "repeat": repeat,
        "SubgraphResult": SubgraphResult,
    }
    # lookups[p]: the back edges whose slices position p looks up — all
    # of them, or those its base lacks.
    lookups = [
        backs if base is None else [e for e in backs if e not in back_edges[base]]
        for backs, base in zip(back_edges, bases)
    ]
    # hoisted[q]: (position, lookup index) of every lookup keyed on the
    # vertex at q, issued in the loop that binds it.
    hoisted: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for p in range(1, cut + 1):
        for i, (q, elabel) in enumerate(lookups[p]):
            hoisted[q].append((p, i))
            namespace[f"K{p}_{i}"] = (labels[p], elabel)
    reads = plan_reads(back_edges, checks, bases)
    shared = [p for p in range(1, cut + 1) if shares_candidates(p, reads[p])]
    # Per base: the list its users read (the candidates before the
    # injectivity filter), and where a user that must exceed the base's
    # vertex starts in it — the loop's own index when the loop walks
    # that list itself.
    base_list: Dict[int, str] = {}
    suffix_start: Dict[int, str] = {}
    for p in range(1, cut + 1):
        q = bases[p]
        if q is None:
            continue
        base_list[q] = f"b{q}" if injective[q] else f"c{q}"
        if (q, True) in checks[p]:
            suffix_start[q] = (
                f"bisect_right(b{q}, v{q})" if injective[q] else f"i{q} + 1"
            )

    src = _Source()
    src.open(
        "def walk(index, lnbr, n_vertices, neighbor_set, metrics, crossover, "
        "roots, first_pattern):"
    )
    src("n_slices = n_tests = n_gallop = n_comps = n_walked = n_leaves = 0")
    if leaf == "count":
        src("total = 0")
    else:
        src("out = []")
        src("pattern = None")

    def bind(q: int) -> None:
        lookups = hoisted[q]
        if len(lookups) == 1:
            ((p, i),) = lookups
            src(f"s{p}_{i} = index[v{q}].get(K{p}_{i})")
        elif lookups:
            src(f"row = index[v{q}]")
            for p, i in lookups:
                src(f"s{p}_{i} = row.get(K{p}_{i})")

    if cut == 0:
        # The roots are the leaf's candidates (a one-vertex pattern).
        if leaf == "count":
            src("total = len(roots)")
        else:
            _list_leaf(src, "roots", 0, back_edges)
    else:
        src.open("for v0 in roots:")
        for p in shared:
            src(f"memo{p} = {{}}")
        bind(0)
        for p in range(1, cut + 1):
            k = len(lookups[p])
            sized = p == cut and leaf == "count"
            q = bases[p]
            if q is None:
                emit = partial(_candidates, src, p, k, checks[p], sized)
            else:
                start = suffix_start[q] if (q, True) in checks[p] else None
                emit = partial(
                    _reused_candidates, src, p, k, checks[p], sized,
                    q, base_list[q], start,
                )
            if p in shared:
                _shared_candidates(src, p, reads[p], emit, _deltas(k, checks[p], q))
            else:
                emit()
            collide = injective[p]
            if sized:
                size = f"len(c{p})" + "".join(f" - (v{q} in c{p})" for q in collide)
                src(f"found = {size}")
                src("n_leaves += found")
                tau, arrangements = tail
                if tau == 1:
                    src("total += found")
                else:
                    src.open(f"if found >= {tau}:")
                    src(f"total += comb(found, {tau}) * {arrangements}")
                    src.close()
                continue
            if p in base_list and injective[p]:
                src(f"b{p} = c{p}")
            for q in collide:
                # A copy: the candidates may be a memo's entry.
                src.open(f"if v{q} in c{p}:")
                src(f"c{p} = [*c{p}]")
                src(f"c{p}.remove(v{q})")
                src.close()
            if p == cut:
                _list_leaf(src, f"c{p}", cut, back_edges)
            else:
                src(f"n_walked += len(c{p})")
                if p in suffix_start and not injective[p]:
                    src.open(f"for i{p}, v{p} in enumerate(c{p}):")
                else:
                    src.open(f"for v{p} in c{p}:")
                bind(p)
        src.depth = 1
    src("metrics.index_slices += n_slices")
    src("metrics.extension_tests += n_tests")
    src("metrics.gallop_steps += n_gallop")
    src("metrics.intersect_comparisons += n_comps")
    if cut:
        src("metrics.extensions_generated += n_walked + n_leaves")
        walked = "len(roots) + n_walked"
    else:
        walked = "0"
    if leaf == "count":
        src(f"metrics.subgraphs_enumerated += {walked}")
        src("return total")
    else:
        src(f"metrics.subgraphs_enumerated += {walked} + n_leaves")
        src("metrics.results_emitted += n_leaves")
        src("return out")
    return "\n".join(src.lines) + "\n", namespace


@lru_cache(maxsize=256)
def level_executor(shape: Shape) -> Callable[..., object]:
    """The generated walk of ``shape``, compiled on first use.

    ``walk(index, lnbr, n_vertices, neighbor_set, metrics, crossover,
    roots, first_pattern)`` matches the plan from ``roots`` (the level-0
    candidates, label-correct; the caller meters them) over the graph
    whose ``labeled_adjacency()`` is ``(index, lnbr, _)``, galloping at
    size ratio ``crossover``.  A ``"count"`` walk returns the number of
    matches, crediting ``C(|C|, tau) * arrangements`` at the orbit cut; a
    ``"list"`` walk returns their ``SubgraphResult`` list, its pattern
    ``first_pattern(first match's vertices)``.  Both meter ``metrics``
    exactly as the enumeration meters the same matches.
    """
    source, namespace = _generate(shape)
    exec(compile(source, "<generated level walk>", "exec"), namespace)
    return namespace["walk"]  # type: ignore[return-value]
