"""Step planning: decide once how a fractal step runs, count it one way.

The paper's driver plans fractal steps (Algorithm 2) and workers only
execute them (Algorithm 1).  This module draws that line for the
shortcuts past the enumeration: *what* a step runs as — a decomposed
count, an orbit-multiplicity count, a listing walk or a plain
enumeration — is decided by :func:`plan_step`, once, as one immutable
:class:`StepPlan`; the backends (:mod:`repro.runtime.backend`,
:mod:`repro.runtime.mp_backend`) only decide *where* it runs.
:func:`count_step` executes the two counting modes for all of them,
quarantine included.  See ``docs/internals.md`` ("Step planning").
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple

from ..graph.graph import Graph
from .costmodel import CostModel
from .metrics import Metrics

# ``repro.pattern.decompose`` itself is imported where a step first needs
# it, so runs that never plan a pattern count (motifs, FSM) never load
# it — and always as a module, which is what lets tests and the
# benchmark's spans wrap its functions.
if TYPE_CHECKING:
    from ..pattern.decompose import DecompositionPlan

__all__ = ["StepPlan", "plan_step", "count_step"]


@dataclass(frozen=True)
class StepPlan:
    """How one fractal step runs, as decided by :func:`plan_step`."""

    #: ``"decomposed"`` and ``"orbit"`` are the counting modes
    #: :func:`count_step` runs; ``"list"`` is the listing walk
    #: (``PatternInducedStrategy.list_matches``) and ``"enumerate"`` the
    #: enumeration, both run by the backend's own executor.
    mode: str
    decomposition: Optional[DecompositionPlan]
    #: The probe's kernel description plus the ``decomposition`` /
    #: ``orbit_count`` / ``list_walk`` decision records (``None`` for
    #: strategies without a selectable kernel).
    kernel_info: Optional[Dict[str, object]]
    #: ``Metrics.decomp_fallbacks`` this plan owes: 1 when the decomposed
    #: kernel was requested and the step does not run as its count.
    fallbacks: int


def walk_blockers(
    pattern,
    primitives: Sequence[object],
    collect: Optional[str],
    root_words: Optional[Sequence[int]],
) -> Tuple[Optional[str], Optional[str]]:
    """``(count, list)``: why the step is not a pure count / a listing.

    ``None`` where it is.  The one shape test: every shortcut needs
    every primitive an extension, one per pattern vertex.  A count
    (decomposed or orbit) also needs ``collect="count"`` and no roots; a
    listing needs ``collect="subgraphs"`` and walks from any roots.
    """
    from ..core.primitives import Expand

    if not all(isinstance(p, Expand) for p in primitives):
        shape = "workflow needs embeddings (non-extension primitives present)"
    elif len(primitives) != pattern.n_vertices:
        shape = "partial-pattern step (multi-step exploration)"
    else:
        shape = None
    count = listing = shape
    if shape is None:
        if collect != "count":
            count = f"collect={collect!r} needs embeddings, not counts"
        elif root_words is not None:
            count = "root-restricted step (resumed/partial work)"
        if collect != "subgraphs":
            listing = f"collect={collect!r} is not a listing"
    return count, listing


def _decide(
    probe,
    decomposition: Optional[DecompositionPlan],
    record: Optional[Dict[str, object]],
    count_blocker: Optional[str],
    list_blocker: Optional[str],
    needs_enumerators: Optional[str],
) -> StepPlan:
    """Assemble the plan value; the one place decision records are set."""
    kernel_info = probe.kernel_info()
    if kernel_info is None:
        return StepPlan("enumerate", None, None, 0)
    if record is not None:
        kernel_info["decomposition"] = record
    mode = "enumerate"
    if decomposition is not None:
        mode = "decomposed"
    elif needs_enumerators is None and probe.supports_level_walk():
        if count_blocker is None:
            tail, arrangements = probe.orbit_tail()
            kernel_info["orbit_count"] = {
                "executed": True, "tail": tail, "arrangements": arrangements
            }
            mode = "orbit"
        else:
            kernel_info["orbit_count"] = {"executed": False, "reason": count_blocker}
    if list_blocker is None:
        kernel_info["list_walk"] = {"executed": True}
        mode = "list"
    else:
        kernel_info["list_walk"] = {"executed": False, "reason": list_blocker}
    fallbacks = int(record is not None and decomposition is None)
    return StepPlan(mode, decomposition, kernel_info, fallbacks)


def plan_step(
    probe,
    graph: Graph,
    primitives: Sequence[object],
    collect: Optional[str],
    root_words: Optional[Sequence[int]],
    cost_model: CostModel,
    needs_enumerators: Optional[str] = None,
    enumerates_listings: Optional[str] = None,
) -> StepPlan:
    """Plan one fractal step for the backend that owns ``probe``.

    ``probe`` is a strategy of the step; only its answers are read,
    nothing is enumerated.  ``needs_enumerators`` is the
    backend's reason why this run needs real enumerators (fault
    injection), or ``None``: the backend states the
    fact, the consequence — no shortcut, the reason in the decision
    records — is drawn here.  ``enumerates_listings`` is the same for
    listing steps alone (the simulated cluster).  Strategies without a
    kernel (vertex/edge induced) get no records, the legacy kernel only
    the listing one.
    """
    wants_decomposed = probe.wants_decomposed_count()
    decomposition = record = count_blocker = None
    list_blocker = "kernel has no level walk"
    if probe.supports_level_walk():
        count_blocker, list_blocker = walk_blockers(
            probe.pattern, primitives, collect, root_words
        )
        list_blocker = needs_enumerators or enumerates_listings or list_blocker
    if wants_decomposed:
        from ..pattern import decompose

        reason = needs_enumerators or count_blocker
        if reason:
            record = decompose.fallback_info(reason)
        else:
            decomposition, record = decompose.plan_step_decomposition(
                probe.pattern, graph, primitives, collect, root_words, cost_model
            )
    return _decide(
        probe, decomposition, record, count_blocker, list_blocker,
        needs_enumerators,
    )


def count_step(
    step: StepPlan,
    graph: Graph,
    probe,
    metrics: Metrics,
    cost_model: CostModel,
    shares: int = 1,
    share_strategy: Optional[Callable[[Metrics], object]] = None,
    quarantine: bool = True,
) -> Tuple[StepPlan, Optional[float]]:
    """Run ``step`` if it is a counting step; returns ``(step, work_units)``.

    Who walks is the backend's to say.  Without a ``share_strategy`` the
    probe itself walks the whole step (sequential, multiprocess's
    in-driver counting): ``metrics`` must be the bundle it meters into,
    and the clock is that bundle.  With one, level-0 roots are split
    round-robin into ``shares`` simulated cores —
    ``share_strategy(share_metrics)`` builds each core's
    strategy, also when there is only one core — and the clock is the
    busiest share.  Raw subtotals are summed and only the merged total is
    divided by the plan's residual multiplicity (per-share subtotals
    need not be divisible).  The count lands in
    ``metrics.results_emitted`` (a counting sink is a no-op by contract,
    and there are no aggregation storages).

    A tripped division (:class:`~repro.pattern.decompose.DecompositionError`)
    books the walked work as wasted, rewrites the decision record to
    ``quarantined: ...`` and re-plans the step to an orbit count or an
    enumeration; ``quarantine=False`` re-raises instead.  ``work_units``
    is ``None`` when the caller must list or enumerate: with the
    *returned* plan's ``kernel_info``, and with ``metrics`` (fallbacks
    and waste metered here) merged into the executing bundle.
    """
    metrics.decomp_fallbacks += step.fallbacks
    while step.mode in ("decomposed", "orbit"):
        from ..pattern import decompose

        plan = step.decomposition
        # Metered apart from ``metrics`` until the multiplicity check has
        # passed: a tripped check books the walk as wasted instead.
        walked = Metrics()
        if share_strategy is None:
            # The probe's own walk is the whole step: it lists (and meters)
            # its level-0 roots itself, and the clock is the whole bundle.
            if plan is not None:
                raw = decompose.count_embeddings(plan, graph, walked)
            else:
                raw = probe.count_matches()
        else:
            # Shares model cores working in parallel.  Listing the roots is
            # driver setup, metered once with the counters the walk's own
            # level-0 listing books (so merged totals equal the probe-walk
            # totals exactly) but not on any core's clock: that is the
            # busiest share.
            if plan is not None:
                root_label = plan.core_labels[0]
            else:
                root_label = probe.pattern.vertex_labels[probe.order[0]]
            roots = graph.vertices_with_label(root_label)
            walked.index_slices += 1
            walked.extension_tests += len(roots)
            if plan is None:
                walked.extensions_generated += len(roots)
            raw = 0
            busiest = 0.0
            for share in range(shares):
                share_roots = roots[share::shares]
                if not share_roots:
                    continue
                share_metrics = Metrics()
                if plan is not None:
                    raw += decompose.count_embeddings(
                        plan, graph, share_metrics, share_roots
                    )
                else:
                    strategy = share_strategy(share_metrics)
                    raw += strategy.count_matches(share_roots)
                busiest = max(busiest, cost_model.step_units(share_metrics))
                walked.merge(share_metrics)
        if plan is not None:
            try:
                raw = decompose.instance_count(plan, raw)
            except decompose.DecompositionError as exc:
                if not quarantine:
                    raise
                # The plan's multiplicity bookkeeping is inconsistent: go
                # around again in a mode that needs no such arithmetic.  A
                # step that had a plan is a pure count no backend blocked.
                warnings.warn(str(exc), RuntimeWarning, stacklevel=3)
                metrics.wasted_extension_tests += walked.extension_tests
                metrics.wasted_work_units += cost_model.step_units(walked)
                record = decompose.fallback_info(f"quarantined: {exc}")
                listing = step.kernel_info["list_walk"]["reason"]
                step = _decide(probe, None, record, None, listing, None)
                metrics.decomp_fallbacks += step.fallbacks
                continue
        metrics.merge(walked)
        metrics.results_emitted = raw
        if share_strategy is None:
            return step, cost_model.step_units(metrics)
        return step, busiest
    return step, None
