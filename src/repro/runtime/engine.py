"""Sequential DFS step executor (paper Algorithm 1).

One fractal step = a pipelined primitive sequence.  The executor walks the
primitive array recursively: an extension primitive visits the canonical
extensions of the current subgraph through the strategy's child visitor
(:meth:`~repro.core.enumerator.ExtensionStrategy.children` — one frame
per prefix that pushes, yields and pops each word; the executor never
calls ``push`` or ``pop`` itself), reusing one
:class:`~repro.core.subgraph.Subgraph` instance across the whole traversal;
filters prune; aggregations update their storage and *continue* to the next
primitive (a strict generalization of the paper's terminal aggregation —
identical when, as in every Appendix A application, nothing follows an
aggregation inside a step).  Subgraphs that reach the end of the final
step are emitted to the sink (the output operators of Figure 5).

Aggregations whose uid is in ``cached_uids`` were computed by an earlier
step and are skipped — the reuse rule of Algorithm 2.

Not every step comes here: a pure pattern count or listing (the step
planner's ``"orbit"`` / ``"list"`` modes, :mod:`repro.runtime.stepplan`)
runs as ``PatternInducedStrategy.count_matches`` / ``list_matches``, a
level walk that keeps no ``Subgraph`` and emits what this executor would.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..core.aggregation import AggregationStorage
from ..core.computation import Computation
from ..core.enumerator import ExtensionStrategy
from ..core.primitives import (
    Aggregate,
    AggregationFilter,
    Expand,
    Filter,
    Primitive,
)

__all__ = ["run_step_sequential", "new_storages"]

Sink = Callable[[object], None]


def new_storages(
    primitives: Sequence[Primitive], cached_uids
) -> Dict[int, AggregationStorage]:
    """Fresh storage for every non-cached aggregation in a step."""
    storages: Dict[int, AggregationStorage] = {}
    for primitive in primitives:
        if isinstance(primitive, Aggregate) and primitive.uid not in cached_uids:
            storages[primitive.uid] = AggregationStorage(
                primitive.name,
                primitive.reduce_fn,
                primitive.agg_filter,
                filter_monotone=primitive.agg_filter_monotone,
            )
    return storages


def run_step_sequential(
    strategy: ExtensionStrategy,
    primitives: Sequence[Primitive],
    computation: Computation,
    cached_uids,
    sink: Optional[Sink] = None,
    root_words: Optional[List[int]] = None,
) -> Dict[int, AggregationStorage]:
    """Execute one fractal step depth-first on a single core.

    Args:
        strategy: the fractoid's extension strategy.
        primitives: the step's primitive sequence.
        computation: shared computation context (graph, metrics, views).
        cached_uids: aggregation uids already computed by earlier steps.
        sink: called with the live subgraph for every result reaching the
            end of the step (callers snapshot via ``subgraph.freeze()``).
        root_words: restrict the level-0 extensions to this partition
            (used by the distributed engine; None = the full graph).

    Returns:
        uid -> filled :class:`AggregationStorage` for this step's
        non-cached aggregations.
    """
    subgraph = strategy.make_subgraph()
    strategy.reset_state()
    storages = new_storages(primitives, cached_uids)
    metrics = computation.metrics
    views = computation.aggregation_views
    n = len(primitives)
    strategy_extensions = strategy.extensions
    children = strategy.children

    def process(idx: int) -> None:
        while idx < n:
            primitive = primitives[idx]
            kind = type(primitive)
            if kind is Expand:
                if subgraph.depth == 0 and root_words is not None:
                    extensions = root_words
                else:
                    extensions = strategy_extensions(subgraph)
                next_idx = idx + 1
                # Every extension is pushed exactly once; batching the
                # counter outside the loop leaves the final value intact.
                metrics.subgraphs_enumerated += len(extensions)
                if next_idx == n - 1 and sink is None:
                    # Leaf expand feeding a single trailing Aggregate
                    # (the motif/FSM shape): run the aggregate inline
                    # instead of recursing once per leaf.  Identical
                    # behavior — the recursive path would perform exactly
                    # this sequence and then return.
                    tail = primitives[next_idx]
                    if type(tail) is Aggregate:
                        storage = storages.get(tail.uid)
                        if storage is None:
                            for _ in children(subgraph, extensions):
                                pass
                            return
                        key_fn = tail.key_fn
                        value_fn = tail.value_fn
                        update_fn = tail.update_fn
                        if update_fn is not None:
                            add_inplace = storage.add_inplace
                            for _ in children(subgraph, extensions):
                                add_inplace(
                                    key_fn(subgraph, computation),
                                    subgraph,
                                    computation,
                                    value_fn,
                                    update_fn,
                                )
                        else:
                            add = storage.add
                            for _ in children(subgraph, extensions):
                                add(
                                    key_fn(subgraph, computation),
                                    value_fn(subgraph, computation),
                                )
                        metrics.aggregate_updates += len(extensions)
                        return
                for _ in children(subgraph, extensions):
                    process(next_idx)
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
                    if primitive.update_fn is not None:
                        storage.add_inplace(
                            key,
                            subgraph,
                            computation,
                            primitive.value_fn,
                            primitive.update_fn,
                        )
                    else:
                        storage.add(key, primitive.value_fn(subgraph, computation))
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
