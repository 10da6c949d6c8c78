"""Execution metrics.

The paper's evaluation is expressed in a handful of measurable quantities
— extension cost (EC), subgraphs enumerated, steals, shuffle traffic,
memory peaks, recovery work.  :data:`COUNTERS` declares each of them once;
:class:`Metrics`, the bundle that accompanies every execution and that
engines and extension strategies increment inline, derives its slots,
zeros, merge, snapshot and worker deltas from that table.
"""

from __future__ import annotations

from operator import add
from typing import Dict

__all__ = ["COUNTERS", "Metrics"]

# One row per counter: (name, zero, merge rule).  A counter's zero fixes
# its type (``0.0`` for the simulated-unit counters) and the merge rule is
# ``add`` or, for the two peaks, ``max``.  Row order is snapshot order.
COUNTERS = (
    # Extension cost (EC) — "the number of tests performed to determine
    # the set of candidate subgraph extensions" (§4.3); the dominant work
    # of any GPM task and the currency of the simulated-time cost model.
    # Then subgraphs enumerated, filter evaluations, aggregation updates.
    ("extension_tests", 0, add),
    ("extensions_generated", 0, add),
    ("subgraphs_enumerated", 0, add),
    ("results_emitted", 0, add),
    ("filter_calls", 0, add),
    ("filter_passed", 0, add),
    ("aggregate_updates", 0, add),
    ("adjacency_scans", 0, add),
    # Work-stealing activity: internal/external steals, steal messages.
    ("steals_internal", 0, add),
    ("steals_external", 0, add),
    ("steal_messages", 0, add),
    ("steal_work_units", 0.0, add),
    # Aggregation-shuffle traffic — entries/words shipped driver-ward
    # after the worker-level combine, combine input/output entry counts
    # (their ratio is the map-side combine ratio) and metered combine/ship
    # units.  Kept strictly separate from the steal counters so
    # communication-overhead tables can attribute each.
    ("agg_entries_shipped", 0, add),
    ("agg_words_shipped", 0, add),
    ("agg_messages", 0, add),
    ("agg_ship_units", 0.0, add),
    ("agg_combine_entries_in", 0, add),
    ("agg_combine_entries_out", 0, add),
    ("agg_combine_units", 0.0, add),
    # Memory footprints (enumerator state, aggregation storage).
    ("peak_enumerator_bytes", 0, max),
    ("peak_aggregation_entries", 0, max),
    # Fault handling — injected/detected failures, detection latency,
    # re-enumerated (recovered) work, wasted work units and wasted EC,
    # steal retries and message-fault counts.  Zero in failure-free runs;
    # under a fault plan they quantify the cost of the paper's
    # from-scratch recovery story while results stay identical.
    ("failures_injected", 0, add),
    ("failures_detected", 0, add),
    ("detection_latency_units", 0.0, add),
    ("reenumerated_frames", 0, add),
    ("reenumerated_extensions", 0, add),
    ("wasted_work_units", 0.0, add),
    ("wasted_extension_tests", 0, add),
    ("steal_retries", 0, add),
    ("steal_messages_dropped", 0, add),
    ("steal_messages_duplicated", 0, add),
    ("steal_messages_delayed", 0, add),
    # Scheduler efficiency — event-loop pops and lazily-invalidated stale
    # heap entries, idle-core parking (park events, wake notifications,
    # parked simulated time), victim-scan work of the stealable registry
    # and the extensions moved per steal.  These meter the *scheduler*,
    # not the mined workload: results are identical whichever policy runs.
    ("scheduler_events", 0, add),
    ("scheduler_requeues", 0, add),
    ("cores_parked", 0, add),
    ("wake_events", 0, add),
    ("parked_units", 0.0, add),
    ("victim_scan_steps", 0, add),
    ("steal_chunk_extensions", 0, add),
    # The ``steal_policy="adaptive"`` controller (all zero under "one"):
    # steal-degree AIMD adjustments, victims chosen over a nearer
    # round-robin candidate because their channel was cheaper, and
    # controller-sized steals plus the extensions they moved (their ratio
    # is the mean adaptive chunk size).
    ("steal_degree_adjustments", 0, add),
    ("victim_cost_skips", 0, add),
    ("adaptive_steals", 0, add),
    ("adaptive_chunk_extensions", 0, add),
    # Pattern-matching candidate kernels — back-edge ``edge_between``
    # probes of the legacy pattern strategy, sorted-set intersection
    # comparisons and galloping/binary-search steps of the indexed kernel,
    # and labeled-adjacency slice lookups.  ``extension_tests`` stays the
    # per-candidate test count under either kernel; these expose *how* the
    # candidates were produced so the cost model can price the cheaper
    # indexed work.
    ("back_edge_probes", 0, add),
    ("intersect_comparisons", 0, add),
    ("gallop_steps", 0, add),
    ("index_slices", 0, add),
    # Multiprocess supervision — real worker processes lost to crashes,
    # hangs or stragglers and respawned replacements, chunk leases
    # re-executed after a worker death or lost result message, and chunks
    # quarantined to the driver's sequential path after repeatedly killing
    # their workers.  Zero on fault-free runs and on every other backend.
    ("workers_lost", 0, add),
    ("workers_respawned", 0, add),
    ("chunks_reexecuted", 0, add),
    ("chunks_quarantined", 0, add),
    # Pattern-decomposition counting — core embeddings visited by the
    # decomposed kernel, fringe-block count evaluations (the "sub-pattern
    # count units" of the inclusion–exclusion combine), inclusion–exclusion
    # terms evaluated, and steps where a decomposition was requested but
    # the planner/chooser fell back to enumeration.  Zero unless a pattern
    # fractoid's "decomposed" kernel (the default) plans a step, so the
    # other kernels' cost arithmetic is untouched.
    ("decomp_core_embeddings", 0, add),
    ("decomp_blocks", 0, add),
    ("decomp_terms", 0, add),
    ("decomp_fallbacks", 0, add),
    # Symmetry breaking — restriction-set plans served from the
    # per-pattern cache, and embeddings credited by orbit-multiplicity
    # counting instead of being walked: the work the GraphZero-style
    # kernel *skips*.  ``subgraphs_enumerated`` counts only walked tree
    # nodes on counting-only steps; ``results_emitted`` still reports the
    # exact embedding count.
    ("symmetry_cache_hits", 0, add),
    ("orbit_multiplied_embeddings", 0, add),
)


class Metrics:
    """Mutable counter bundle threaded through an execution."""

    __slots__ = tuple(name for name, _, _ in COUNTERS)

    def __init__(self):
        for name, zero, _ in COUNTERS:
            setattr(self, name, zero)

    def merge(self, other: "Metrics") -> None:
        """Accumulate counters from another instance (peaks take max)."""
        for name, _, rule in COUNTERS:
            setattr(self, name, rule(getattr(self, name), getattr(other, name)))

    def snapshot(self) -> Dict[str, float]:
        """Counters as a plain dict (for reports and tests)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def delta_since(self, before: Dict[str, float]) -> Dict[str, float]:
        """Counters accumulated since ``before``, an earlier snapshot.

        Peaks are shipped absolute, so merging the delta into the bundle
        ``before`` describes yields this one.  This is what a worker
        process ships back per chunk.
        """
        delta = self.snapshot()
        for name, _, rule in COUNTERS:
            if rule is not max:
                delta[name] -= before[name]
        return delta

    @classmethod
    def from_snapshot(cls, data: Dict[str, float]) -> "Metrics":
        """Rebuild an instance from a :meth:`snapshot` dict.

        Unknown keys are rejected (they indicate a version skew between
        the process that produced the snapshot and this one); missing
        keys keep their zero default, so snapshots from older releases
        still load.  This is the wire format worker processes use to
        ship their counters back to the driver.
        """
        metrics = cls()
        for name, value in data.items():
            if name not in cls.__slots__:
                raise ValueError(f"unknown metrics counter {name!r}")
            setattr(metrics, name, value)
        return metrics

    def __repr__(self) -> str:
        changed = ", ".join(
            f"{name}={getattr(self, name)!r}"
            for name, zero, _ in COUNTERS
            if getattr(self, name) != zero
        )
        return f"Metrics({changed})"
