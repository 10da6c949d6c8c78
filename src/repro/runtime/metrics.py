"""Execution metrics.

The paper's evaluation is expressed in a handful of measurable quantities:

* **extension cost (EC)** — "the number of tests performed to determine the
  set of candidate subgraph extensions" (§4.3); the dominant work of any
  GPM task and the currency of our simulated-time cost model;
* subgraphs enumerated, filter evaluations, aggregation updates;
* work-stealing activity (internal/external steals, steal messages);
* aggregation-shuffle traffic — entries/words shipped driver-ward after
  the worker-level combine, combine input/output entry counts (their
  ratio is the map-side combine ratio) and metered combine/ship units.
  Kept strictly separate from steal counters so communication-overhead
  tables can attribute each;
* memory footprints (enumerator state, aggregation storage);
* fault handling — injected/detected failures, detection latency,
  re-enumerated (recovered) work, wasted work units and wasted EC,
  steal retries and message-fault counts.  These stay zero in
  failure-free runs; under a fault plan they quantify the cost of the
  paper's from-scratch recovery story while results stay identical;
* scheduler efficiency — event-loop pops and lazily-invalidated stale
  heap entries, idle-core parking (park events, wake notifications,
  parked simulated time), victim-scan work of the stealable registry,
  and the extensions moved per steal.  These meter the *scheduler*,
  not the mined workload: results are identical whichever policy runs.
  Under ``steal_policy="adaptive"`` four more counters track the
  controller (all zero under ``"one"``): steal-degree AIMD
  adjustments (``steal_degree_adjustments``), victims chosen over a
  nearer round-robin candidate because their channel was cheaper
  (``victim_cost_skips``), and controller-sized steals plus the
  extensions they moved (``adaptive_steals`` /
  ``adaptive_chunk_extensions`` — their ratio is the mean adaptive
  chunk size);
* partitioned graph access — adjacency fetches split into local (the
  pushed word's partition owner is the executing worker) and remote
  (owned elsewhere: a real deployment would ship the adjacency list
  across workers).  Both stay zero unless a partition strategy is
  configured, so unpartitioned runs are byte-identical to prior
  releases; under a partition they are the quantity that separates
  hash from vertex-cut placement;
* pattern-matching candidate kernels — back-edge ``edge_between``
  probes of the legacy pattern strategy, sorted-set intersection
  comparisons and galloping/binary-search steps of the indexed kernel,
  and labeled-adjacency slice lookups.  ``extension_tests`` stays the
  per-candidate test count under either kernel; these counters expose
  *how* the candidates were produced so the cost model can price the
  cheaper indexed work;
* pattern-decomposition counting — core embeddings visited by the
  decomposed kernel (``decomp_core_embeddings``), fringe-block count
  evaluations (``decomp_blocks`` — the "sub-pattern count units" of the
  inclusion–exclusion combine), inclusion–exclusion terms evaluated
  (``decomp_terms``) and steps where a decomposition was requested but
  the planner/chooser fell back to enumeration (``decomp_fallbacks``).
  All zero unless a pattern fractoid's ``"decomposed"`` kernel (the
  default) plans a step, so the other kernels' cost arithmetic is
  untouched;
* multiprocess supervision — real worker processes lost to crashes,
  hangs or stragglers (``workers_lost``) and respawned replacements,
  chunk leases re-executed after a worker death or lost result message,
  and chunks quarantined to the driver's sequential path after
  repeatedly killing their workers.  All zero on fault-free runs and on
  every other backend;
* symmetry breaking — restriction-set plans served from the per-pattern
  cache (``symmetry_cache_hits``) and embeddings credited by
  orbit-multiplicity counting instead of being walked individually
  (``orbit_multiplied_embeddings``).  The latter is the work the
  GraphZero-style kernel *skips*: ``subgraphs_enumerated`` now counts
  only walked tree nodes on counting-only steps, while
  ``results_emitted`` still reports the exact embedding count.

A single :class:`Metrics` instance accompanies every execution; engines and
extension strategies increment its counters inline.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["Metrics"]


class Metrics:
    """Mutable counter bundle threaded through an execution."""

    __slots__ = (
        "extension_tests",
        "extensions_generated",
        "subgraphs_enumerated",
        "results_emitted",
        "filter_calls",
        "filter_passed",
        "aggregate_updates",
        "adjacency_scans",
        "steals_internal",
        "steals_external",
        "steal_messages",
        "steal_work_units",
        "agg_entries_shipped",
        "agg_words_shipped",
        "agg_messages",
        "agg_ship_units",
        "agg_combine_entries_in",
        "agg_combine_entries_out",
        "agg_combine_units",
        "peak_enumerator_bytes",
        "peak_aggregation_entries",
        "failures_injected",
        "failures_detected",
        "detection_latency_units",
        "reenumerated_frames",
        "reenumerated_extensions",
        "wasted_work_units",
        "wasted_extension_tests",
        "steal_retries",
        "steal_messages_dropped",
        "steal_messages_duplicated",
        "steal_messages_delayed",
        "scheduler_events",
        "scheduler_requeues",
        "cores_parked",
        "wake_events",
        "parked_units",
        "victim_scan_steps",
        "steal_chunk_extensions",
        "steal_degree_adjustments",
        "victim_cost_skips",
        "adaptive_steals",
        "adaptive_chunk_extensions",
        "back_edge_probes",
        "intersect_comparisons",
        "gallop_steps",
        "index_slices",
        "remote_adjacency_fetches",
        "local_adjacency_fetches",
        "workers_lost",
        "workers_respawned",
        "chunks_reexecuted",
        "chunks_quarantined",
        "decomp_core_embeddings",
        "decomp_blocks",
        "decomp_terms",
        "decomp_fallbacks",
        "symmetry_cache_hits",
        "orbit_multiplied_embeddings",
    )

    def __init__(self):
        self.extension_tests = 0
        self.extensions_generated = 0
        self.subgraphs_enumerated = 0
        self.results_emitted = 0
        self.filter_calls = 0
        self.filter_passed = 0
        self.aggregate_updates = 0
        self.adjacency_scans = 0
        self.steals_internal = 0
        self.steals_external = 0
        self.steal_messages = 0
        self.steal_work_units = 0.0
        self.agg_entries_shipped = 0
        self.agg_words_shipped = 0
        self.agg_messages = 0
        self.agg_ship_units = 0.0
        self.agg_combine_entries_in = 0
        self.agg_combine_entries_out = 0
        self.agg_combine_units = 0.0
        self.peak_enumerator_bytes = 0
        self.peak_aggregation_entries = 0
        self.failures_injected = 0
        self.failures_detected = 0
        self.detection_latency_units = 0.0
        self.reenumerated_frames = 0
        self.reenumerated_extensions = 0
        self.wasted_work_units = 0.0
        self.wasted_extension_tests = 0
        self.steal_retries = 0
        self.steal_messages_dropped = 0
        self.steal_messages_duplicated = 0
        self.steal_messages_delayed = 0
        self.scheduler_events = 0
        self.scheduler_requeues = 0
        self.cores_parked = 0
        self.wake_events = 0
        self.parked_units = 0.0
        self.victim_scan_steps = 0
        self.steal_chunk_extensions = 0
        self.steal_degree_adjustments = 0
        self.victim_cost_skips = 0
        self.adaptive_steals = 0
        self.adaptive_chunk_extensions = 0
        self.back_edge_probes = 0
        self.intersect_comparisons = 0
        self.gallop_steps = 0
        self.index_slices = 0
        self.remote_adjacency_fetches = 0
        self.local_adjacency_fetches = 0
        self.workers_lost = 0
        self.workers_respawned = 0
        self.chunks_reexecuted = 0
        self.chunks_quarantined = 0
        self.decomp_core_embeddings = 0
        self.decomp_blocks = 0
        self.decomp_terms = 0
        self.decomp_fallbacks = 0
        self.symmetry_cache_hits = 0
        self.orbit_multiplied_embeddings = 0

    def merge(self, other: "Metrics") -> None:
        """Accumulate counters from another instance (peaks take max)."""
        self.extension_tests += other.extension_tests
        self.extensions_generated += other.extensions_generated
        self.subgraphs_enumerated += other.subgraphs_enumerated
        self.results_emitted += other.results_emitted
        self.filter_calls += other.filter_calls
        self.filter_passed += other.filter_passed
        self.aggregate_updates += other.aggregate_updates
        self.adjacency_scans += other.adjacency_scans
        self.steals_internal += other.steals_internal
        self.steals_external += other.steals_external
        self.steal_messages += other.steal_messages
        self.steal_work_units += other.steal_work_units
        self.agg_entries_shipped += other.agg_entries_shipped
        self.agg_words_shipped += other.agg_words_shipped
        self.agg_messages += other.agg_messages
        self.agg_ship_units += other.agg_ship_units
        self.agg_combine_entries_in += other.agg_combine_entries_in
        self.agg_combine_entries_out += other.agg_combine_entries_out
        self.agg_combine_units += other.agg_combine_units
        self.failures_injected += other.failures_injected
        self.failures_detected += other.failures_detected
        self.detection_latency_units += other.detection_latency_units
        self.reenumerated_frames += other.reenumerated_frames
        self.reenumerated_extensions += other.reenumerated_extensions
        self.wasted_work_units += other.wasted_work_units
        self.wasted_extension_tests += other.wasted_extension_tests
        self.steal_retries += other.steal_retries
        self.steal_messages_dropped += other.steal_messages_dropped
        self.steal_messages_duplicated += other.steal_messages_duplicated
        self.steal_messages_delayed += other.steal_messages_delayed
        self.scheduler_events += other.scheduler_events
        self.scheduler_requeues += other.scheduler_requeues
        self.cores_parked += other.cores_parked
        self.wake_events += other.wake_events
        self.parked_units += other.parked_units
        self.victim_scan_steps += other.victim_scan_steps
        self.steal_chunk_extensions += other.steal_chunk_extensions
        self.steal_degree_adjustments += other.steal_degree_adjustments
        self.victim_cost_skips += other.victim_cost_skips
        self.adaptive_steals += other.adaptive_steals
        self.adaptive_chunk_extensions += other.adaptive_chunk_extensions
        self.back_edge_probes += other.back_edge_probes
        self.intersect_comparisons += other.intersect_comparisons
        self.gallop_steps += other.gallop_steps
        self.index_slices += other.index_slices
        self.remote_adjacency_fetches += other.remote_adjacency_fetches
        self.local_adjacency_fetches += other.local_adjacency_fetches
        self.workers_lost += other.workers_lost
        self.workers_respawned += other.workers_respawned
        self.chunks_reexecuted += other.chunks_reexecuted
        self.chunks_quarantined += other.chunks_quarantined
        self.decomp_core_embeddings += other.decomp_core_embeddings
        self.decomp_blocks += other.decomp_blocks
        self.decomp_terms += other.decomp_terms
        self.decomp_fallbacks += other.decomp_fallbacks
        self.symmetry_cache_hits += other.symmetry_cache_hits
        self.orbit_multiplied_embeddings += other.orbit_multiplied_embeddings
        self.peak_enumerator_bytes = max(
            self.peak_enumerator_bytes, other.peak_enumerator_bytes
        )
        self.peak_aggregation_entries = max(
            self.peak_aggregation_entries, other.peak_aggregation_entries
        )

    def snapshot(self) -> Dict[str, float]:
        """Counters as a plain dict (for reports and tests)."""
        return {name: getattr(self, name) for name in self.__slots__}

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
        return (
            f"Metrics(EC={self.extension_tests}, "
            f"subgraphs={self.subgraphs_enumerated}, "
            f"steals={self.steals_internal}+{self.steals_external})"
        )
