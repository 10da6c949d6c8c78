"""Deterministic event-driven cluster engine with hierarchical work stealing.

This is the reproduction's substitute for Fractal's Spark + Akka runtime
(see DESIGN.md §1).  A cluster is W workers × C logical cores.  Each core
runs Algorithm 1 as an explicit state machine over a stack of
:class:`~repro.core.enumerator.SubgraphEnumerator` frames — one per
enumeration level, exactly the structure the paper's work stealing
operates on (§4.2):

* each core owns a simulated clock, advanced by the metered cost of the
  work it executes (extension tests, filters, aggregation updates);
* the scheduler always advances the globally earliest core, so the
  interleaving — and every reported number — is deterministic;
* an idle core first attempts an **internal steal** (WS_int): scan cores
  of its own worker and consume one extension from the victim's
  *shallowest* non-exhausted enumerator (shallow prefixes carry the most
  remaining work);
* failing that, an **external steal** (WS_ext): pick a victim core on
  another worker and pay the request-message plus prefix-serialization
  cost before the stolen prefix becomes runnable;
* level-0 extensions are partitioned round-robin by global core id, as in
  the paper's system initialization.

Both stealing levels can be disabled independently, reproducing the four
configurations of Figure 16.

Faults (see :mod:`~repro.runtime.faults`): a ``fault_plan`` kills cores
and workers on the simulated clock, slows stragglers, and injects
message faults into the external-steal protocol (loss → retry with
exponential backoff, duplication →
idempotent discard, delay → added latency).  A dead core's enumerators
become visible to survivors only once the heartbeat detector declares it
dead; they are then recovered by stealing, and whatever stealing cannot
reach — e.g. when one or both WS levels are disabled — is resubmitted by
a driver-level fallback and **re-enumerated from scratch** (the paper's
§4.1 recovery story).  Results and aggregations are byte-identical under
every fault schedule; only clocks and recovery metrics change.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.aggregation import (
    AggregationStorage,
    merge_storages_streaming,
    ship_words,
    stable_partition,
)
from ..core.computation import Computation
from ..core.enumerator import ExtensionStrategy, SubgraphEnumerator
from ..core.primitives import (
    AggregationFilter,
    Expand,
    Filter,
    Primitive,
)
from ..core.subgraph import Subgraph
from ..graph.graph import Graph
from ..pattern.pattern import PatternInterner
from .costmodel import DEFAULT_COST_MODEL, CostModel
from .engine import new_storages
from .faults import FailureDetector, FaultPlan, MessageChannel, _check_clock
from .metrics import Metrics

__all__ = ["ClusterConfig", "ClusterEngine", "ClusterStepResult", "CoreReport"]

_WAIT_EPSILON = 1.0  # units an idle core waits before re-checking for work


@dataclass(frozen=True)
class ClusterConfig:
    """Simulated cluster shape, work-stealing policy and fault schedule.

    ``fault_plan`` kills cores and workers, slows stragglers, injects
    message faults and tunes the failure detector; a plain core kill is
    ``FaultPlan(core_failures=(CoreFailure(core_id, clock_units),))``.
    A dead core's remaining enumerators are recovered by survivors —
    through stealing once the failure detector fires, or by driver-level
    resubmission and from-scratch
    re-enumeration when stealing cannot reach them (any work-stealing
    configuration is allowed) — so results are identical with and
    without failures.  At least one core must be free of kill deadlines.
    """

    workers: int = 1
    cores_per_worker: int = 4
    ws_internal: bool = True
    ws_external: bool = True
    cost_model: CostModel = DEFAULT_COST_MODEL
    include_setup_overhead: bool = True
    record_timeline: bool = False
    fault_plan: Optional[FaultPlan] = None
    # How much work one successful steal moves (docs/internals.md §10).
    # ``"one"`` — a single extension per steal, the paper's protocol and
    # the seed's clocks.
    # ``"adaptive"`` — the chunk size is tuned online by a deterministic
    # AIMD steal-degree controller driven by the scheduler's own signals
    # (steal comeback intervals, victim frame occupancy, parked-core
    # counts, per-core clock imbalance); victim selection additionally
    # prefers cheap channels from observed steal round-trip costs
    # (docs/internals.md §16).
    # Results and aggregation views are identical under both policies;
    # ``"adaptive"`` changes clocks, steal counts and message traffic.
    steal_policy: str = "one"
    # Optional heterogeneous interconnect: ``((src_worker, dst_worker,
    # units), ...)`` adds ``units`` to every external steal crossing that
    # worker pair (symmetric; the DLB ``offloadlatency`` scenario).
    # ``None`` (the default) keeps the uniform network of prior releases
    # — every clock bit-identical.
    link_latency: Optional[Tuple[Tuple[int, int, float], ...]] = None

    def __post_init__(self):
        for name in ("workers", "cores_per_worker"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be an int >= 1, got {value!r}")
        if self.steal_policy not in ("one", "adaptive"):
            raise ValueError(
                f"steal_policy must be 'one' or 'adaptive', "
                f"got {self.steal_policy!r}"
            )
        if self.link_latency is not None:
            links = tuple(tuple(entry) for entry in self.link_latency)
            object.__setattr__(self, "link_latency", links)
            seen = set()
            for entry in links:
                if len(entry) != 3:
                    raise ValueError(
                        f"link_latency entries must be (src_worker, "
                        f"dst_worker, units) triples, got {entry!r}"
                    )
                src, dst, units = entry
                for w in (src, dst):
                    if (
                        not isinstance(w, int)
                        or isinstance(w, bool)
                        or not 0 <= w < self.workers
                    ):
                        raise ValueError(
                            f"link_latency names worker {w!r}, but the "
                            f"cluster has workers 0..{self.workers - 1}"
                        )
                if src == dst:
                    raise ValueError(
                        f"link_latency connects worker {src} to itself"
                    )
                pair = (min(src, dst), max(src, dst))
                if pair in seen:
                    raise ValueError(
                        f"link_latency names worker pair {pair} twice"
                    )
                seen.add(pair)
                _check_clock(units, f"link latency for workers {src}<->{dst}")
        if self.fault_plan is not None:
            self.fault_plan.validate(self.workers, self.cores_per_worker)

    @property
    def total_cores(self) -> int:
        """Number of logical cores across all workers."""
        return self.workers * self.cores_per_worker

    def worker_of(self, core_id: int) -> int:
        """Worker index hosting a global core id."""
        return core_id // self.cores_per_worker

    def link_latency_map(self) -> Dict[Tuple[int, int], float]:
        """Symmetric ``(src_worker, dst_worker) -> extra units`` lookup."""
        links: Dict[Tuple[int, int], float] = {}
        for src, dst, units in self.link_latency or ():
            links[(src, dst)] = units
            links[(dst, src)] = units
        return links


@dataclass
class CoreReport:
    """Per-core outcome of one simulated step."""

    core_id: int
    worker_id: int
    finish_units: float
    busy_units: float
    steal_units: float
    steals_internal: int
    steals_external: int
    peak_stack_bytes: int
    # Aggregation-shuffle share of this core: the worker-level combine
    # and entry shipping are charged to the first surviving core of each
    # worker, so these are zero everywhere else.
    agg_ship_units: float = 0.0
    agg_entries_shipped: int = 0
    # Scheduler-efficiency view of this core: simulated units spent parked
    # (idle, waiting for stealable work to be published), wake
    # notifications received, and extensions moved by its steals.
    parked_units: float = 0.0
    wake_events: int = 0
    steal_chunk_extensions: int = 0
    # Adaptive-policy view of this core: AIMD degree adjustments its
    # steals triggered and victims it passed over for a cheaper channel.
    # Zero under ``"one"``.
    steal_degree_adjustments: int = 0
    victim_cost_skips: int = 0
    failed: bool = False
    # Merged (start, end) busy intervals in units, when timeline recording
    # is enabled (Figure 8).
    busy_intervals: List[Tuple[float, float]] = field(default_factory=list)


@dataclass
class ClusterStepResult:
    """Outcome of one fractal step on the simulated cluster.

    The recovery fields stay zero in failure-free runs.  ``failures`` is
    the number of cores that died this step; ``detection_latency_units``
    sums the heartbeat detector's lag per failure; ``recovered_frames`` /
    ``recovered_extensions`` count the orphaned enumerators (and their
    lost extensions) brought back by stealing or driver resubmission;
    ``recovery_units`` is the extra simulated work those recoveries cost
    (prefix re-derivation, resubmission messages, steal retry timeouts) —
    the makespan overhead attributable to faults.
    """

    storages: Dict[int, AggregationStorage]
    metrics: Metrics
    makespan_units: float
    makespan_seconds: float
    cores: List[CoreReport]
    steal_messages: int
    failures: int = 0
    detection_latency_units: float = 0.0
    recovered_frames: int = 0
    recovered_extensions: int = 0
    recovery_units: float = 0.0
    steal_retries: int = 0


class _Core:
    """Execution state of one simulated core."""

    __slots__ = (
        "core_id",
        "worker_id",
        "clock",
        "busy_units",
        "steal_units",
        "agg_units",
        "agg_entries_shipped",
        "steals_internal",
        "steals_external",
        "stack",
        "subgraph",
        "words",
        "strategy",
        "metrics",
        "computation",
        "done",
        "peak_stack_bytes",
        "busy_intervals",
        "record_timeline",
        "mem_tick",
        "failed",
        "death_clock",
        "detect_at",
        "slowdown",
        "stealable_count",
        "queued_clock",
        "parked",
        "pend",
        "park_start",
        "deadline",
    )

    def __init__(
        self,
        core_id: int,
        worker_id: int,
        strategy: ExtensionStrategy,
        computation: Computation,
        record_timeline: bool,
    ):
        self.core_id = core_id
        self.worker_id = worker_id
        self.clock = 0.0
        self.busy_units = 0.0
        self.steal_units = 0.0
        self.agg_units = 0.0
        self.agg_entries_shipped = 0
        self.steals_internal = 0
        self.steals_external = 0
        self.stack: List[SubgraphEnumerator] = []
        self.strategy = strategy
        self.subgraph: Subgraph = strategy.make_subgraph()
        # The subgraph's list that holds its words: a frame's prefix.
        self.words: List[int] = (
            self.subgraph.edges if strategy.mode == "edge" else self.subgraph.vertices
        )
        self.metrics = computation.metrics
        self.computation = computation
        self.done = False
        self.peak_stack_bytes = 0
        self.busy_intervals: List[Tuple[float, float]] = []
        self.record_timeline = record_timeline
        self.mem_tick = 0
        self.failed = False
        self.death_clock = 0.0
        self.detect_at = 0.0
        self.slowdown = None  # straggler factor fn, set when a plan has windows
        # Event-scheduler state (docs/internals.md §10): number of frames
        # on the stack that are stealable and non-exhausted (the registry
        # key), the clock stamped on this core's live heap entry (None =
        # not enqueued; stale entries are lazily discarded on pop), and
        # the parked-core bookkeeping — ``pend`` is the clock the core's
        # next *virtual* poll would run at, ``park_start`` when idleness
        # began (for the parked-time metric).
        self.stealable_count = 0
        self.queued_clock: Optional[float] = None
        self.parked = False
        self.pend = 0.0
        self.park_start = 0.0
        self.deadline: Optional[float] = None

    def stealable_frame(self) -> Optional[SubgraphEnumerator]:
        """Shallowest stealable frame with available extensions, if any."""
        for frame in self.stack:
            if frame.stealable and frame.has_next():
                return frame
        return None

    def charge(self, units: float) -> None:
        """Advance the clock by busy work (stragglers pay a slowdown factor)."""
        if units <= 0.0:
            return
        if self.slowdown is not None:
            units *= self.slowdown(self.core_id, self.clock)
        if self.record_timeline:
            start = self.clock
            end = start + units
            if self.busy_intervals and self.busy_intervals[-1][1] >= start:
                prev_start, _ = self.busy_intervals[-1]
                self.busy_intervals[-1] = (prev_start, end)
            else:
                self.busy_intervals.append((start, end))
        self.clock += units
        self.busy_units += units

    def track_memory(self) -> None:
        """Update the peak footprint of enumerator state (Table 2 model)."""
        words = 0
        for frame in self.stack:
            words += len(frame.prefix_words) + frame.remaining()
        words += len(self.subgraph.vertices) + len(self.subgraph.edges)
        footprint = words * 8
        if footprint > self.peak_stack_bytes:
            self.peak_stack_bytes = footprint
            if footprint > self.metrics.peak_enumerator_bytes:
                self.metrics.peak_enumerator_bytes = footprint


class _FaultRuntime:
    """Per-run fault state: kill deadlines, detector, channel, metrics.

    One instance serves one ``run_step``; the fault metrics collected
    here are engine-level (detection latency, recovery work) and merged
    into the step's totals at collection time.
    """

    __slots__ = ("deadlines", "detector", "channel", "metrics", "cost", "slowdown")

    def __init__(self, config: ClusterConfig, cost: CostModel):
        plan = config.fault_plan
        self.deadlines: Dict[int, float] = (
            plan.deadlines(config.workers, config.cores_per_worker)
            if plan is not None
            else {}
        )
        self.detector = plan.detector if plan is not None else FailureDetector()
        self.channel: Optional[MessageChannel] = None
        if (
            plan is not None
            and plan.message_faults is not None
            and plan.message_faults.active
        ):
            self.channel = MessageChannel(plan.message_faults, plan.seed)
        self.metrics = Metrics()
        self.cost = cost
        self.slowdown = (
            plan.slowdown if plan is not None and plan.has_stragglers else None
        )

    def on_death(self, core: _Core) -> None:
        """Kill a core: orphan its frames, schedule the detection point."""
        core.failed = True
        core.done = True
        core.death_clock = core.clock
        core.detect_at = self.detector.detect_at(core.clock)
        # The core's enumerators survive it (lineage recovery); any frame
        # it had claimed from a thief becomes public again.  They stay
        # invisible to thieves until the detector fires at ``detect_at``.
        for frame in core.stack:
            frame.stealable = True
        metrics = self.metrics
        metrics.failures_injected += 1
        metrics.failures_detected += 1  # the detector always converges
        metrics.detection_latency_units += core.detect_at - core.clock

    def note_recovery(
        self, core: _Core, ec_before: int, scans_before: int, extensions: int
    ) -> None:
        """Account one recovered orphan: wasted EC and re-derivation work.

        Called after the recovering core rebuilt the lost prefix; the
        counter deltas since ``*_before`` are the from-scratch
        re-enumeration cost, charged to the core's clock and booked as
        wasted work (it duplicates work the dead core already did).
        """
        cost = self.cost
        ec_delta = core.metrics.extension_tests - ec_before
        scan_delta = core.metrics.adjacency_scans - scans_before
        rebuild_units = (
            ec_delta * cost.extension_test_units
            + scan_delta * cost.adjacency_scan_units
        )
        if rebuild_units > 0.0:
            core.charge(rebuild_units)
            core.steal_units += rebuild_units
        metrics = self.metrics
        metrics.reenumerated_frames += 1
        metrics.reenumerated_extensions += extensions
        metrics.wasted_extension_tests += ec_delta
        metrics.wasted_work_units += rebuild_units


# Upper bound on the adaptive controller's steal degree (extensions per
# transfer).
_ADAPTIVE_MAX_DEGREE = 64.0


class _StealController:
    """Online steal-degree (AIMD) and victim-cost state for one step.

    Implements ``steal_policy="adaptive"`` (docs/internals.md §16).  Two
    concerns, both driven exclusively by signals the scheduler already
    books, so replays of the same config are bit-identical:

    **Steal degree** — one global ``degree`` (extensions moved per
    steal), AIMD-controlled on the simulated clock:

    * *multiplicative increase* (slow-start) while live imbalance
      signals are present — other thieves sit parked for lack of
      stealable work, or the victim's clock lags visibly behind the
      thief's (a straggler is feeding the whole cluster, and every
      extension left on it runs at the straggler's rate);
    * *additive increase* when a thief that just finished a stolen chunk
      comes back for more within a small multiple of the price it paid
      for the previous steal — the round-trip, not the work, is the
      bottleneck, so moving more per transfer amortizes it;
    * *multiplicative decrease* when a steal finds a victim frame too
      small to fill even half a chunk while no core is starved — work
      is fragmented and plentiful, so oversized chunks would just bounce
      between cores, and the degree halves back toward the
      single-extension policy that is optimal on uniform traffic.

    Orthogonally, a thief whose *own* observed processing rate is
    degraded (it sits in a straggler window) only ever takes a single
    extension: bulk-feeding a slow core turns the whole chunk into tail
    latency — the classic failure mode of static chunking under moving
    stragglers, and a per-steal decision no fixed policy can make.

    **Victim cost** — per worker-pair channel, an EMA of the observed
    external-steal round-trip price (request + prefix serialization +
    retry penalties + message delays + link latency, everything except
    the chunk payload, which depends on our own degree).  Channels start
    at the cost model's optimistic static prior and are updated after
    every completed external steal; victim selection prefers the
    cheapest observed channel, with the legacy round-robin distance as
    the deterministic tie-break.
    """

    AI_STEP = 1.0  # additive increase per fast comeback
    MI_FACTOR = 1.5  # slow-start growth while thieves park / victims lag
    MD_FACTOR = 0.5  # multiplicative decrease on fragmented frames
    COMEBACK_FACTOR = 2.0  # "fast" = within this multiple of the steal price

    __slots__ = ("degree", "last_steal", "channel_cost", "prior")

    def __init__(self, cost: CostModel):
        self.degree = 1.0
        self.last_steal: Dict[int, float] = {}  # core_id -> clock
        self.channel_cost: Dict[Tuple[int, int], float] = {}
        self.prior = cost.steal_channel_prior()

    def chunk_size(self, remaining: int, thief: "_Core") -> int:
        """Extensions the next steal moves, honoring the no-empty rule.

        A thief that is itself running slow (its observed processing
        rate is degraded — a straggler window) only ever takes a single
        extension: bulk-feeding a slow core turns the whole chunk into
        tail latency, which is the classic failure mode of static
        chunking under moving stragglers.
        """
        if remaining <= 1:
            return remaining
        if (
            thief.slowdown is not None
            and thief.slowdown(thief.core_id, thief.clock) > 1.0
        ):
            return 1
        degree = int(self.degree)
        if degree <= 1:
            return 1
        return min(degree, remaining - 1)

    def victim_cost(
        self,
        src_worker: int,
        dst_worker: int,
        links: Optional[Dict[Tuple[int, int], float]],
    ) -> float:
        """Round-trip estimate used to rank steal victims.

        Observed channels use the EMA (which already folds in any link
        latency actually paid); unobserved channels fall back to the
        static prior plus the configured link latency so a known-slow
        link is avoided even before the first steal crosses it.
        """
        observed = self.channel_cost.get((src_worker, dst_worker))
        if observed is not None:
            return observed
        extra = links.get((src_worker, dst_worker), 0.0) if links else 0.0
        return self.prior + extra

    def record_roundtrip(
        self, src_worker: int, dst_worker: int, units: float
    ) -> None:
        """Fold one completed external-steal round-trip into the EMA."""
        key = (src_worker, dst_worker)
        previous = self.channel_cost.get(key)
        self.channel_cost[key] = (
            units if previous is None else 0.5 * (previous + units)
        )

    def on_steal(
        self,
        thief: "_Core",
        victim: "_Core",
        remaining: int,
        paid_units: float,
        parked: int,
    ) -> None:
        """AIMD update after a successful steal (pre-transfer clocks)."""
        clock = thief.clock
        previous = self.last_steal.get(thief.core_id)
        self.last_steal[thief.core_id] = clock
        degree = int(self.degree)
        if degree > 1 and remaining - 1 < degree // 2 and parked == 0:
            # The victim could not fill even half a chunk while nobody
            # is starved: work is fragmented and plentiful (uniform
            # traffic with shallow frames), so large chunks only shuffle
            # fragments around.  Recursively split chunks routinely miss
            # the full degree by a little — that is how splitting works
            # — so a badly underfilled chunk *and* an unstarved cluster
            # are both required before the degree decays.
            self.degree = max(1.0, self.degree * self.MD_FACTOR)
            thief.metrics.steal_degree_adjustments += 1
        elif parked > 0 or victim.clock > thief.clock + paid_units:
            # Live imbalance: other thieves sit parked for lack of
            # stealable work, or the victim's clock lags visibly behind
            # — a straggler is feeding the cluster, and every extension
            # left on it runs at the straggler's (slow) rate.  Grow
            # multiplicatively (slow-start) so the degree escapes the
            # cold start in O(log) steals instead of O(degree).
            grown = min(_ADAPTIVE_MAX_DEGREE, self.degree * self.MI_FACTOR)
            if grown != self.degree:
                self.degree = grown
                thief.metrics.steal_degree_adjustments += 1
        elif (
            previous is not None
            and clock - previous <= self.COMEBACK_FACTOR * paid_units
        ):
            # The thief burned through its last chunk in little more
            # than the time the steal itself cost: round-trips, not
            # work, are the bottleneck.
            grown = min(_ADAPTIVE_MAX_DEGREE, self.degree + self.AI_STEP)
            if grown != self.degree:
                self.degree = grown
                thief.metrics.steal_degree_adjustments += 1


class _SchedState:
    """Per-drain scheduler state: stealable-work registry and parked cores.

    **Registry** — ``reg_workers[w]`` is the set of core ids on worker
    ``w`` that currently hold at least one stealable, non-exhausted frame
    (``_Core.stealable_count`` is the per-core refcount).  It is updated
    incrementally when frames are pushed, drained by their visitors,
    stolen empty, or orphaned by a death, so victim selection inspects
    only real candidates instead of rescanning every core's whole stack.

    **Parking** — an idle core that finds nothing stealable leaves the
    event heap instead of re-entering it every ``_WAIT_EPSILON``.
    ``pend`` records when its *next* poll would have run; at every heap
    pop ``(c, i)`` the virtual polls that precede the event are replayed
    in O(parked) arithmetic (``collapse``): the failed poll re-schedules
    to ``min(busy_min, dead_detect) + _WAIT_EPSILON`` exactly as
    ``_next_work_clock`` would have, kill deadlines fire at the poll
    clock, and a poll at or past a reachable detection point becomes a
    real heap event again.  Publishing a stealable frame wakes every
    reachable parked core at its current ``pend``.  This replay is what
    keeps the seed's clocks: an idle core still *advances* as if it
    re-polled every ``_WAIT_EPSILON``, so every simulated makespan and
    paper figure is bit-for-bit the seed's.
    ``tests/data/cluster_fingerprint.json`` pins those clocks.
    """

    __slots__ = (
        "config",
        "cores",
        "runtime",
        "reg_workers",
        "dead_avail",
        "parked",
        "heap",
    )

    def __init__(
        self,
        config: ClusterConfig,
        cores: List[_Core],
        runtime: "_FaultRuntime",
        heap: List[Tuple[float, int]],
    ):
        self.config = config
        self.cores = cores
        self.runtime = runtime
        self.reg_workers: List[set] = [set() for _ in range(config.workers)]
        self.dead_avail: set = set()  # failed core ids with stealable frames
        self.parked: Dict[int, _Core] = {}
        self.heap = heap
        deadlines = runtime.deadlines
        for core in cores:
            core.parked = False
            core.deadline = deadlines.get(core.core_id)
            count = sum(
                1 for f in core.stack if f.stealable and f.has_next()
            )
            core.stealable_count = count
            if count > 0:
                self.reg_workers[core.worker_id].add(core.core_id)
                if core.failed:
                    self.dead_avail.add(core.core_id)
        for clock, core_id in heap:
            cores[core_id].queued_clock = clock

    # -- registry maintenance -----------------------------------------
    def publish(self, core: _Core) -> None:
        """A stealable frame appeared on ``core``; wake reachable thieves."""
        core.stealable_count += 1
        if core.stealable_count != 1:
            return
        self.reg_workers[core.worker_id].add(core.core_id)
        if not self.parked or core.failed:
            # A dead core's orphans are only visible once the detector
            # fires; parked thieves reach them via ``_dead_wake_at``.
            return
        config = self.config
        w = core.worker_id
        for thief in list(self.parked.values()):
            local = thief.worker_id == w
            if (local and config.ws_internal) or (
                not local and config.ws_external
            ):
                self.unpark(thief)

    def retract(self, core: _Core) -> None:
        """A stealable frame on ``core`` was drained or stolen empty."""
        core.stealable_count -= 1
        if core.stealable_count == 0:
            self.reg_workers[core.worker_id].discard(core.core_id)
            self.dead_avail.discard(core.core_id)

    def on_death(self, core: _Core) -> None:
        """Recount after a death made every surviving frame stealable."""
        count = sum(1 for f in core.stack if f.has_next())
        core.stealable_count = count
        if count > 0:
            self.reg_workers[core.worker_id].add(core.core_id)
            self.dead_avail.add(core.core_id)
        else:
            self.reg_workers[core.worker_id].discard(core.core_id)

    # -- parking ------------------------------------------------------
    def _dead_wake_at(self, thief: _Core) -> Optional[float]:
        """Earliest detection point of a dead core this thief can reach."""
        config = self.config
        cores = self.cores
        best: Optional[float] = None
        for core_id in self.dead_avail:
            core = cores[core_id]
            local = core.worker_id == thief.worker_id
            if local and not config.ws_internal:
                continue
            if not local and not config.ws_external:
                continue
            if best is None or core.detect_at < best:
                best = core.detect_at
        return best

    def _busy_min(self) -> Optional[float]:
        """Earliest clock among cores that still run enumeration work."""
        best: Optional[float] = None
        for core in self.cores:
            if core.done or not core.stack:
                continue
            if best is None or core.clock < best:
                best = core.clock
        return best

    def park(self, core: _Core, idle_since: float) -> None:
        core.parked = True
        core.pend = core.clock
        core.park_start = idle_since
        core.metrics.cores_parked += 1
        self.parked[core.core_id] = core

    def unpark(self, core: _Core) -> None:
        """Turn a parked core's next virtual poll into a real heap event."""
        del self.parked[core.core_id]
        core.parked = False
        core.metrics.wake_events += 1
        core.metrics.parked_units += core.pend - core.park_start
        core.clock = core.pend
        core.queued_clock = core.clock
        heapq.heappush(self.heap, (core.clock, core.core_id))

    def _finish_parked(self, core: _Core) -> None:
        """A parked core's poll found the cluster drained: it exits."""
        del self.parked[core.core_id]
        core.parked = False
        core.metrics.parked_units += core.pend - core.park_start
        core.clock = core.pend
        core.done = True

    def _die_parked(self, core: _Core) -> None:
        """A parked core's virtual poll ran past its kill deadline."""
        del self.parked[core.core_id]
        core.parked = False
        core.metrics.parked_units += core.pend - core.park_start
        core.clock = core.pend
        self.runtime.on_death(core)
        self.on_death(core)

    def collapse(self, clock: float, core_id: int, busy_min: Optional[float]) -> None:
        """Replay parked cores' virtual polls that precede event ``(clock, core_id)``.

        Exactly one failed poll fits between consecutive heap events (the
        re-poll lands past the event unless a detection point intervenes,
        in which case the next poll is real and the core wakes).
        ``busy_min`` is the earliest clock among still-busy cores as the
        legacy ``_next_work_clock`` would see it — the popped event's own
        clock when the popped core is busy.
        """
        pos = (clock, core_id)
        for core in list(self.parked.values()):
            pend = core.pend
            if (pend, core.core_id) >= pos:
                continue
            if core.deadline is not None and pend >= core.deadline:
                self._die_parked(core)
                continue
            dead_at = self._dead_wake_at(core) if self.dead_avail else None
            if dead_at is not None and pend >= dead_at:
                # The detector has fired for a reachable dead core: this
                # poll finds stealable orphans, so it runs for real.
                self.unpark(core)
                continue
            wake = busy_min
            if dead_at is not None and (wake is None or dead_at < wake):
                wake = dead_at
            if wake is None:
                self._finish_parked(core)
                continue
            core.pend = (pend if pend > wake else wake) + _WAIT_EPSILON
            if dead_at is not None and core.pend >= dead_at:
                self.unpark(core)

    def drain_parked(self) -> bool:
        """Heap ran dry with cores still parked: settle their fate.

        Each parked core either exits (nothing reachable can ever produce
        work), dies at a deadline its virtual polls run past, or wakes at
        a reachable dead core's detection point.  Returns ``True`` when
        at least one core re-entered the heap.
        """
        woke = False
        for core in sorted(self.parked.values(), key=lambda c: c.core_id):
            while True:
                if core.deadline is not None and core.pend >= core.deadline:
                    self._die_parked(core)
                    break
                dead_at = self._dead_wake_at(core) if self.dead_avail else None
                if dead_at is None:
                    self._finish_parked(core)
                    break
                if core.pend >= dead_at:
                    self.unpark(core)
                    woke = True
                    break
                core.pend = dead_at + _WAIT_EPSILON
        return woke


class ClusterEngine:
    """Runs fractal steps over the simulated cluster."""

    def __init__(self, config: ClusterConfig):
        self.config = config
        # Adaptive steal-degree controller (None under ``"one"``)
        # and the heterogeneous-link lookup; both set per run_step.
        self._controller: Optional[_StealController] = None
        self._links: Optional[Dict[Tuple[int, int], float]] = None

    def run_step(
        self,
        graph: Graph,
        strategy_factory: Callable[[Graph, Metrics, PatternInterner], ExtensionStrategy],
        interner: PatternInterner,
        primitives: Sequence[Primitive],
        aggregation_views: Dict[int, object],
        cached_uids,
        sink: Optional[Callable[[Subgraph], None]] = None,
        root_words: Optional[List[int]] = None,
    ) -> ClusterStepResult:
        """Execute one fractal step and return its simulated outcome.

        Args:
            graph: input graph.
            strategy_factory: builds one extension strategy per core
                (strategies may hold per-core DFS state).
            interner: shared pattern interner.
            primitives: the step's primitive sequence.
            aggregation_views: uid -> finalized views for agg filters.
            cached_uids: aggregation uids already computed by prior steps.
            sink: receives the live subgraph for results of the final step.
            root_words: override the level-0 word set (graph reduction
                experiments pass reduced partitions); None = full graph.
        """
        config = self.config
        cost = config.cost_model
        # One controller per step: observed channel costs and the steal
        # degree persist across recovery drains within the step.
        self._controller = (
            _StealController(cost) if config.steal_policy == "adaptive" else None
        )
        self._links = config.link_latency_map() if config.link_latency else None
        cores = self._build_cores(graph, strategy_factory, interner, aggregation_views)
        storages_per_core = [
            new_storages(primitives, cached_uids) for _ in cores
        ]
        setup_metrics = self._distribute_roots(cores, primitives, root_words)

        runtime = _FaultRuntime(config, cost)
        # Root-enumeration probes are cluster setup, not core 0's work;
        # booking them engine-side keeps step totals identical while
        # per-core numbers reflect only work the core actually ran.
        runtime.metrics.merge(setup_metrics)
        if runtime.slowdown is not None:
            for core in cores:
                core.slowdown = runtime.slowdown

        heap: List[Tuple[float, int]] = [(core.clock, core.core_id) for core in cores]
        heapq.heapify(heap)
        steal_messages = self._drain(
            heap, cores, storages_per_core, primitives, sink, cost, runtime
        )

        # Driver-level re-execution fallback (graceful degradation): any
        # orphaned enumerator work stealing could not reach — one or both
        # WS levels disabled, or the orphan's worker unreachable under the
        # current policy — is resubmitted to a survivor and re-enumerated
        # from scratch from its prefix words (the paper's §4.1 recovery
        # strategy).  Loops because a survivor may itself die mid-recovery.
        while True:
            orphans = [
                (victim, frame)
                for victim in cores
                if victim.failed
                for frame in victim.stack
                if frame.has_next()
            ]
            if not orphans:
                break
            survivors = sorted(
                (core for core in cores if not core.failed),
                key=lambda core: (core.clock, core.core_id),
            )
            # One orphan per survivor per round: a core can only rebuild
            # one prefix at a time (its subgraph holds that prefix).
            for target, (victim, frame) in zip(survivors, orphans):
                self._resubmit(target, victim, frame, cost, runtime)
            heap = []
            for core in cores:
                if not core.failed:
                    core.done = False
                    heap.append((core.clock, core.core_id))
            heapq.heapify(heap)
            steal_messages += self._drain(
                heap, cores, storages_per_core, primitives, sink, cost, runtime
            )

        return self._collect(
            cores, storages_per_core, steal_messages, cost, runtime
        )

    def _drain(
        self,
        heap: List[Tuple[float, int]],
        cores: List[_Core],
        storages_per_core: List[Dict[int, AggregationStorage]],
        primitives: Sequence[Primitive],
        sink,
        cost: CostModel,
        runtime: _FaultRuntime,
    ) -> int:
        """Run the scheduler until no schedulable core has work left.

        Always advances the globally earliest core.  An idle core that
        finds nothing to steal parks instead of re-polling; the parked
        cores' virtual polls are replayed between events (see
        ``_SchedState``), so clocks are those of a loop in which idle
        cores re-poll every ``_WAIT_EPSILON`` units, while the host-side
        event count is proportional to useful work instead of
        ``idle_cores × events``.
        """
        sched = _SchedState(self.config, cores, runtime, heap)
        config = self.config
        sched_metrics = runtime.metrics
        steal_messages = 0
        # The entry a core re-enters the heap with, pushed by the pop
        # that takes the next event (one heappushpop instead of two).
        entry: Optional[Tuple[float, int]] = None
        heappop = heapq.heappop
        heappushpop = heapq.heappushpop
        while True:
            if entry is not None:
                clock, core_id = heappushpop(heap, entry)
                entry = None
            elif heap:
                clock, core_id = heappop(heap)
            elif sched.parked and sched.drain_parked():
                continue
            else:
                break
            core = cores[core_id]
            sched_metrics.scheduler_events += 1
            if core.done or core.parked or core.queued_clock != clock:
                # Lazily-invalidated stale entry (the core advanced or
                # retired through another path); drop it instead of
                # re-pushing.
                sched_metrics.scheduler_requeues += 1
                continue
            if sched.parked:
                # Replay parked cores' virtual polls preceding this event.
                busy_min = clock if core.stack else sched._busy_min()
                sched.collapse(clock, core_id, busy_min)
                if heap and heap[0] < (clock, core_id):
                    # A wake landed before this event (nothing else
                    # pushes between the pop and here): defer and re-pop
                    # in order.
                    entry = (clock, core_id)
                    continue
            core.queued_clock = None
            deadline = core.deadline
            if deadline is not None and core.clock >= deadline and not core.failed:
                runtime.on_death(core)
                sched.on_death(core)
                continue
            if core.stack:
                storages = storages_per_core[core_id]
                self._advance(core, primitives, storages, sink, cost, sched)
                core.queued_clock = core.clock
                entry = (core.clock, core_id)
                continue
            idle_since = core.clock
            stolen, messages, found = self._try_steal(
                core, cores, cost, runtime, sched
            )
            steal_messages += messages
            if stolen:
                core.queued_clock = core.clock
                entry = (core.clock, core_id)
                continue
            wake = self._next_work_clock(cores, core, config)
            if wake is None:
                core.done = True
                continue
            core.clock = max(core.clock, wake) + _WAIT_EPSILON
            if found or self._dead_visible_at(core, sched):
                # The next poll does something real — a victim existed but
                # the steal message was lost (the retry draws fresh channel
                # randomness), or a dead core's orphans become visible by
                # then.  Keep the core live.
                core.queued_clock = core.clock
                entry = (core.clock, core_id)
            else:
                sched.park(core, idle_since)
        return steal_messages

    def _dead_visible_at(self, core: _Core, sched: _SchedState) -> bool:
        """Whether a reachable dead core's orphans are visible by ``core.clock``."""
        dead_at = sched._dead_wake_at(core) if sched.dead_avail else None
        return dead_at is not None and core.clock >= dead_at

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _build_cores(
        self,
        graph: Graph,
        strategy_factory,
        interner: PatternInterner,
        aggregation_views,
    ) -> List[_Core]:
        config = self.config
        cores = []
        for core_id in range(config.total_cores):
            metrics = Metrics()
            strategy = strategy_factory(graph, metrics, interner)
            computation = Computation(graph, metrics, interner, aggregation_views)
            cores.append(
                _Core(
                    core_id,
                    config.worker_of(core_id),
                    strategy,
                    computation,
                    config.record_timeline,
                )
            )
        return cores

    def _distribute_roots(
        self,
        cores: List[_Core],
        primitives: Sequence[Primitive],
        root_words: Optional[List[int]],
    ) -> Metrics:
        """Round-robin partition of level-0 extensions by global core id.

        Returns the metrics of the root enumeration itself.  Probing the
        level-0 candidates is cluster setup — the paper's system performs
        it once during initialization, before any core runs — so its
        extension tests and adjacency scans are metered separately instead
        of being charged to core 0 (which skewed per-core load-balance
        numbers); the caller folds them into the step's engine-level
        metrics, leaving every published total unchanged.
        """
        setup_metrics = Metrics()
        first_expand = next(
            (i for i, p in enumerate(primitives) if isinstance(p, Expand)), None
        )
        if first_expand is None:
            # Degenerate step without extension: nothing to distribute;
            # core 0 evaluates the empty-subgraph pipeline once.
            if cores:
                cores[0].stack.append(SubgraphEnumerator((), [], 0))
            return setup_metrics
        if root_words is None:
            strategy = cores[0].strategy
            core_metrics = strategy.metrics
            strategy.metrics = setup_metrics
            try:
                words = strategy.extensions(cores[0].subgraph)
            finally:
                strategy.metrics = core_metrics
        else:
            words = list(root_words)
        n = len(cores)
        for core in cores:
            partition = words[core.core_id::n]
            core.stack.append(
                SubgraphEnumerator((), partition, first_expand + 1)
            )
        return setup_metrics

    # ------------------------------------------------------------------
    # Core execution
    # ------------------------------------------------------------------
    def _advance(
        self,
        core: _Core,
        primitives: Sequence[Primitive],
        storages: Dict[int, AggregationStorage],
        sink,
        cost: CostModel,
        sched: _SchedState,
    ) -> None:
        """Process one quantum: visit the top frame's next child, or
        retire an exhausted frame.

        A frame is walked by its strategy's child visitor, created on
        the frame's first quantum and resumed once per quantum after
        that: the resume pops the previous child (a leaf stays pushed
        until then) and pushes the next.  An exhausted frame's quantum
        finishes the visitor, which pops the frame's last child, and
        pops the frame; its own prefix word is popped when the frame
        below resumes.  Pops meter nothing.
        """
        stack = core.stack
        top = stack[-1]
        visitor = top.visitor
        if top.cursor >= len(top.extensions):
            if visitor is not None:
                next(visitor, None)
            stack.pop()
            return
        strategy = core.strategy
        subgraph = core.subgraph
        if visitor is None:
            visitor = top.visitor = strategy.children(subgraph, top)
        metrics = core.metrics
        before_tests = metrics.extension_tests
        before_scans = metrics.adjacency_scans
        before_compares = metrics.intersect_comparisons
        before_gallops = metrics.gallop_steps
        before_slices = metrics.index_slices
        word = next(visitor)
        if top.stealable and top.cursor >= len(top.extensions):
            sched.retract(core)
        metrics.subgraphs_enumerated += 1
        units = cost.subgraph_units
        computation = core.computation
        idx = top.primitive_index
        n = len(primitives)
        pushed_frame = False
        while idx < n:
            primitive = primitives[idx]
            kind = type(primitive)
            if kind is Expand:
                extensions = strategy.extensions(subgraph)
                stack.append(
                    SubgraphEnumerator(tuple(core.words), extensions, idx + 1)
                )
                if extensions:
                    sched.publish(core)
                pushed_frame = True
                break
            if kind is Filter:
                metrics.filter_calls += 1
                units += cost.filter_units
                if not primitive.fn(subgraph, computation):
                    break
                metrics.filter_passed += 1
            elif kind is AggregationFilter:
                metrics.filter_calls += 1
                units += cost.filter_units
                view = computation.aggregation_views[primitive.source_uid]
                if not primitive.fn(subgraph, view):
                    break
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
                        storage.add(
                            key, primitive.value_fn(subgraph, computation)
                        )
                    metrics.aggregate_updates += 1
                    units += cost.aggregate_units
            idx += 1
        else:
            if sink is not None:
                sink(subgraph)
            metrics.results_emitted += 1
            units += cost.emit_units
        # Back-edge probes are metered but not clocked (see CostModel):
        # charging them would shift legacy pattern clocks across releases.
        units += (
            (metrics.extension_tests - before_tests) * cost.extension_test_units
            + (metrics.adjacency_scans - before_scans) * cost.adjacency_scan_units
            + (metrics.intersect_comparisons - before_compares)
            * cost.intersect_compare_units
            + (metrics.gallop_steps - before_gallops) * cost.gallop_step_units
            + (metrics.index_slices - before_slices) * cost.index_slice_units
        )
        core.charge(units)
        # Sampling the footprint every few quanta captures the peak of the
        # slowly-varying enumerator stack without per-quantum overhead.
        core.mem_tick += 1
        if core.mem_tick & 31 == 0 or pushed_frame:
            core.track_memory()

    # ------------------------------------------------------------------
    # Work stealing
    # ------------------------------------------------------------------
    def _try_steal(
        self,
        thief: _Core,
        cores: List[_Core],
        cost: CostModel,
        runtime: _FaultRuntime,
        sched: _SchedState,
    ) -> Tuple[bool, int, bool]:
        """Attempt WS_int, then WS_ext.

        Returns ``(success, messages sent, victim found)``.  The last
        flag distinguishes "nothing stealable anywhere" (the thief may
        park) from "a victim exists but the steal failed in flight" (the
        thief must stay live and retry with fresh channel randomness).
        """
        config = self.config
        if config.ws_internal:
            frame, victim = self._pick_victim(thief, cores, True, sched)
            if frame is not None:
                self._transfer(
                    thief, frame, cost.steal_internal_cost(), runtime, victim, sched
                )
                thief.steals_internal += 1
                thief.metrics.steals_internal += 1
                return True, 0, True
        if config.ws_external:
            frame, victim = self._pick_victim(thief, cores, False, sched)
            if frame is not None:
                if runtime.channel is None:
                    delivered, penalty, delay, messages = True, 0.0, 0.0, 2
                else:
                    delivered, penalty, delay, messages = self._roundtrip(
                        cost, runtime
                    )
                thief.metrics.steal_messages += messages
                if not delivered:
                    # Retries exhausted: the thief wasted the timeouts and
                    # backoffs and returns to the scheduler; the frame
                    # stays where it is.
                    thief.charge(penalty)
                    thief.steal_units += penalty
                    thief.metrics.steal_work_units += penalty
                    runtime.metrics.wasted_work_units += penalty
                    return False, messages, True
                roundtrip = cost.steal_external_cost(len(frame.prefix_words))
                roundtrip += penalty + delay
                if self._links is not None:
                    # Heterogeneous interconnect: crossing this worker
                    # pair pays the configured extra latency.
                    roundtrip += self._links.get(
                        (thief.worker_id, victim.worker_id), 0.0
                    )
                runtime.metrics.wasted_work_units += penalty
                if self._controller is not None:
                    self._controller.record_roundtrip(
                        thief.worker_id, victim.worker_id, roundtrip
                    )
                self._transfer(thief, frame, roundtrip, runtime, victim, sched)
                thief.steals_external += 1
                thief.metrics.steals_external += 1
                return True, messages, True
        return False, 0, False

    def _roundtrip(
        self, cost: CostModel, runtime: _FaultRuntime
    ) -> Tuple[bool, float, float, int]:
        """One external-steal request/response exchange under message faults.

        Retries lost messages with exponential backoff up to
        ``cost.steal_max_attempts`` sends.  Returns ``(delivered,
        penalty_units, delay_units, messages_on_wire)`` — the penalty is
        wasted time (timeouts + backoffs), the delay is added latency of
        delivered-but-slow messages.
        """
        channel = runtime.channel
        fault_metrics = runtime.metrics
        penalty = 0.0
        delay_total = 0.0
        messages = 0
        for attempt in range(1, cost.steal_max_attempts + 1):
            exchange_ok = True
            for _leg in (0, 1):  # request, then response
                delivered, duplicated, delay, wire = channel.transmit()
                messages += wire
                if duplicated:
                    # The receiver discards the duplicate (transfers carry
                    # sequence numbers); it only costs wire traffic.
                    fault_metrics.steal_messages_duplicated += 1
                if not delivered:
                    fault_metrics.steal_messages_dropped += 1
                    exchange_ok = False
                    break
                if delay > 0.0:
                    fault_metrics.steal_messages_delayed += 1
                    delay_total += delay
            if exchange_ok:
                return True, penalty, delay_total, messages
            penalty += cost.steal_retry_penalty(attempt)
            fault_metrics.steal_retries += 1
        return False, penalty, delay_total, messages

    def _pick_victim(
        self, thief: _Core, cores: List[_Core], same_worker: bool, sched: _SchedState
    ) -> Tuple[Optional[SubgraphEnumerator], Optional[_Core]]:
        """Pick the round-robin-nearest victim with a stealable frame.

        A dead victim's frames are only visible once the thief's clock
        passes the failure detector's detection point for that core.
        Only cores in the stealable-work registry — those that actually
        hold work — are inspected (O(1) amortized).
        """
        n = len(cores)
        metrics = thief.metrics
        # Latency-aware selection only applies to external steals under
        # the adaptive policy: channels are worker pairs, so intra-worker
        # victims all cost the same and keep the round-robin order.
        controller = self._controller if not same_worker else None
        if same_worker:
            candidates = sched.reg_workers[thief.worker_id]
        else:
            candidates = [
                core_id
                for w, members in enumerate(sched.reg_workers)
                if w != thief.worker_id
                for core_id in members
            ]
        best = None
        best_key = None
        near_distance = n
        for core_id in candidates:
            metrics.victim_scan_steps += 1
            if core_id == thief.core_id:
                continue
            candidate = cores[core_id]
            if candidate.failed and thief.clock < candidate.detect_at:
                continue
            distance = (core_id - thief.core_id) % n
            if distance < near_distance:
                near_distance = distance
            # (cost, round-robin distance) is a unique key per candidate,
            # so the choice is deterministic no matter how the registry
            # orders its members; without a controller every cost is 0.
            price = (
                controller.victim_cost(
                    thief.worker_id, candidate.worker_id, self._links
                )
                if controller is not None
                else 0.0
            )
            key = (price, distance)
            if best_key is None or key < best_key:
                best_key = key
                best = candidate
        if best is None:
            return None, None
        if best_key[1] > near_distance:
            metrics.victim_cost_skips += 1
        return best.stealable_frame(), best

    def _transfer(
        self,
        thief: _Core,
        frame: SubgraphEnumerator,
        steal_units: float,
        runtime: _FaultRuntime,
        victim: _Core,
        sched: _SchedState,
    ) -> None:
        """Move extensions of ``frame`` onto the thief as new work.

        ``steal_units`` is the steal's price before any chunk payload.
        Under ``"one"`` the thief takes a single extension and its claimed
        frame stays non-stealable.  Under ``"adaptive"`` the controller
        sizes the chunk and every extension past the first is priced as
        payload; a multi-extension frame is immediately stealable again —
        that recursive splitting is what spreads a skewed frame across the
        cluster in O(log n) transfers instead of one round-trip per
        extension.
        """
        chunk = 1
        controller = self._controller
        if controller is not None:
            remaining = frame.remaining()
            chunk = controller.chunk_size(remaining, thief)
            if chunk > 1:
                steal_units += self.config.cost_model.steal_chunk_cost(chunk - 1)
            controller.on_steal(
                thief, victim, remaining, steal_units, len(sched.parked)
            )
            thief.metrics.adaptive_steals += 1
            thief.metrics.adaptive_chunk_extensions += chunk
        words = frame.steal_chunk(chunk)
        assert words
        if frame.stealable and not frame.has_next():
            sched.retract(victim)
        thief.charge(steal_units)
        thief.steal_units += steal_units
        thief.metrics.steal_work_units += steal_units
        thief.metrics.steal_chunk_extensions += len(words)
        ec_before = thief.metrics.extension_tests
        scans_before = thief.metrics.adjacency_scans
        thief.strategy.rebuild(thief.subgraph, frame.prefix_words)
        if victim.failed:
            # Recovering a dead core's enumerator: the prefix re-derivation
            # is wasted (redundant) work the failure caused.
            runtime.note_recovery(
                thief, ec_before, scans_before, extensions=len(words)
            )
        stolen = SubgraphEnumerator(
            frame.prefix_words,
            words,
            frame.primitive_index,
            stealable=len(words) > 1,
        )
        thief.stack.append(stolen)
        if stolen.stealable:
            sched.publish(thief)

    def _resubmit(
        self,
        target: _Core,
        victim: _Core,
        frame: SubgraphEnumerator,
        cost: CostModel,
        runtime: _FaultRuntime,
    ) -> None:
        """Driver-level recovery: re-execute an orphaned enumerator.

        Used when work stealing cannot reach the orphan (stealing
        disabled or the victim's worker unreachable).  The survivor waits
        for the detection point, pays the resubmission cost, re-derives
        the lost prefix from scratch and consumes the remaining
        extensions as regular work.
        """
        assert not target.stack, "recovery target must be idle"
        words = frame.extensions[frame.cursor :]
        del frame.extensions[frame.cursor :]  # the orphan is now consumed
        if target.clock < victim.detect_at:
            # Waiting for detection is idle time, not busy work.
            target.clock = victim.detect_at
        units = cost.recovery_cost(len(frame.prefix_words))
        if len(words) > 1 and self._controller is not None:
            # The adaptive policy prices the extra extension words shipped
            # in the resubmission message; "one" keeps the seed's
            # arithmetic (the extensions ride free) and so its clocks.
            units += cost.steal_chunk_cost(len(words) - 1)
        ec_before = target.metrics.extension_tests
        scans_before = target.metrics.adjacency_scans
        target.strategy.rebuild(target.subgraph, frame.prefix_words)
        target.stack.append(
            SubgraphEnumerator(
                frame.prefix_words,
                words,
                frame.primitive_index,
                stealable=len(words) > 1,
            )
        )
        target.charge(units)
        target.steal_units += units
        target.metrics.steal_work_units += units
        runtime.metrics.wasted_work_units += units
        runtime.note_recovery(target, ec_before, scans_before, len(words))

    def _next_work_clock(
        self, cores: List[_Core], thief: _Core, config: ClusterConfig
    ) -> Optional[float]:
        """Earliest clock at which stealable work may appear for ``thief``.

        Busy cores may spawn frames at their current clock; a dead core's
        orphans become visible at its detection point — but only count if
        the stealing policy lets this thief reach them.
        """
        best: Optional[float] = None
        for core in cores:
            if core.core_id == thief.core_id:
                continue
            if core.failed:
                local = core.worker_id == thief.worker_id
                if local and not config.ws_internal:
                    continue
                if not local and not config.ws_external:
                    continue
                if core.stealable_count <= 0:
                    continue
                candidate = core.detect_at
            else:
                if core.done or not core.stack:
                    continue
                candidate = core.clock
            if best is None or candidate < best:
                best = candidate
        return best

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def _shuffle_aggregations(
        self,
        cores: List[_Core],
        storages_per_core: List[Dict[int, AggregationStorage]],
        cost: CostModel,
    ) -> Dict[int, AggregationStorage]:
        """Two-level aggregation shuffle (replaces the flat unmetered merge).

        Level 1 — worker combine, on the simulated clock: per worker, the
        per-core combiner maps fold into one storage per aggregation
        (cores in id order).  Level 2 — metered ship + driver merge: the
        combined entries are hash-partitioned, shipped driver-ward at the
        ``agg_ship_*`` rates plus one message latency per non-empty
        partition, then k-way merged in worker order with a per-key
        monotone ``agg_filter`` applied early.

        The key first-appearance order and per-key fold order match the
        seed's sequential merge, so finalized views are byte-identical; the
        shuffle costs land on the first surviving core of each worker and
        move makespan, not results.  Dead cores' storages are still
        merged (seed semantics — results are fault-independent), but a
        worker with no survivor charges nothing.
        """
        config = self.config
        uids = list(storages_per_core[0]) if storages_per_core else []
        if not uids:
            return {}
        n_workers = config.workers
        cpw = config.cores_per_worker
        worker_combined: List[Dict[int, AggregationStorage]] = []
        for w in range(n_workers):
            worker_cores = cores[w * cpw : (w + 1) * cpw]
            survivor = next((c for c in worker_cores if not c.failed), None)
            combined_by_uid: Dict[int, AggregationStorage] = {}
            for uid in uids:
                template = storages_per_core[worker_cores[0].core_id][uid]
                combined = AggregationStorage(
                    template.name,
                    template.reduce_fn,
                    template.agg_filter,
                    template.filter_monotone,
                )
                entries_in = 0
                for c in worker_cores:
                    storage = storages_per_core[c.core_id][uid]
                    combined.merge(storage)
                    entries_in += len(storage)
                combined_by_uid[uid] = combined
                if entries_in == 0 or survivor is None:
                    continue
                entries_out = len(combined)
                words = 0
                partitions = set()
                for key, value in combined.entries():
                    words += ship_words(key) + ship_words(value)
                    # One message per partition hit: done hashing once
                    # every partition is.
                    if len(partitions) < n_workers:
                        partitions.add(stable_partition(key, n_workers))
                messages = len(partitions)
                metrics = survivor.metrics
                metrics.agg_entries_shipped += entries_out
                metrics.agg_words_shipped += words
                metrics.agg_messages += messages
                metrics.agg_combine_entries_in += entries_in
                metrics.agg_combine_entries_out += entries_out
                survivor.agg_entries_shipped += entries_out
                combine_units = cost.agg_combine_cost(entries_in)
                ship_units = cost.agg_ship_cost(entries_out, words, messages)
                metrics.agg_combine_units += combine_units
                metrics.agg_ship_units += ship_units
                survivor.agg_units += combine_units + ship_units
                survivor.charge(combine_units + ship_units)
            worker_combined.append(combined_by_uid)
        return {
            uid: merge_storages_streaming([wc[uid] for wc in worker_combined])
            for uid in uids
        }

    def _collect(
        self,
        cores: List[_Core],
        storages_per_core: List[Dict[int, AggregationStorage]],
        steal_messages: int,
        cost: CostModel,
        runtime: _FaultRuntime,
    ) -> ClusterStepResult:
        merged = self._shuffle_aggregations(cores, storages_per_core, cost)
        total_metrics = Metrics()
        total_metrics.merge(runtime.metrics)
        reports: List[CoreReport] = []
        makespan = 0.0
        for core in cores:
            total_metrics.merge(core.metrics)
            reports.append(
                CoreReport(
                    core_id=core.core_id,
                    worker_id=core.worker_id,
                    finish_units=core.clock,
                    busy_units=core.busy_units,
                    steal_units=core.steal_units,
                    steals_internal=core.steals_internal,
                    steals_external=core.steals_external,
                    peak_stack_bytes=core.peak_stack_bytes,
                    agg_ship_units=core.agg_units,
                    agg_entries_shipped=core.agg_entries_shipped,
                    parked_units=core.metrics.parked_units,
                    wake_events=core.metrics.wake_events,
                    steal_chunk_extensions=core.metrics.steal_chunk_extensions,
                    steal_degree_adjustments=(
                        core.metrics.steal_degree_adjustments
                    ),
                    victim_cost_skips=core.metrics.victim_cost_skips,
                    failed=core.failed,
                    busy_intervals=core.busy_intervals,
                )
            )
            makespan = max(makespan, core.clock)
        peak_entries = total_metrics.peak_aggregation_entries
        for storages in storages_per_core:
            for storage in storages.values():
                if len(storage) > peak_entries:
                    peak_entries = len(storage)
        for storage in merged.values():
            if len(storage) > peak_entries:
                peak_entries = len(storage)
        total_metrics.peak_aggregation_entries = peak_entries
        fault_metrics = runtime.metrics
        return ClusterStepResult(
            storages=merged,
            metrics=total_metrics,
            makespan_units=makespan,
            makespan_seconds=cost.seconds(makespan),
            cores=reports,
            steal_messages=steal_messages,
            failures=fault_metrics.failures_injected,
            detection_latency_units=fault_metrics.detection_latency_units,
            recovered_frames=fault_metrics.reenumerated_frames,
            recovered_extensions=fault_metrics.reenumerated_extensions,
            recovery_units=fault_metrics.wasted_work_units,
            steal_retries=fault_metrics.steal_retries,
        )
