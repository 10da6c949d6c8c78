"""Real-parallel execution backend: supervised workers over shared memory.

Everything before this module *simulates* Fractal's cluster; this
backend actually uses the hardware.  One fractal step runs as
``num_procs`` OS processes, each executing the same sequential DFS
executor (:func:`~repro.runtime.engine.run_step_sequential`) over a
slice of the level-0 extension words — the exact decomposition the
paper's system initialization performs (§4.2: level-0 subgraphs are
partitioned across workers, everything deeper stays where it started).

**Shared graph, one materialization.**  The driver packs the graph's
int64 columns into a single ``multiprocessing.shared_memory`` segment
(:class:`~repro.graph.shm.SharedGraphBuffers`) once per backend; every
worker attaches the same segment and reads the CSR through zero-copy
memoryview slices.  Worker count does not multiply graph memory.

**Fork only.**  Fractal applications are built from closures (motif
aggregation lambdas, filter functions); closures do not pickle, so a
``spawn``/``forkserver`` child could never receive the step's
primitives.  Under ``fork`` the child inherits them — along with the
aggregation views, the chunk lists and the shared-segment handle —
without serialization.  Platforms without ``fork`` degrade to the
sequential backend with a warning (see
:func:`~repro.runtime.backend.resolve_backend`), or raise when
``degrade="never"``.

**Planned once, counted in the driver.**  What a step runs as is the
step planner's decision (:mod:`repro.runtime.stepplan`); this backend
only states when it needs real enumerators (a fault plan).
Counting steps run in the driver, not in workers — a collapsed walk is
orders of magnitude less work than the enumeration the worker fleet
exists to parallelize, and far below the fork/shared-memory setup cost
it would have to amortize — flagged ``*_in_driver`` in ``backend_info``
so reports stay honest about where the work happened.  Every other
in-driver rung is :func:`~repro.runtime.backend.run_in_process` on the
probe strategy.

**Supervised chunk leases.**  The root words are split into chunks and
the driver runs a supervision loop instead of a blocking join: each
worker holds at most one chunk *lease* at a time, announced progress
flows back on the result queue (heartbeats, lease starts, per-chunk
results), and a chunk is only *retired* when its results arrive.  The
supervisor distinguishes three ways a worker stops cooperating:

* **crash** — the process died (OOM kill, segfault, unhandled error);
* **hang** — a lease outlived ``worker_timeout`` and heartbeats went
  silent (the process is frozen);
* **straggler** — a lease outlived ``worker_timeout`` while heartbeats
  kept flowing (the process is alive but stuck or its result message
  was lost).

A lost worker is SIGKILLed and reaped; its unacknowledged lease is
re-enqueued and the slot is respawned (fresh fork, bounded by
``max_worker_retries`` per slot, with exponential backoff between
respawns).  A chunk that repeatedly kills its workers is *quarantined*
after ``max_chunk_retries`` revocations and re-executed in-driver on
the sequential path — the graceful-degradation rung for poison work.
If every slot exhausts its respawn budget the whole remainder of the
step degrades to in-driver sequential execution with a warning
(``degrade="auto"``) or raises (``degrade="never"``).  Because a chunk
is retired exactly once — results ship as per-chunk deltas and
duplicates from twice-executed chunks are dropped by the acknowledgment
set — aggregate results under any survivable fault schedule are
byte-identical to a fault-free run.

**Real fault injection.**  A :class:`~repro.runtime.faults.FaultPlan`'s
``mp_*`` sections drive actual process misbehaviour for chaos testing:
self-``SIGKILL`` after N chunks, injected sleeps and ``SIGSTOP``
freezes, dropped result messages and poison chunks.  Faults apply to
generation-0 workers only (respawned replacements run clean), so every
survivable schedule terminates.

**Work distribution.**  Chunks are round-robin slices of the root
words and any idle worker receives the next pending chunk — cheap
dynamic balancing at lease granularity.  Every worker reads the one
replicated graph from the shared segment, as every Fractal worker holds
the whole input graph (paper §4.2); no adjacency read is remote.

**Result shipping.**  Each worker ships one message per completed
chunk: a flat ``bytes`` payload it encoded itself
(:class:`_ChunkExecutor`, also used by the driver's own rung, so the
wire form lives in one place) holding the chunk's aggregation entries,
a *delta* metrics snapshot covering exactly that chunk's work and any
frozen subgraphs.  A ``Pattern`` key crosses the boundary as its
canonical DFS code and nothing else
(:func:`~repro.core.aggregation.encode_entries`); the driver builds one
``Pattern`` per distinct code, numbered by canonical position, so the
representative a result carries does not depend on which worker shipped
first.  The driver acks a chunk on receipt, re-leases the worker, and
only then decodes: :class:`_ChunkFold` folds payloads into one storage
per aggregation in chunk-index order as soon as the next-in-order chunk
has been acked, and drops each payload once folded — deterministic
regardless of which worker ran which chunk, and immune to
double-counting when a chunk is executed twice.

**Warm workers.**  Workers are forked per step and exit with it, so
what they memoize would die with them.  The canonicalization automaton
of :mod:`repro.pattern.dfscode` does not: each worker journals what it
adds to it after fork and ships the journal, as plain int tuples, on
its ``done`` message; once the workers are reaped the driver absorbs
every journal into its own tables (``backend_info["automaton"]`` says
how much), so the next step's and the next call's workers fork warm.
Interners stay per executor — their key space grows with the graph's
labels, and each context hands out its own patterns.

**Known limit.**  A worker SIGKILLed while the result queue's feeder
thread writes (``put`` only buffers; a background thread writes later)
can leave the queue's cross-process lock held; survivors then stall,
trip their lease timeouts and the step walks down the degradation
ladder to the in-driver path.  Results stay correct; only wall-clock
suffers.  An injected kill first closes the queue and joins its feeder
thread, so a worker's own kill cannot hit this; the supervisor's SIGKILL
of a straggler whose heartbeats still flow can.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_lib
import signal
import sys
import threading
import time
import traceback
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..core.aggregation import decode_entries, encode_entries
from ..core.computation import Computation
from ..core.primitives import Expand
from ..core.subgraph import SubgraphResult
from ..graph.graph import Graph
from ..graph.shm import SharedGraphBuffers
from ..pattern import dfscode
from ..pattern.pattern import Pattern, PatternInterner
from .backend import (
    SHORTCUT_FLAGS,
    ExecutionBackend,
    StepOutcome,
    run_in_process,
    shortcut_outcome,
)
from .costmodel import DEFAULT_COST_MODEL, CostModel
from .engine import new_storages, run_step_sequential
from .faults import FaultPlan
from .metrics import Metrics
from .stepplan import StepPlan, count_step, plan_step

__all__ = ["MultiprocessConfig", "MultiprocessBackend"]

# Root words are cut into at most this many chunks per worker process:
# enough leases for idle workers to balance on, few enough that per-chunk
# shipping stays small next to the enumeration.
CHUNKS_PER_PROC = 8
# Seconds between a worker's heartbeats (clamped to a quarter of the
# worker timeout, so a short deadline still sees several beats).
HEARTBEAT_INTERVAL = 0.25


class _ChunkExecutor:
    """One process's chunk runner: sequential engine in, wire bytes out.

    Every worker and the driver's quarantine/degradation rung run chunks
    through this class, so a chunk's payload is built and encoded in
    exactly one place and the driver's fold cannot tell who ran it.
    Each executor owns a fresh interner and metrics bundle; ``run``
    ships counter *deltas*, so chunks can be folded in any grouping.
    """

    def __init__(
        self, graph, strategy_factory, primitives, aggregation_views,
        cached_uids, collect, chunk_lists, listing=False,
    ):
        self.metrics = Metrics()
        self._baseline = self.metrics.snapshot()
        interner = PatternInterner()
        self.strategy = strategy_factory(graph, self.metrics, interner)
        self._computation = Computation(
            graph, self.metrics, interner, aggregation_views
        )
        self._primitives = primitives
        self._cached_uids = cached_uids
        self._collect = collect
        self._chunk_lists = chunk_lists
        self._listing = listing

    def metrics_delta(self) -> Dict[str, float]:
        """Counters accumulated since the previous call (peaks absolute)."""
        delta = self.metrics.delta_since(self._baseline)
        self._baseline = self.metrics.snapshot()
        return delta

    def run(self, cidx: int) -> Tuple[int, bytes]:
        """Execute chunk ``cidx``; returns ``(entry count, payload bytes)``.

        The payload is encoded here, on the calling thread, so its size
        is known before it is queued and the queue's feeder thread only
        copies a flat buffer.  A listing step's chunk is the strategy's
        ``list_matches`` over the chunk's roots.
        """
        if self._listing:
            results = self.strategy.list_matches(self._chunk_lists[cidx])
            return 0, _encode_chunk({}, self.metrics_delta(), results)
        frozen: Optional[List[SubgraphResult]] = None
        sink = None
        if self._collect == "subgraphs":
            frozen = []

            def sink(subgraph):
                frozen.append(subgraph.freeze())
        elif self._collect == "count":
            def sink(subgraph):
                pass  # counted via metrics.results_emitted
        storages = run_step_sequential(
            self.strategy,
            self._primitives,
            self._computation,
            self._cached_uids,
            sink=sink,
            root_words=self._chunk_lists[cidx],
        )
        payload = _encode_chunk(storages, self.metrics_delta(), frozen)
        return sum(len(storage) for storage in storages.values()), payload


def _encode_chunk(storages, metrics_delta, frozen) -> bytes:
    """One chunk's results as flat bytes; ``_ChunkFold`` is the reader."""
    entries = {
        uid: encode_entries(storage.entries())
        for uid, storage in storages.items()
    }
    return pickle.dumps(
        (entries, metrics_delta, frozen), protocol=pickle.HIGHEST_PROTOCOL
    )


class _ChunkFold:
    """Driver-side fold of chunk payloads, in chunk-index order.

    Payloads arrive in any order, and twice when a chunk was re-executed:
    ``ack`` keeps the first copy per index, ``fold_ready`` decodes and
    folds every payload whose predecessors are all folded, then drops
    it.  Key order (first appearance in chunk order), per-key reduce
    order and counter merge order are therefore those of one sequential
    pass over the chunks, whichever process ran which chunk when.

    ``seconds`` is the wall time spent inside ``fold_ready`` — unpickle,
    decode, reduce, counter merge — which the driver spends while the
    workers are still enumerating, so no worker-lifetime metric sees it;
    ``cpu_seconds`` is the driver thread's CPU time over the same calls.
    """

    def __init__(self, storages, metrics: Metrics, collect: Optional[str]):
        self.storages = storages
        self.metrics = metrics
        self.subgraphs: Optional[List[SubgraphResult]] = (
            [] if collect == "subgraphs" else None
        )
        self.acked: Set[int] = set()
        self.folded = 0  # chunks folded so far == next index to fold
        self.seconds = 0.0
        self.cpu_seconds = 0.0
        self._waiting: Dict[int, bytes] = {}
        # Flat canonical code -> the one Pattern this fold hands out for it.
        self._patterns: Dict[Tuple[int, ...], Pattern] = {}

    def ack(self, cidx: int, payload: bytes) -> bool:
        """Accept chunk ``cidx`` exactly once; False for a duplicate."""
        if cidx in self.acked:
            return False
        self.acked.add(cidx)
        self._waiting[cidx] = payload
        return True

    def fold_ready(self) -> None:
        """Fold every acked payload that is next in chunk-index order."""
        started = time.perf_counter()
        cpu_started = time.thread_time()
        while self.folded in self._waiting:
            entries, delta, frozen = pickle.loads(
                self._waiting.pop(self.folded)
            )
            for uid, buffer in entries.items():
                self.storages[uid].merge_pairs(
                    decode_entries(buffer, self._patterns)
                )
            self.metrics.merge(Metrics.from_snapshot(delta))
            if frozen:
                self.subgraphs.extend(frozen)
            self.folded += 1
        self.seconds += time.perf_counter() - started
        self.cpu_seconds += time.thread_time() - cpu_started


@dataclass(frozen=True)
class MultiprocessConfig:
    """Shape of a real-parallel execution.

    Fault-tolerance knobs: ``worker_timeout`` bounds how long a chunk
    lease may stay unacknowledged before its worker is declared lost;
    ``max_worker_retries`` bounds respawns per worker slot;
    ``max_chunk_retries`` bounds re-leases per chunk before it is
    quarantined to the driver's sequential path; ``degrade`` selects
    whether unavailable fork/shared-memory or total worker loss falls
    back to sequential execution with a warning (``"auto"``) or raises
    (``"never"``).  ``fault_plan`` injects *real* process faults from
    its ``mp_*`` sections (chaos testing); simulated-clock sections are
    ignored here.
    """

    num_procs: int = 2
    cost_model: CostModel = DEFAULT_COST_MODEL
    worker_timeout: float = 30.0
    max_worker_retries: int = 2
    max_chunk_retries: int = 2
    degrade: str = "auto"
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self):
        if self.num_procs < 1:
            raise ValueError(f"num_procs must be >= 1, got {self.num_procs!r}")
        if not self.worker_timeout > 0:
            raise ValueError(
                f"worker_timeout must be positive, got {self.worker_timeout!r}"
            )
        if self.max_worker_retries < 0:
            raise ValueError("max_worker_retries must be >= 0")
        if self.max_chunk_retries < 0:
            raise ValueError("max_chunk_retries must be >= 0")
        if self.degrade not in ("auto", "never"):
            raise ValueError(
                f"degrade must be 'auto' or 'never', got {self.degrade!r}"
            )
        if self.fault_plan is not None:
            self.fault_plan.validate_mp(self.num_procs)


@dataclass
class _WorkerHandle:
    """Supervisor-side state of one worker incarnation (slot, generation)."""

    slot: int
    gen: int
    proc: object
    task_queue: object
    lease: Optional[int] = None
    lease_since: float = 0.0
    last_msg: float = 0.0
    done: bool = False
    dead: bool = False


class MultiprocessBackend(ExecutionBackend):
    """Run fractal steps on supervised worker processes over shared memory."""

    name = "multiprocess"

    def __init__(self, config: MultiprocessConfig):
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(fork_unavailable_message())
        self.config = config
        self._ctx = multiprocessing.get_context("fork")
        # One shared segment per graph, reused across the steps of an
        # execution (and across executions on the same graph object).
        self._shared: Optional[SharedGraphBuffers] = None
        self._shared_graph_id: Optional[int] = None

    # ------------------------------------------------------------------
    def _shared_for(self, graph: Graph) -> SharedGraphBuffers:
        if self._shared is None or self._shared_graph_id != id(graph):
            self.close()
            self._shared = SharedGraphBuffers(graph)
            self._shared_graph_id = id(graph)
        return self._shared

    def close(self) -> None:
        shared, self._shared = self._shared, None
        self._shared_graph_id = None
        if shared is not None:
            shared.unlink()

    # ------------------------------------------------------------------
    def run_step(
        self,
        graph,
        strategy_factory,
        interner,
        primitives,
        aggregation_views,
        cached_uids,
        sink=None,
        root_words=None,
        collect=None,
    ) -> StepOutcome:
        config = self.config
        cost = config.cost_model
        started = time.perf_counter()

        # Root probing is setup (as in the simulator's _distribute_roots):
        # metered separately, merged into the step totals at the end, so
        # counter totals match the sequential engine's exactly.
        setup_metrics = Metrics()
        parent_strategy = strategy_factory(graph, setup_metrics, interner)
        needs_enumerators = None
        if config.fault_plan is not None:
            needs_enumerators = (
                "mp fault plan configured (fault injection needs "
                "worker enumeration)"
            )
        step = plan_step(
            parent_strategy, graph, primitives, collect, root_words, cost,
            needs_enumerators,
        )
        # Counting steps run in the driver (module docstring).  Quarantine
        # to enumeration under degrade="auto"; degrade="never" asks for
        # hard failures instead.
        step, units = count_step(
            step, graph, parent_strategy, setup_metrics, cost,
            quarantine=config.degrade != "never",
        )
        info: Dict[str, object] = {"backend": self.name, "num_procs": config.num_procs}
        if units is not None:
            outcome = shortcut_outcome(
                step, setup_metrics, units, cost, info, where="_in_driver"
            )
            info["wall_seconds"] = time.perf_counter() - started
            return outcome

        def in_driver(words) -> StepOutcome:
            # Same process, so the driver-provided sink works and results
            # flow through it exactly as on the sequential backend.
            info["inline"] = True
            outcome = run_in_process(
                parent_strategy, primitives, aggregation_views, cached_uids,
                sink, words, cost, step, info, where="_in_driver",
            )
            info["wall_seconds"] = time.perf_counter() - started
            return outcome

        if not any(isinstance(p, Expand) for p in primitives):
            # Degenerate step without extension: one evaluation of the
            # pipeline over the empty subgraph — nothing to parallelize.
            return in_driver(root_words)
        if root_words is None:
            words = list(
                parent_strategy.extensions(parent_strategy.make_subgraph())
            )
        else:
            words = list(root_words)
        if not words:
            return in_driver(words)

        n = min(len(words), config.num_procs * CHUNKS_PER_PROC)
        chunk_lists = [words[i::n] for i in range(n)]
        try:
            shared = self._shared_for(graph)
        except OSError as exc:
            message = (
                f"shared-memory segment creation failed ({exc}); "
                "the multiprocess backend cannot share the graph"
            )
            if config.degrade == "never":
                raise RuntimeError(message)
            warnings.warn(
                "degrading to sequential execution: " + message,
                RuntimeWarning,
                stacklevel=2,
            )
            outcome = in_driver(words)
            info["degraded_to"] = "sequential"
            info["degraded_reason"] = message
            return outcome

        return self._run_supervised(
            graph,
            strategy_factory,
            primitives,
            aggregation_views,
            cached_uids,
            collect,
            shared,
            chunk_lists,
            setup_metrics,
            step,
            started,
        )

    # ------------------------------------------------------------------
    def _run_supervised(
        self,
        graph,
        strategy_factory,
        primitives,
        aggregation_views,
        cached_uids,
        collect,
        shared: SharedGraphBuffers,
        chunk_lists: List[List[int]],
        setup_metrics: Metrics,
        step: StepPlan,
        started: float,
    ) -> StepOutcome:
        """Supervision loop: lease chunks, watch workers, recover losses."""
        config = self.config
        cost = config.cost_model
        n_procs = config.num_procs
        n_chunks = len(chunk_lists)
        plan = config.fault_plan
        mp_kills = plan.mp_worker_kills if plan is not None else ()
        mp_stalls = plan.mp_worker_stalls if plan is not None else ()
        mp_drops = plan.mp_drop_results if plan is not None else ()
        poison_set: Set[int] = (
            {p.chunk_index for p in plan.mp_poison_chunks}
            if plan is not None
            else set()
        )
        result_queue = self._ctx.Queue()
        beat_interval = max(
            0.02, min(HEARTBEAT_INTERVAL, config.worker_timeout / 4.0)
        )

        def executor_on(graph_view) -> _ChunkExecutor:
            return _ChunkExecutor(
                graph_view, strategy_factory, primitives, aggregation_views,
                cached_uids, collect, chunk_lists, step.mode == "list",
            )

        def worker_main(slot: int, gen: int, task_queue) -> None:
            worker_started = time.perf_counter()
            dfscode.start_journal()
            key = (slot, gen)
            stop_beats = threading.Event()

            def beat() -> None:
                while not stop_beats.wait(beat_interval):
                    try:
                        result_queue.put(("hb", key))
                    except Exception:
                        return

            heartbeats = threading.Thread(target=beat, daemon=True)
            heartbeats.start()
            my_kills = tuple(
                k for k in mp_kills if gen == 0 and k.worker_id == slot
            )
            my_stalls = [
                [s, False] for s in mp_stalls if gen == 0 and s.worker_id == slot
            ]
            my_drops = (
                {d.chunk_number for d in mp_drops if d.worker_id == slot}
                if gen == 0
                else set()
            )

            def die() -> None:
                # Stop heartbeats, then let the queue's feeder thread
                # flush what put() buffered: SIGKILL must not land while
                # it writes, holding the queue's cross-process lock.
                stop_beats.set()
                heartbeats.join(timeout=1.0)
                result_queue.close()
                result_queue.join_thread()
                os.kill(os.getpid(), signal.SIGKILL)

            try:
                executor = executor_on(shared.attach())
                chunks_done = 0
                while True:
                    cidx = task_queue.get()
                    if cidx is None:
                        journal = dfscode.export_journal()
                        automaton = b"" if journal is None else pickle.dumps(
                            journal, protocol=pickle.HIGHEST_PROTOCOL
                        )
                        result_queue.put(
                            (
                                "done",
                                key,
                                {
                                    "metrics": executor.metrics_delta(),
                                    "automaton": automaton,
                                    "wall": time.perf_counter() - worker_started,
                                },
                            )
                        )
                        stop_beats.set()
                        return
                    # ---- injected real faults (chaos testing) --------
                    if cidx in poison_set:
                        die()
                    if any(chunks_done >= k.after_chunks for k in my_kills):
                        die()
                    for entry in my_stalls:
                        stall, fired = entry
                        if not fired and chunks_done == stall.after_chunks:
                            entry[1] = True
                            if stall.freeze:
                                stop_beats.set()
                                heartbeats.join(timeout=1.0)
                                os.kill(os.getpid(), signal.SIGSTOP)
                            else:
                                time.sleep(stall.seconds)
                    # --------------------------------------------------
                    result_queue.put(("lease", key, cidx))
                    n_entries, payload = executor.run(cidx)
                    dropped = chunks_done in my_drops
                    chunks_done += 1
                    if not dropped:
                        result_queue.put(
                            ("chunk", key, cidx, n_entries, payload)
                        )
            except BaseException:
                try:
                    result_queue.put(("error", key, traceback.format_exc()))
                except Exception:
                    pass
            finally:
                stop_beats.set()

        # ---- supervisor state -------------------------------------------
        handles: Dict[Tuple[int, int], _WorkerHandle] = {}
        live: Dict[int, Tuple[int, int]] = {}  # slot -> current incarnation
        respawns_left: Dict[int, int] = {
            slot: config.max_worker_retries for slot in range(n_procs)
        }
        pending: deque = deque(range(n_chunks))
        total_metrics = Metrics()
        total_metrics.merge(setup_metrics)
        fold = _ChunkFold(
            new_storages(primitives, cached_uids), total_metrics, collect
        )
        # What crossed the process boundary, once per retired chunk.
        shipped = {"entries_shipped": 0, "shipped_bytes": 0}
        retries: Dict[int, int] = {}
        quarantine: List[int] = []
        deaths = {"crash": 0, "hang": 0, "straggler": 0}
        recovery = {
            "workers_lost": 0,
            "workers_respawned": 0,
            "chunks_reexecuted": 0,
            "chunks_quarantined": 0,
        }
        worker_walls: Dict[Tuple[int, int], float] = {}
        extra_metrics: List[Dict[str, float]] = []
        # Each finished worker's automaton journal, absorbed after shutdown.
        journals: Dict[Tuple[int, int], bytes] = {}
        last_error: Optional[str] = None
        degraded = False

        def spawn(slot: int, gen: int) -> None:
            task_queue = self._ctx.SimpleQueue()
            proc = self._ctx.Process(
                target=worker_main, args=(slot, gen, task_queue), daemon=True
            )
            proc.start()
            now = time.monotonic()
            handle = _WorkerHandle(
                slot=slot, gen=gen, proc=proc, task_queue=task_queue,
                last_msg=now,
            )
            handles[(slot, gen)] = handle
            live[slot] = (slot, gen)

        def dispatch() -> None:
            now = time.monotonic()
            for key in list(live.values()):
                handle = handles[key]
                if handle.dead or handle.done or handle.lease is not None:
                    continue
                if not pending:
                    return
                cidx = pending.popleft()
                handle.lease = cidx
                handle.lease_since = now
                handle.task_queue.put(cidx)

        def revoke(cidx: int) -> None:
            retries[cidx] = retries.get(cidx, 0) + 1
            if retries[cidx] > config.max_chunk_retries:
                quarantine.append(cidx)
                recovery["chunks_quarantined"] += 1
                return
            recovery["chunks_reexecuted"] += 1
            pending.appendleft(cidx)

        def lose_worker(handle: _WorkerHandle, reason: str) -> None:
            deaths[reason] += 1
            recovery["workers_lost"] += 1
            handle.dead = True
            _kill_process(handle.proc)
            if live.get(handle.slot) == (handle.slot, handle.gen):
                del live[handle.slot]
            if handle.lease is not None:
                revoke(handle.lease)
                handle.lease = None
            if respawns_left[handle.slot] > 0:
                respawns_left[handle.slot] -= 1
                recovery["workers_respawned"] += 1
                # Exponential backoff between respawns: a repeatedly
                # dying slot must not fork-bomb the host.
                total_deaths = sum(deaths.values())
                time.sleep(min(0.4, 0.02 * (2 ** min(total_deaths - 1, 4))))
                spawn(handle.slot, handle.gen + 1)

        def retire(message) -> None:
            _, _, cidx, n_entries, payload = message
            if fold.ack(cidx, payload):
                shipped["entries_shipped"] += n_entries
                shipped["shipped_bytes"] += len(payload)

        def finish(key, info) -> None:
            worker_walls[key] = info["wall"]
            extra_metrics.append(info["metrics"])
            journals[key] = info["automaton"]
            if key in handles:
                handles[key].done = True

        def resolved() -> int:
            return len(fold.acked) + len(quarantine)

        poll = max(0.01, min(0.1, config.worker_timeout / 20.0))
        try:
            for slot in range(n_procs):
                spawn(slot, 0)
            dispatch()
            while resolved() < n_chunks:
                if not live:
                    # Every slot exhausted its respawn budget: walk the
                    # last rung of the degradation ladder.
                    degraded = True
                    break
                try:
                    message = result_queue.get(timeout=poll)
                except queue_lib.Empty:
                    message = None
                now = time.monotonic()
                if message is not None:
                    kind, key = message[0], message[1]
                    handle = handles.get(key)
                    if handle is not None and not handle.dead:
                        handle.last_msg = now
                    if kind == "chunk":
                        retire(message)
                        if handle is not None and handle.lease == message[2]:
                            handle.lease = None
                        # Re-lease before decoding: the worker enumerates
                        # its next chunk while the driver folds this one.
                        dispatch()
                        fold.fold_ready()
                    elif kind == "done":
                        finish(key, message[2])
                    elif kind == "error":
                        last_error = message[2]
                        if handle is not None and not handle.dead:
                            lose_worker(handle, "crash")
                    # "hb" and "lease" only refresh last_msg.
                # Sentinel / deadline sweep.
                for key in list(live.values()):
                    handle = handles[key]
                    if handle.dead or handle.done:
                        continue
                    if not handle.proc.is_alive():
                        lose_worker(handle, "crash")
                        continue
                    if (
                        handle.lease is not None
                        and now - handle.lease_since > config.worker_timeout
                    ):
                        stale = (
                            now - handle.last_msg > config.worker_timeout / 2.0
                        )
                        lose_worker(handle, "hang" if stale else "straggler")
                dispatch()
        finally:
            self._shutdown_workers(handles, result_queue, finish, retire)
        # What the workers added to the canonicalization automaton joins
        # the driver's tables, so the next fork starts warm.
        automaton = {"nodes": 0, "transitions": 0, "templates": 0, "bytes": 0}
        for key in sorted(journals):
            blob = journals[key]
            if blob:
                counts = dfscode.absorb(pickle.loads(blob))
                for name, n in zip(("nodes", "transitions", "templates"), counts):
                    automaton[name] += n
                automaton["bytes"] += len(blob)

        remaining = sorted(
            set(range(n_chunks)) - fold.acked - set(quarantine)
        )
        degraded_reason = None
        if degraded:
            degraded_reason = (
                "all multiprocess worker slots exhausted their respawn "
                f"budget ({config.max_worker_retries} per slot); "
                f"re-executing {len(remaining) + len(quarantine)} chunks "
                "in-driver on the sequential path"
            )
            message = degraded_reason + (
                f"\nlast worker error:\n{last_error}" if last_error else ""
            )
            if config.degrade == "never":
                raise RuntimeError(message)
            warnings.warn(message, RuntimeWarning, stacklevel=2)
        fold.fold_ready()
        driver_chunks = sorted(set(quarantine) | set(remaining))
        if driver_chunks:
            # Quarantine/degradation rung: the driver runs the chunks
            # itself, through the same executor and wire form as a worker.
            executor = executor_on(graph)
            for cidx in driver_chunks:
                fold.ack(cidx, executor.run(cidx)[1])
                fold.fold_ready()
        if fold.folded != n_chunks:
            missing = sorted(set(range(n_chunks)) - fold.acked)
            raise RuntimeError(
                f"multiprocess supervision lost chunks {missing}; this is a "
                "bug — every chunk must be acked or quarantined"
            )
        for storage in fold.storages.values():
            storage.prefilter()
        for snapshot in extra_metrics:
            total_metrics.merge(Metrics.from_snapshot(snapshot))
        total_metrics.workers_lost += recovery["workers_lost"]
        total_metrics.workers_respawned += recovery["workers_respawned"]
        total_metrics.chunks_reexecuted += recovery["chunks_reexecuted"]
        total_metrics.chunks_quarantined += recovery["chunks_quarantined"]
        units = cost.step_units(total_metrics)
        info: Dict[str, object] = {
            "backend": self.name,
            "num_procs": n_procs,
            "start_method": "fork",
            "wall_seconds": time.perf_counter() - started,
            "worker_wall_seconds": [
                worker_walls[key] for key in sorted(worker_walls)
            ],
            "fold_seconds": fold.seconds,
            "fold_cpu_seconds": fold.cpu_seconds,
            "automaton": automaton,
            "chunks": n_chunks,
            "shared_graph_bytes": shared.nbytes,
            **recovery,
            **shipped,
            "worker_deaths": dict(deaths),
        }
        if degraded:
            info["degraded_to"] = "sequential"
            info["degraded_reason"] = degraded_reason
        if step.mode == "list":
            info[SHORTCUT_FLAGS["list"] + "_in_worker"] = True
        return StepOutcome(
            storages=fold.storages,
            metrics=total_metrics,
            work_units=units,
            simulated_seconds=cost.seconds(units),
            kernel_info=step.kernel_info,
            backend_info=info,
            subgraphs=fold.subgraphs,
        )

    # ------------------------------------------------------------------
    def _shutdown_workers(self, handles, result_queue, finish, retire) -> bool:
        """Clean shutdown: signal, join with timeout, terminate-and-reap.

        Never blocks indefinitely — a wedged worker is terminated and,
        failing that, SIGKILLed, so Ctrl-C and test teardown cannot
        deadlock on ``join``.
        """
        config = self.config
        for handle in handles.values():
            if not handle.dead and not handle.done:
                try:
                    handle.task_queue.put(None)
                except Exception:
                    pass
        deadline = time.monotonic() + max(1.0, min(config.worker_timeout, 5.0))
        pending = {
            key
            for key, handle in handles.items()
            if not handle.dead and not handle.done
        }
        while pending and time.monotonic() < deadline:
            try:
                message = result_queue.get(timeout=0.05)
            except queue_lib.Empty:
                for key in list(pending):
                    if not handles[key].proc.is_alive():
                        pending.discard(key)
                continue
            kind, key = message[0], message[1]
            if kind == "done":
                finish(key, message[2])
                pending.discard(key)
            elif kind == "chunk":
                retire(message)
        clean = not pending
        for handle in handles.values():
            proc = handle.proc
            proc.join(timeout=0.2)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=0.5)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
        return clean


def fork_unavailable_message() -> str:
    """Actionable error for platforms without the ``fork`` start method."""
    methods = multiprocessing.get_all_start_methods()
    return (
        "the multiprocess backend requires the 'fork' start method "
        "(fractal primitives are closures and do not pickle), but this "
        f"platform ({sys.platform!r}) only provides {methods!r}; "
        "use --backend simulator (engine=ClusterConfig(...)) for "
        "deterministic parallelism, or --backend sequential"
    )


def _kill_process(proc) -> None:
    """SIGKILL one worker and reap it; works on SIGSTOPped processes too."""
    try:
        if proc.is_alive():
            proc.kill()
    except Exception:
        pass
    proc.join(timeout=2.0)
