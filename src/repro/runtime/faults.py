"""Declarative fault injection for the simulated cluster.

Fractal's resilience argument (paper §4.1–4.2) is that the from-scratch
processing strategy makes recovery cheap: any enumeration prefix can be
re-derived from its word sequence, so a lost work unit is recovered by
*re-enumeration* instead of checkpoint/restore.  This module turns that
claim into a testable property.  A :class:`FaultPlan` declares *what goes
wrong and when* on the simulated clock:

* **whole-worker failures** — every core of a worker dies at once (a
  machine crash);
* **per-core kills** — one logical core dies (an executor thread lost);
* **straggler windows** — a core runs ``factor``× slower for a clock
  interval (CPU contention, GC pauses);
* **message faults** — external-steal request/response messages are
  dropped, duplicated or delayed with seeded probabilities (the Akka
  layer misbehaving).

Since PR 7 the same plan vocabulary also drives *real* faults in the
multiprocess backend (:mod:`~repro.runtime.mp_backend`): the ``mp_*``
sections name OS-process misbehaviour instead of simulated-clock events —

* **worker kills** (:class:`MpWorkerKill`) — a worker process sends
  itself ``SIGKILL`` after completing ``after_chunks`` chunks (an OOM
  kill, a segfault);
* **worker stalls** (:class:`MpWorkerStall`) — a worker sleeps
  (straggler: its heartbeats keep flowing) or freezes itself with
  ``SIGSTOP`` (hang: heartbeats stop too) before starting a chunk;
* **dropped results** (:class:`MpDropResult`) — a worker completes a
  chunk but never ships the result message (a lost IPC message);
* **poison chunks** (:class:`MpPoisonChunk`) — any worker that leases
  the named chunk dies before shipping it, however often it is retried
  (a workload-triggered crash); only the driver's in-process quarantine
  path can complete it.

``mp_*`` faults fire on *chunk progress*, not the simulated clock, and
apply to generation-0 workers only (replacement workers respawned by the
supervisor run clean), so every survivable plan terminates.  A plan may
carry both simulated and ``mp_*`` sections; each engine consumes its
own and ignores the other's.

Everything is deterministic: failures and stragglers fire on the
simulated clock, message faults come from one seeded stream consumed in
scheduler order, and the scheduler itself is a deterministic min-heap —
so any fault schedule replays bit-for-bit.

Failure *detection* is modeled by :class:`FailureDetector`: cores
heartbeat every ``heartbeat_interval_units``; a core is declared dead
once ``miss_threshold`` consecutive heartbeats are missing.  Orphaned
enumerators become visible to the rest of the cluster only after the
detection point — survivors then recover them through work stealing
(with retry-and-backoff against message faults), and whatever stealing
cannot reach is resubmitted by the driver-level fallback in
:mod:`~repro.runtime.cluster` and re-enumerated from scratch.

The core invariant, enforced by ``tests/test_fault_recovery.py`` and the
chaos harness ``benchmarks/bench_fault_recovery.py``: **results and
aggregations are byte-identical under every fault schedule**; only
clocks, makespan and recovery metrics change.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "CoreFailure",
    "WorkerFailure",
    "StragglerWindow",
    "MessageFaults",
    "FailureDetector",
    "MpWorkerKill",
    "MpWorkerStall",
    "MpDropResult",
    "MpPoisonChunk",
    "FaultPlan",
    "MessageChannel",
]


def _check_clock(value: float, what: str) -> None:
    """Reject clock values the simulator cannot schedule."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int past the float range
        number = math.inf
    if math.isnan(number):
        raise ValueError(f"{what} must not be NaN")
    if math.isinf(number):
        raise ValueError(f"{what} must be finite, got {value!r}")
    if number < 0:
        raise ValueError(f"{what} must be non-negative, got {value!r}")


def _check_index(value, bound: int, message: str) -> None:
    """Reject ``value`` unless it is an integer in ``0..bound-1``."""
    if isinstance(value, bool) or not isinstance(value, int) or not (
        0 <= value < bound
    ):
        raise ValueError(message)


@dataclass(frozen=True)
class CoreFailure:
    """Kill one logical core once its clock passes ``at`` units."""

    core_id: int
    at: float


@dataclass(frozen=True)
class WorkerFailure:
    """Kill every core of one worker once their clocks pass ``at`` units."""

    worker_id: int
    at: float


@dataclass(frozen=True)
class StragglerWindow:
    """Slow one core down: work in ``[start, end)`` costs ``factor``× units."""

    core_id: int
    start: float
    end: float
    factor: float = 4.0


@dataclass(frozen=True)
class MessageFaults:
    """Seeded fault probabilities for external-steal messages.

    Each message (request or response) independently draws: drop first,
    then duplication, then delay.  A dropped message forces the thief
    through the retry-and-backoff path; a duplicated message is counted
    on the wire but discarded idempotently by the receiver (steal
    transfers carry a sequence number in the real protocol); a delayed
    message adds ``delay_units`` to the round-trip.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    delay_units: float = 300.0

    def validate(self) -> None:
        for name in ("drop", "duplicate", "delay"):
            _check_clock(getattr(self, name), f"message {name} probability")
        if self.drop >= 1.0:
            raise ValueError(
                "message drop probability must be in [0, 1): a drop "
                f"probability of {self.drop!r} would starve the retry loop"
            )
        for name in ("duplicate", "delay"):
            p = getattr(self, name)
            if p > 1.0:
                raise ValueError(
                    f"message {name} probability must be in [0, 1], got {p!r}"
                )
        _check_clock(self.delay_units, "message delay_units")

    @property
    def active(self) -> bool:
        return self.drop > 0 or self.duplicate > 0 or self.delay > 0


@dataclass(frozen=True)
class FailureDetector:
    """Heartbeat/timeout failure detector.

    Cores heartbeat at multiples of ``heartbeat_interval_units`` (the
    beats piggyback on steal traffic and are not separately charged).  A
    monitor declares a core dead after ``miss_threshold`` consecutive
    missing heartbeats, so a core dying at clock ``t`` is *detected* at::

        floor(t / interval) * interval + miss_threshold * interval

    — its last heartbeat plus the full miss window.  Detection latency is
    therefore bounded by ``(miss_threshold + 1) * interval`` and the
    detector always converges: every injected failure is detected at a
    finite simulated time.
    """

    heartbeat_interval_units: float = 100.0
    miss_threshold: int = 3

    def validate(self) -> None:
        _check_clock(self.heartbeat_interval_units, "heartbeat interval")
        if self.heartbeat_interval_units <= 0:
            raise ValueError("heartbeat interval must be positive")
        threshold = self.miss_threshold
        if isinstance(threshold, bool) or not isinstance(threshold, int):
            raise ValueError(
                f"heartbeat miss threshold must be an integer, got {threshold!r}"
            )
        _check_clock(threshold, "heartbeat miss threshold")
        if threshold < 1:
            raise ValueError("heartbeat miss threshold must be >= 1")

    def detect_at(self, death_clock: float) -> float:
        """Simulated time at which a death at ``death_clock`` is detected."""
        interval = self.heartbeat_interval_units
        last_beat = math.floor(death_clock / interval) * interval
        return last_beat + self.miss_threshold * interval


def _check_chunk_count(value, what: str) -> None:
    """Reject chunk ordinals the multiprocess supervisor cannot reach."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{what} must be non-negative, got {value!r}")


@dataclass(frozen=True)
class MpWorkerKill:
    """Real fault: worker ``worker_id`` SIGKILLs itself.

    Fires when the worker is about to start a chunk having already
    completed ``after_chunks`` chunks (``0`` = die on the first chunk).
    Applies to the worker slot's generation-0 process only; respawned
    replacements run clean.
    """

    worker_id: int
    after_chunks: int = 0


@dataclass(frozen=True)
class MpWorkerStall:
    """Real fault: worker ``worker_id`` stops making progress.

    Before starting the chunk after ``after_chunks`` completions, the
    worker either sleeps ``seconds`` (``freeze=False`` — a straggler
    whose heartbeats keep flowing) or SIGSTOPs itself (``freeze=True``
    — a hang that silences heartbeats too).  The supervisor kills and
    replaces either once its lease outlives the worker timeout.
    """

    worker_id: int
    after_chunks: int = 0
    seconds: float = 30.0
    freeze: bool = False


@dataclass(frozen=True)
class MpDropResult:
    """Real fault: the worker's ``chunk_number``-th completed chunk's
    result message is silently discarded (a lost IPC message).  The
    chunk's lease is never acknowledged, so the supervisor recovers it
    through the lease timeout and re-executes it elsewhere."""

    worker_id: int
    chunk_number: int = 0


@dataclass(frozen=True)
class MpPoisonChunk:
    """Real fault: chunk ``chunk_index`` kills whichever worker leases
    it (any generation), modelling a workload-triggered crash.  Bounded
    per-chunk retries quarantine it to the driver's in-process
    sequential path, which is immune."""

    chunk_index: int


# The plan's list-valued sections and the entry type each one holds.
_ENTRY_SECTIONS = {
    "core_failures": CoreFailure,
    "worker_failures": WorkerFailure,
    "stragglers": StragglerWindow,
    "mp_worker_kills": MpWorkerKill,
    "mp_worker_stalls": MpWorkerStall,
    "mp_drop_results": MpDropResult,
    "mp_poison_chunks": MpPoisonChunk,
}


@dataclass(frozen=True)
class FaultPlan:
    """A complete, deterministic fault schedule for one execution.

    Attach to :class:`~repro.runtime.cluster.ClusterConfig` via its
    ``fault_plan`` field; the config validates the plan against the
    cluster shape at construction time.
    """

    core_failures: Tuple[CoreFailure, ...] = ()
    worker_failures: Tuple[WorkerFailure, ...] = ()
    stragglers: Tuple[StragglerWindow, ...] = ()
    message_faults: Optional[MessageFaults] = None
    detector: FailureDetector = field(default_factory=FailureDetector)
    seed: int = 0
    # Real-process faults, consumed by the multiprocess backend only.
    mp_worker_kills: Tuple[MpWorkerKill, ...] = ()
    mp_worker_stalls: Tuple[MpWorkerStall, ...] = ()
    mp_drop_results: Tuple[MpDropResult, ...] = ()
    mp_poison_chunks: Tuple[MpPoisonChunk, ...] = ()

    def __post_init__(self):
        # Accept lists for convenience; store tuples so plans are hashable.
        for name in _ENTRY_SECTIONS:
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, workers: int, cores_per_worker: int) -> None:
        """Check the plan against a cluster shape; raise ``ValueError``."""
        total = workers * cores_per_worker
        for failure in self.core_failures:
            _check_index(
                failure.core_id,
                total,
                f"fault plan kills core {failure.core_id!r}, but the "
                f"cluster has cores 0..{total - 1} "
                f"({workers} workers x {cores_per_worker} cores)",
            )
            _check_clock(failure.at, f"failure clock for core {failure.core_id}")
        for failure in self.worker_failures:
            _check_index(
                failure.worker_id,
                workers,
                f"fault plan kills worker {failure.worker_id!r}, but the "
                f"cluster has workers 0..{workers - 1}",
            )
            _check_clock(
                failure.at, f"failure clock for worker {failure.worker_id}"
            )
        for window in self.stragglers:
            _check_index(
                window.core_id,
                total,
                f"straggler window names core {window.core_id!r}, but the "
                f"cluster has cores 0..{total - 1}",
            )
            _check_clock(window.start, "straggler window start")
            _check_clock(window.end, "straggler window end")
            if window.end <= window.start:
                raise ValueError(
                    f"straggler window for core {window.core_id} is empty: "
                    f"start={window.start!r}, end={window.end!r}"
                )
            _check_clock(window.factor, "straggler factor")
            if window.factor < 1.0:
                raise ValueError(
                    f"straggler factor must be >= 1, got {window.factor!r}"
                )
        if self.message_faults is not None:
            self.message_faults.validate()
        self.detector.validate()
        if len(self.deadlines(workers, cores_per_worker)) >= total:
            raise ValueError(
                "fault plan kills every core; at least one core must "
                "survive to recover the orphaned work"
            )

    def validate_mp(self, num_procs: int) -> None:
        """Check the real-fault sections against a worker-process count.

        Called by ``MultiprocessConfig``; raises ``ValueError``.  Mirrors
        the simulator's kill-all guard: at least one worker slot must
        stay unkilled so gen-0 progress is possible without leaning on
        respawns alone.
        """
        if num_procs < 1:
            raise ValueError(f"num_procs must be >= 1, got {num_procs!r}")
        bounds = f"the backend has workers 0..{num_procs - 1}"
        for kill in self.mp_worker_kills:
            _check_index(
                kill.worker_id,
                num_procs,
                f"fault plan kills mp worker {kill.worker_id!r}, but {bounds}",
            )
            _check_chunk_count(
                kill.after_chunks, f"kill after_chunks for worker {kill.worker_id}"
            )
        for stall in self.mp_worker_stalls:
            _check_index(
                stall.worker_id,
                num_procs,
                f"fault plan stalls mp worker {stall.worker_id!r}, but {bounds}",
            )
            _check_chunk_count(
                stall.after_chunks,
                f"stall after_chunks for worker {stall.worker_id}",
            )
            _check_clock(stall.seconds, f"stall seconds for worker {stall.worker_id}")
            if not isinstance(stall.freeze, bool):
                raise ValueError(
                    f"stall freeze must be a bool, got {stall.freeze!r}"
                )
        for drop in self.mp_drop_results:
            _check_index(
                drop.worker_id,
                num_procs,
                f"fault plan drops results of mp worker {drop.worker_id!r}, "
                f"but {bounds}",
            )
            _check_chunk_count(
                drop.chunk_number,
                f"drop chunk_number for worker {drop.worker_id}",
            )
        for poison in self.mp_poison_chunks:
            _check_chunk_count(poison.chunk_index, "poison chunk_index")
        killed = {k.worker_id for k in self.mp_worker_kills}
        if len(killed) >= num_procs:
            raise ValueError(
                "fault plan kills every mp worker; at least one worker "
                "slot must survive to make progress without respawns"
            )

    @property
    def has_mp_faults(self) -> bool:
        """Whether any real-process fault section is populated."""
        return bool(
            self.mp_worker_kills
            or self.mp_worker_stalls
            or self.mp_drop_results
            or self.mp_poison_chunks
        )

    # ------------------------------------------------------------------
    # Queries used by the engine
    # ------------------------------------------------------------------
    def deadlines(self, workers: int, cores_per_worker: int) -> Dict[int, float]:
        """Merged ``core_id -> earliest kill clock`` over all failures."""
        merged: Dict[int, float] = {}
        for failure in self.core_failures:
            previous = merged.get(failure.core_id)
            if previous is None or failure.at < previous:
                merged[failure.core_id] = failure.at
        for failure in self.worker_failures:
            base = failure.worker_id * cores_per_worker
            for core_id in range(base, base + cores_per_worker):
                previous = merged.get(core_id)
                if previous is None or failure.at < previous:
                    merged[core_id] = failure.at
        return merged

    def slowdown(self, core_id: int, clock: float) -> float:
        """Straggler factor for a core at a simulated instant (>= 1.0)."""
        factor = 1.0
        for window in self.stragglers:
            if (
                window.core_id == core_id
                and window.start <= clock < window.end
                and window.factor > factor
            ):
                factor = window.factor
        return factor

    @property
    def has_stragglers(self) -> bool:
        return bool(self.stragglers)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_seed(
        cls,
        seed: int,
        workers: int,
        cores_per_worker: int,
        horizon_units: float = 2000.0,
    ) -> "FaultPlan":
        """Generate a random-but-deterministic chaos schedule.

        ``horizon_units`` bounds when events fire; pick it near the
        expected makespan so failures actually land mid-execution.  One
        randomly chosen core (and its worker) is always spared so the
        plan is recoverable.
        """
        if workers < 1 or cores_per_worker < 1:
            raise ValueError("cluster shape must be at least 1x1")
        _check_clock(horizon_units, "fault plan horizon")
        # One sub-stream per schedule section: consecutive small seeds fed
        # to a single Mersenne stream correlate at equal draw depths,
        # which would starve whole fault categories across a seed sweep.
        def sub(label: str) -> random.Random:
            return random.Random(f"fault-plan:{label}:{seed}")

        total = workers * cores_per_worker
        rng = sub("survivor")
        survivor = rng.randrange(total)
        survivor_worker = survivor // cores_per_worker

        rng = sub("core-kills")
        candidates = [c for c in range(total) if c != survivor]
        n_kills = rng.randint(0, max(0, len(candidates) // 2))
        core_failures = tuple(
            CoreFailure(core_id, round(rng.uniform(0.0, horizon_units), 3))
            for core_id in sorted(rng.sample(candidates, n_kills))
        )
        worker_failures: Tuple[WorkerFailure, ...] = ()
        rng = sub("worker-kill")
        doomed = [w for w in range(workers) if w != survivor_worker]
        if doomed and rng.random() < 0.4:
            worker_failures = (
                WorkerFailure(
                    rng.choice(doomed), round(rng.uniform(0.0, horizon_units), 3)
                ),
            )
        rng = sub("stragglers")
        stragglers: List[StragglerWindow] = []
        for _ in range(rng.randint(0, 2)):
            start = round(rng.uniform(0.0, horizon_units), 3)
            stragglers.append(
                StragglerWindow(
                    core_id=rng.randrange(total),
                    start=start,
                    end=round(start + rng.uniform(50.0, horizon_units / 2), 3),
                    factor=round(rng.uniform(2.0, 8.0), 2),
                )
            )
        rng = sub("messages")
        message_faults = None
        if rng.random() < 0.7:
            message_faults = MessageFaults(
                drop=round(rng.uniform(0.0, 0.4), 3),
                duplicate=round(rng.uniform(0.0, 0.3), 3),
                delay=round(rng.uniform(0.0, 0.4), 3),
                delay_units=round(rng.uniform(50.0, 500.0), 1),
            )
        return cls(
            core_failures=core_failures,
            worker_failures=worker_failures,
            stragglers=tuple(stragglers),
            message_faults=message_faults,
            seed=seed,
        )

    @classmethod
    def from_seed_mp(
        cls,
        seed: int,
        num_procs: int,
        chunks_hint: int = 8,
        stall_seconds: float = 2.0,
    ) -> "FaultPlan":
        """Generate a random-but-deterministic *real-fault* schedule.

        The multiprocess analogue of :meth:`from_seed`: kills, stalls,
        dropped results and an occasional poison chunk for a
        ``num_procs``-worker backend.  One randomly chosen worker slot
        is always spared from kills so the plan passes
        :meth:`validate_mp`.  ``chunks_hint`` bounds the chunk ordinals
        faults fire at (keep it near ``mp_backend.CHUNKS_PER_PROC``);
        ``stall_seconds`` sizes injected sleeps — pick it above the
        configured worker timeout to exercise straggler detection.
        """
        if num_procs < 1:
            raise ValueError(f"num_procs must be >= 1, got {num_procs!r}")
        _check_clock(stall_seconds, "mp stall seconds")

        def sub(label: str) -> random.Random:
            return random.Random(f"mp-fault-plan:{label}:{seed}")

        rng = sub("survivor")
        survivor = rng.randrange(num_procs)
        doomed = [w for w in range(num_procs) if w != survivor]

        rng = sub("kills")
        kills: List[MpWorkerKill] = []
        if doomed:
            for worker_id in rng.sample(
                doomed, rng.randint(min(1, len(doomed)), len(doomed))
            ):
                kills.append(
                    MpWorkerKill(worker_id, rng.randrange(max(1, chunks_hint)))
                )
        rng = sub("stalls")
        stalls: List[MpWorkerStall] = []
        if rng.random() < 0.5:
            stalls.append(
                MpWorkerStall(
                    worker_id=rng.randrange(num_procs),
                    after_chunks=rng.randrange(max(1, chunks_hint)),
                    seconds=stall_seconds,
                    freeze=rng.random() < 0.5,
                )
            )
        rng = sub("drops")
        drops: List[MpDropResult] = []
        if rng.random() < 0.5:
            drops.append(
                MpDropResult(
                    worker_id=rng.randrange(num_procs),
                    chunk_number=rng.randrange(max(1, chunks_hint)),
                )
            )
        rng = sub("poison")
        poisons: List[MpPoisonChunk] = []
        if rng.random() < 0.3:
            poisons.append(
                MpPoisonChunk(rng.randrange(max(1, num_procs * chunks_hint)))
            )
        return cls(
            seed=seed,
            mp_worker_kills=tuple(kills),
            mp_worker_stalls=tuple(stalls),
            mp_drop_results=tuple(drops),
            mp_poison_chunks=tuple(poisons),
        )

    # ------------------------------------------------------------------
    # Serialization (CLI ``--fault-plan FILE``)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON representation (round-trips through ``from_dict``)."""
        out: dict = {"seed": self.seed}
        for name in _ENTRY_SECTIONS:
            entries = getattr(self, name)
            if entries:
                out[name] = [asdict(entry) for entry in entries]
        if self.message_faults is not None:
            out["message_faults"] = asdict(self.message_faults)
        out["detector"] = asdict(self.detector)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Inverse of :meth:`to_dict` (tolerates missing sections).

        Raises ``ValueError`` on an unknown top-level key (a misspelt
        section would otherwise inject nothing), a section that is not a
        list, an entry that is not an object or names an unknown field,
        and a seed that is not an integer.
        """
        if not isinstance(data, dict):
            raise ValueError(f"fault plan must be a JSON object, got {data!r}")
        known = {"seed", "message_faults", "detector", *_ENTRY_SECTIONS}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown fault plan section(s) {unknown}; "
                f"a plan has {sorted(known)}"
            )
        seed = data.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValueError(f"fault plan seed must be an integer, got {seed!r}")

        def build(entry_cls, entry: dict, section: str):
            # Unknown keys in a fault entry signal a typo'd or newer plan;
            # surface a ValueError instead of dataclass TypeError noise.
            if not isinstance(entry, dict):
                raise ValueError(
                    f"{section} entries must be JSON objects, got {entry!r}"
                )
            try:
                return entry_cls(**entry)
            except TypeError as exc:
                raise ValueError(f"bad {section} entry {entry!r}: {exc}")

        sections = {}
        for name, entry_cls in _ENTRY_SECTIONS.items():
            entries = data.get(name, [])
            if not isinstance(entries, list):
                raise ValueError(
                    f"fault plan section {name!r} must be a list, got {entries!r}"
                )
            sections[name] = tuple(build(entry_cls, e, name) for e in entries)
        message_faults = data.get("message_faults")
        if message_faults is not None:
            message_faults = build(MessageFaults, message_faults, "message_faults")
        return cls(
            message_faults=message_faults,
            detector=build(FailureDetector, data.get("detector", {}), "detector"),
            seed=seed,
            **sections,
        )

    def save(self, path: str) -> None:
        """Write the plan as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        """Read a plan written by :meth:`save` (or by hand)."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


class MessageChannel:
    """Seeded fault decisions for the external-steal message stream.

    One channel serves one ``run_step``: every message consumed draws
    from a single ``random.Random(seed)`` stream.  Because the event
    loop schedules deterministically, the i-th message of a run is
    always the same message — fault decisions replay bit-for-bit.
    """

    __slots__ = ("faults", "_rng")

    def __init__(self, faults: MessageFaults, seed: int):
        self.faults = faults
        self._rng = random.Random(f"repro-message-faults:{seed}")

    def transmit(self) -> Tuple[bool, bool, float, int]:
        """Fate of one message: (delivered, duplicated, delay_units, wire_count)."""
        faults = self.faults
        draw = self._rng.random
        if draw() < faults.drop:
            return False, False, 0.0, 1
        duplicated = draw() < faults.duplicate
        delay = faults.delay_units if draw() < faults.delay else 0.0
        return True, duplicated, delay, 2 if duplicated else 1
