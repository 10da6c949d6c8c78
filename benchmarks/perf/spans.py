"""Timing wrappers installed from outside, around calls into each layer.

A *seam* is a public function or method of ``repro`` (or of the standard
library where the program forks and waits).  ``Tracer.install`` replaces
each seam with a wrapper; ``uninstall`` restores it.  Nothing under
``src/`` knows it is being timed.

Two kinds of seam:

* **coarse** seams (execute, run_step, planning, merges, fork) are called
  a handful of times and store one span each: name, start, end, parent
  span and the ``workload/rep`` id;
* **hot** seams (``minimum_dfs_code``, ``intern``, ``extensions``,
  ``intersect_slices``, aggregation add, ``freeze``) are called up to a
  million times and aggregate into ``(name, enclosing span) -> calls,
  total, self``.

Self time is a span's duration minus the part its child spans cover, so
the self times of everything below a root span sum to that root's
duration exactly.

Forked worker processes restore the originals on start: their side of
the seams cannot be read from the driver, and timing them would only
slow the workers down.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple


class Seam(NamedTuple):
    name: str
    module: str
    attr: str  # dotted path inside the module: "func" or "Class.method"
    hot: bool = False


SEAMS: Tuple[Seam, ...] = (
    # runtime
    Seam("runtime.driver.execute_plan", "repro.runtime.driver", "execute_plan"),
    Seam("runtime.backend.run_step", "repro.runtime.backend",
         "SequentialBackend.run_step"),
    Seam("runtime.backend.run_step", "repro.runtime.backend",
         "SimulatorBackend.run_step"),
    Seam("runtime.backend.run_step", "repro.runtime.mp_backend",
         "MultiprocessBackend.run_step"),
    Seam("runtime.engine.run_step_sequential", "repro.runtime.engine",
         "run_step_sequential"),
    Seam("runtime.cluster.run_step", "repro.runtime.cluster",
         "ClusterEngine.run_step"),
    Seam("runtime.mp.fork", "multiprocessing.process", "BaseProcess.start"),
    Seam("runtime.mp.queue_get", "multiprocessing.queues", "Queue.get", hot=True),
    # graph
    Seam("graph.shm.create", "repro.graph.shm", "SharedGraphBuffers.__init__"),
    # core
    Seam("core.steps.plan_steps", "repro.core.steps", "plan_steps"),
    Seam("core.enumerator.plan_matching_order", "repro.core.enumerator",
         "plan_matching_order"),
    Seam("core.enumerator.count_matches", "repro.core.enumerator",
         "PatternInducedStrategy.count_matches"),
    Seam("core.enumerator.extensions", "repro.core.enumerator",
         "VertexInducedStrategy.extensions", hot=True),
    Seam("core.enumerator.extensions", "repro.core.enumerator",
         "EdgeInducedStrategy.extensions", hot=True),
    Seam("core.enumerator.extensions", "repro.core.enumerator",
         "PatternInducedStrategy.extensions", hot=True),
    Seam("core.intersect.intersect_slices", "repro.core.intersect",
         "intersect_slices", hot=True),
    Seam("core.aggregation.add", "repro.core.aggregation",
         "AggregationStorage.add", hot=True),
    Seam("core.aggregation.add", "repro.core.aggregation",
         "AggregationStorage.add_inplace", hot=True),
    Seam("core.aggregation.merge", "repro.core.aggregation",
         "merge_storages_streaming"),
    Seam("core.aggregation.merge", "repro.core.aggregation",
         "AggregationStorage.merge"),
    Seam("core.aggregation.merge", "repro.core.aggregation",
         "AggregationStorage.merge_pairs"),
    Seam("core.aggregation.finalize", "repro.core.aggregation",
         "AggregationStorage.finalize"),
    Seam("core.subgraph.freeze", "repro.core.subgraph", "Subgraph.freeze",
         hot=True),
    # pattern
    Seam("pattern.dfscode.minimum_dfs_code", "repro.pattern.dfscode",
         "minimum_dfs_code", hot=True),
    Seam("pattern.interner.intern", "repro.pattern.pattern",
         "PatternInterner.intern", hot=True),
    Seam("pattern.symmetry.symmetry_plan", "repro.pattern.symmetry",
         "symmetry_plan"),
    Seam("pattern.decompose.plan_step_decomposition", "repro.pattern.decompose",
         "plan_step_decomposition"),
    Seam("pattern.decompose.count_embeddings", "repro.pattern.decompose",
         "count_embeddings"),
)

SEAM_NAMES = tuple(dict.fromkeys(seam.name for seam in SEAMS))

_ROOT = -1  # parent index of a span opened outside every other span

# The tracer whose wrappers are installed, for the fork hook below.
_installed: Optional["Tracer"] = None
_fork_hook_registered = False


def _restore_in_child() -> None:
    if _installed is not None:
        _installed.uninstall()


class Tracer:
    """Collects spans from wrapped seams; see the module docstring."""

    def __init__(self, seams: Tuple[Seam, ...] = SEAMS):
        self.seams = seams
        self.spans: List[dict] = []
        # (name, enclosing span index) -> [calls, total seconds, self seconds]
        self.hot: Dict[Tuple[str, int], List[float]] = {}
        # Seam name -> why it could not be wrapped.
        self.missing: Dict[str, str] = {}
        self.tag = ""
        # Each active frame is a one-element list: seconds covered by its
        # children so far.  The sentinel absorbs top-level spans.
        self._stack: List[List[float]] = [[0.0]]
        self._current = _ROOT
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable, hot: bool = False) -> Callable:
        """``fn`` timed as a span called ``name``."""
        return self._wrap_hot(name, fn) if hot else self._wrap_coarse(name, fn)

    def _wrap_coarse(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _wrap_hot(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        totals = self.hot

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stack[-1][0] += elapsed
                key = (name, self._current)
                entry = totals.get(key)
                if entry is None:
                    totals[key] = [1, elapsed, elapsed - frame[0]]
                else:
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - frame[0]

        return wrapper

    def span(self, name: str):
        """Context manager form of a coarse span, for the runner's own
        boundaries (a repetition, an app call)."""
        return _SpanContext(self, name)

    # ------------------------------------------------------------------
    # Installing
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every seam that resolves; record the ones that do not."""
        global _installed, _fork_hook_registered
        if _installed is not None:
            raise RuntimeError("another tracer is installed")
        for seam in self.seams:
            try:
                module = importlib.import_module(seam.module)
                owner = module
                *path, leaf = seam.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError) as exc:
                self.missing[seam.name] = f"{seam.module}:{seam.attr}: {exc}"
                continue
            wrapped = self.wrap(seam.name, original, seam.hot)
            self._patch(owner, leaf, original, wrapped)
            if owner is module:
                # ``from m import f`` copies: rebind every alias too.
                for other in list(sys.modules.values()):
                    if (
                        other is not module
                        and getattr(other, "__name__", "").startswith("repro")
                        and getattr(other, leaf, None) is original
                    ):
                        self._patch(other, leaf, original, wrapped)
        _installed = self
        if not _fork_hook_registered:
            os.register_at_fork(after_in_child=_restore_in_child)
            _fork_hook_registered = True

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        global _installed
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if _installed is self:
            _installed = None

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def rows(self, tag_prefix: str = ""):
        """``(name, enclosing span's name, calls, total, self)`` for every
        span and hot entry whose ``workload/rep`` id starts with
        ``tag_prefix`` (a hot entry carries its enclosing span's id)."""
        spans = self.spans
        for record in spans:
            if record["id"].startswith(tag_prefix):
                parent = record["parent"]
                yield (
                    record["name"],
                    spans[parent]["name"] if parent != _ROOT else None,
                    1,
                    record["end"] - record["start"],
                    record["self"],
                )
        for (name, parent), (calls, total, self_s) in self.hot.items():
            if parent == _ROOT:
                if not tag_prefix:
                    yield name, None, calls, total, self_s
            elif spans[parent]["id"].startswith(tag_prefix):
                yield name, spans[parent]["name"], calls, total, self_s

    def dump(self, path, **extra) -> None:
        """Write everything collected, once, at the end of the run."""
        payload = {
            "spans": self.spans,
            "hot": [
                {"name": name, "parent": parent, "calls": n,
                 "total": t, "self": s}
                for (name, parent), (n, t, s) in sorted(self.hot.items())
            ],
            "missing_seams": self.missing,
            **extra,
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


class _SpanContext:
    __slots__ = ("tracer", "name", "record", "frame", "parent", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.parent = tracer._current
        self.record = {"name": self.name, "id": tracer.tag,
                       "parent": self.parent, "start": 0.0, "end": 0.0,
                       "self": 0.0}
        tracer._current = len(tracer.spans)
        tracer.spans.append(self.record)
        self.frame = [0.0]
        tracer._stack.append(self.frame)
        self.start = perf_counter()
        return self.record

    def __exit__(self, *exc_info):
        end = perf_counter()
        tracer = self.tracer
        tracer._stack.pop()
        tracer._stack[-1][0] += end - self.start
        tracer._current = self.parent
        self.record["start"] = self.start
        self.record["end"] = end
        self.record["self"] = end - self.start - self.frame[0]
        return False
