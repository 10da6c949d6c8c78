"""Execution backend seam: one interface, simulated or real parallelism.

Every engine the driver can run a fractal step on sits behind
:class:`ExecutionBackend`:

* :class:`SequentialBackend` — the paper's Algorithm 1 on one core
  (``engine="sequential"``), byte-identical to the pre-seam driver path;
* :class:`SimulatorBackend` — the deterministic event-driven cluster
  (:class:`~repro.runtime.cluster.ClusterConfig`), unchanged semantics:
  same metrics, same per-core clocks, same results;
* ``MultiprocessBackend`` (:mod:`repro.runtime.mp_backend`) — real OS
  worker processes over shared-memory CSR buffers, selected with a
  :class:`~repro.runtime.mp_backend.MultiprocessConfig`.

The driver resolves the engine spec once per execution
(:func:`resolve_backend`), runs every step through the backend, and
calls :meth:`ExecutionBackend.close` when done — the hook multiprocess
uses to unlink its shared-memory segment.  A backend returns one
:class:`StepOutcome` per step: the filled aggregation storages, the
step's metrics, its priced work, and an optional ``backend_info`` dict
surfaced in :class:`~repro.runtime.driver.StepReport` for reporting
(real wall time, shared-segment size).

A backend decides *where* a step runs, never *what* it runs as: every
``run_step`` builds a probe strategy, asks
:func:`~repro.runtime.stepplan.plan_step` for the step's plan, and
either wraps the count :func:`~repro.runtime.stepplan.count_step`
produced (:func:`shortcut_outcome`) or hands the step to its own
executor — :func:`run_in_process` here and on every in-driver rung of
the multiprocess backend (which lists a ``"list"`` step with
``PatternInducedStrategy.list_matches`` and enumerates the rest),
``ClusterEngine.run_step`` on the simulator.
"""

from __future__ import annotations

import multiprocessing
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..core.aggregation import AggregationStorage
from ..core.computation import Computation
from ..core.primitives import Primitive
from ..core.subgraph import SubgraphResult
from ..graph.graph import Graph
from ..pattern.pattern import PatternInterner
from .cluster import ClusterConfig, ClusterEngine, ClusterStepResult
from .costmodel import DEFAULT_COST_MODEL, CostModel
from .engine import run_step_sequential
from .metrics import Metrics
from .stepplan import StepPlan, count_step, plan_step

__all__ = [
    "ExecutionBackend",
    "SequentialBackend",
    "SimulatorBackend",
    "StepOutcome",
    "resolve_backend",
    "run_in_process",
    "shortcut_outcome",
]


@dataclass
class StepOutcome:
    """What one backend run of one fractal step produced."""

    storages: Dict[int, AggregationStorage]
    metrics: Metrics
    work_units: float
    simulated_seconds: float
    cluster: Optional[ClusterStepResult] = None
    kernel_info: Optional[Dict[str, object]] = None
    # Backend-specific observability (backend name, real wall time,
    # shared-memory footprint, ...).
    backend_info: Optional[Dict[str, object]] = None
    # Frozen results of the final step, for backends whose sinks run in
    # another process (the driver's sink closure cannot).  ``None`` means
    # the backend invoked the driver-provided sink directly.
    subgraphs: Optional[List[SubgraphResult]] = None


class ExecutionBackend:
    """Interface every step executor implements."""

    name: str = "abstract"

    def run_step(
        self,
        graph: Graph,
        strategy_factory: Callable,
        interner: PatternInterner,
        primitives: Sequence[Primitive],
        aggregation_views: Dict[int, object],
        cached_uids,
        sink: Optional[Callable] = None,
        root_words: Optional[List[int]] = None,
        collect: Optional[str] = None,
    ) -> StepOutcome:
        """Execute one fractal step.

        ``sink``/``collect`` describe the final step's output mode:
        ``collect`` is ``"subgraphs"``, ``"count"`` or ``None`` exactly as
        the driver received it (``None`` on non-final steps).  In-process
        backends call ``sink`` with each live result; cross-process
        backends honor ``collect`` and return frozen results through
        :attr:`StepOutcome.subgraphs` instead.
        """
        raise NotImplementedError

    def setup_seconds(self) -> float:
        """Simulated framework setup overhead (added once per execution)."""
        return 0.0

    def close(self) -> None:
        """Release backend resources (processes, shared memory)."""


#: ``backend_info`` flag of a step run past the enumeration, by plan mode.
SHORTCUT_FLAGS = {"decomposed": "decomposed", "orbit": "orbit_counted", "list": "listed"}


def shortcut_outcome(
    step: StepPlan,
    metrics: Metrics,
    work_units: float,
    cost_model: CostModel,
    backend_info: Dict[str, object],
    where: str = "",
    subgraphs: Optional[List[SubgraphResult]] = None,
) -> StepOutcome:
    """Wrap a counted (``metrics.results_emitted``) or listed
    (``subgraphs``) step; ``backend_info`` gains the mode's flag,
    suffixed with ``where`` (e.g. ``"_in_driver"``), so reports stay
    honest about how and where the step ran."""
    backend_info[SHORTCUT_FLAGS[step.mode] + where] = True
    return StepOutcome(
        storages={},
        metrics=metrics,
        work_units=work_units,
        simulated_seconds=cost_model.seconds(work_units),
        kernel_info=step.kernel_info,
        backend_info=backend_info,
        subgraphs=subgraphs,
    )


def run_in_process(
    strategy,
    primitives,
    aggregation_views,
    cached_uids,
    sink,
    root_words,
    cost_model: CostModel,
    step: StepPlan,
    backend_info: Dict[str, object],
    where: str = "",
) -> StepOutcome:
    """Run a listing or an enumeration step on the calling thread.

    ``strategy`` is the backend's probe: it executes the step
    and its metrics bundle becomes the step's, so nothing is planned or
    metered twice.  A ``"list"`` step is its ``list_matches``, results
    in :attr:`StepOutcome.subgraphs`; anything else is Algorithm 1 on
    one core, the driver-provided ``sink`` running in this process.
    """
    metrics = strategy.metrics
    if step.mode == "list":
        subgraphs = strategy.list_matches(root_words)
        return shortcut_outcome(
            step, metrics, cost_model.step_units(metrics), cost_model,
            backend_info, where, subgraphs,
        )
    computation = Computation(
        strategy.graph, metrics, strategy.interner, aggregation_views
    )
    storages = run_step_sequential(
        strategy,
        primitives,
        computation,
        cached_uids,
        sink=sink,
        root_words=root_words,
    )
    units = cost_model.step_units(metrics)
    return StepOutcome(
        storages=storages,
        metrics=metrics,
        work_units=units,
        simulated_seconds=cost_model.seconds(units),
        kernel_info=step.kernel_info,
        backend_info=backend_info,
    )


class SequentialBackend(ExecutionBackend):
    """Algorithm 1 on one core — the relocated driver sequential path.

    ``degraded_reason`` says why this backend stands in for a
    :class:`~repro.runtime.mp_backend.MultiprocessConfig` (a platform
    without ``fork``): every step then reports ``degraded_to`` and that
    ``degraded_reason``.
    """

    name = "sequential"

    def __init__(
        self,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        degraded_reason: Optional[str] = None,
    ):
        self.cost_model = cost_model
        self._degraded_reason = degraded_reason

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
        cost = self.cost_model
        metrics = Metrics()
        # The one executing strategy doubles as the planner's probe.
        strategy = strategy_factory(graph, metrics, interner)
        step = plan_step(strategy, graph, primitives, collect, root_words, cost)
        step, units = count_step(step, graph, strategy, metrics, cost)
        info: Dict[str, object] = {"backend": self.name}
        if self._degraded_reason is not None:
            info["degraded_to"] = self.name
            info["degraded_reason"] = self._degraded_reason
        if units is not None:
            return shortcut_outcome(step, metrics, units, cost, info)
        return run_in_process(
            strategy,
            primitives,
            aggregation_views,
            cached_uids,
            sink,
            root_words,
            cost,
            step,
            info,
        )


class SimulatorBackend(ExecutionBackend):
    """The deterministic simulated cluster behind the backend seam."""

    name = "simulator"

    def __init__(self, config: ClusterConfig):
        self.config = config
        self._engine = ClusterEngine(config)

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

        def core_strategy(core_metrics: Metrics):
            return strategy_factory(graph, core_metrics, interner)

        needs_enumerators = None
        if config.fault_plan is not None:
            needs_enumerators = (
                "fault injection configured (recovery needs enumerators)"
            )
        probe = core_strategy(Metrics())
        step = plan_step(
            probe, graph, primitives, collect, root_words, cost,
            needs_enumerators,
            enumerates_listings=(
                "simulated cluster enumerates listings on its per-core clocks"
            ),
        )
        # Counting steps split their roots across the configured cores —
        # the same unit the engine distributes — one strategy per core.
        metrics = Metrics()
        step, units = count_step(
            step,
            graph,
            probe,
            metrics,
            cost,
            shares=config.total_cores,
            share_strategy=core_strategy,
        )
        info: Dict[str, object] = {
            "backend": self.name,
            "workers": config.workers,
            "cores_per_worker": config.cores_per_worker,
        }
        if units is not None:
            return shortcut_outcome(step, metrics, units, cost, info)
        result = self._engine.run_step(
            graph,
            strategy_factory,
            interner,
            primitives,
            aggregation_views,
            cached_uids,
            sink=sink,
            root_words=root_words,
        )
        result.metrics.merge(metrics)
        return StepOutcome(
            storages=result.storages,
            metrics=result.metrics,
            work_units=result.makespan_units,
            simulated_seconds=result.makespan_seconds,
            cluster=result,
            kernel_info=step.kernel_info,
            backend_info=info,
        )

    def setup_seconds(self) -> float:
        if self.config.include_setup_overhead:
            return self.config.cost_model.setup_overhead_s
        return 0.0


def resolve_backend(
    engine: Union[str, ClusterConfig, object],
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> ExecutionBackend:
    """Build the backend an engine spec names.

    ``"sequential"`` -> :class:`SequentialBackend`; a
    :class:`ClusterConfig` -> :class:`SimulatorBackend`; a
    :class:`~repro.runtime.mp_backend.MultiprocessConfig` ->
    ``MultiprocessBackend``.  Anything else raises ``ValueError``.

    On platforms without the ``fork`` start method a
    ``MultiprocessConfig`` cannot run real workers; with
    ``degrade="auto"`` (the default) the step degrades to a
    :class:`SequentialBackend` that reports ``degraded_to`` under a
    ``RuntimeWarning`` naming the platform, and that warning's message as
    ``degraded_reason``; with ``degrade="never"`` the same message
    raises.
    """
    from .mp_backend import (
        MultiprocessBackend,
        MultiprocessConfig,
        fork_unavailable_message,
    )

    if isinstance(engine, ClusterConfig):
        return SimulatorBackend(engine)
    if isinstance(engine, MultiprocessConfig):
        if "fork" not in multiprocessing.get_all_start_methods():
            message = fork_unavailable_message()
            if engine.degrade == "never":
                raise RuntimeError(message)
            warnings.warn(
                "degrading to sequential execution: " + message,
                RuntimeWarning,
                stacklevel=2,
            )
            return SequentialBackend(engine.cost_model, degraded_reason=message)
        return MultiprocessBackend(engine)
    if engine == "sequential":
        return SequentialBackend(cost_model)
    raise ValueError(f"unknown engine {engine!r}")
