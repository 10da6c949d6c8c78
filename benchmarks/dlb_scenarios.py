"""DLB-style load scenarios for the cluster simulator.

Ports the load shapes of the cluster-dlb-benchmarks suite (named in
ROADMAP) as parameterized, deterministic cluster/straggler/latency
configurations for the event-driven simulator.  Every scenario is a
:class:`Scenario`: a graph recipe, a cluster shape, a fault plan and an
optional heterogeneous-link map, from which `config(policy)` builds the
:class:`ClusterConfig` for any steal policy.  The five shapes:

``bestdegree``
    Moderate persistent skew where the optimal *fixed* steal degree is
    some mid-sized chunk: a degree the adaptive controller has to find.
``offloadlatency``
    Heterogeneous interconnect: some worker pairs pay a large extra
    round-trip latency.  Work sits on several workers, so a thief has a
    choice of victims; latency-aware selection avoids the slow links,
    round-robin does not.
``syntheticslow``
    Heavy persistent skew (a few 12x stragglers hold most of the work):
    steal round-trips dominate, so large chunks win big over ``"one"``.
``scatter``
    The slow cores *move*: straggler windows rotate across workers over
    time, so no single placement assumption (or static degree) stays
    right for the whole run.
``convergence``
    Skewed start, uniform tail: early on a straggler feeds the cluster
    (big chunks pay off), then the imbalance disappears and oversized
    chunks would just bounce fragments between idle cores.

The two Figure-16 benches in ``bench_fig16_worksteal.py`` share
:func:`straggler_plan` and :func:`clique_fractoid` from here.

All quantities are simulated and deterministic: a scenario run twice
produces byte-identical clocks, metrics and results.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro import ClusterConfig, FractalContext  # noqa: E402
from repro.graph import powerlaw_graph  # noqa: E402
from repro.runtime.faults import FaultPlan, StragglerWindow  # noqa: E402

__all__ = [
    "Scenario",
    "straggler_plan",
    "clique_fractoid",
    "bestdegree",
    "offloadlatency",
    "syntheticslow",
    "scatter",
    "convergence",
    "all_scenarios",
    "SCENARIO_NAMES",
]

SCENARIO_NAMES = (
    "bestdegree",
    "offloadlatency",
    "syntheticslow",
    "scatter",
    "convergence",
)

MODES = ("smoke", "quick", "full")


def straggler_plan(
    n_stragglers: int,
    factor: float,
    start: float = 0.0,
    end: float = 1e6,
    seed: int = 1,
) -> FaultPlan:
    """The classic persistent-skew plan: cores 0..n-1 slowed by ``factor``."""
    return FaultPlan(
        stragglers=tuple(
            StragglerWindow(core, start, end, factor)
            for core in range(n_stragglers)
        ),
        seed=seed,
    )


def clique_fractoid(graph, config, k=3):
    """The benches' shared workload: k-clique mining on ``graph``."""
    fg = FractalContext(engine=config).from_graph(graph)
    return (
        fg.vfractoid()
        .expand(1)
        .filter(lambda s, c: s.edges_added_last() == s.n_vertices - 1)
        .explore(k)
    )


@dataclass(frozen=True)
class Scenario:
    """One DLB load shape, sized for a benchmark mode."""

    name: str
    description: str
    graph_vertices: int
    graph_attach: int
    graph_seed: int
    workers: int
    cores_per_worker: int
    k: int = 3
    ws_internal: bool = False
    ws_external: bool = True
    fault_plan: Optional[FaultPlan] = None
    link_latency: Optional[Tuple[Tuple[int, int, float], ...]] = None

    def graph(self):
        return powerlaw_graph(
            self.graph_vertices, attach=self.graph_attach, seed=self.graph_seed
        )

    def config(self, policy: str) -> ClusterConfig:
        return ClusterConfig(
            workers=self.workers,
            cores_per_worker=self.cores_per_worker,
            ws_internal=self.ws_internal,
            ws_external=self.ws_external,
            steal_policy=policy,
            fault_plan=self.fault_plan,
            link_latency=self.link_latency,
        )

    def fractoid(self, policy: str, graph=None):
        return clique_fractoid(
            self.graph() if graph is None else graph,
            self.config(policy),
            k=self.k,
        )


def _size(mode: str, smoke, quick, full):
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return {"smoke": smoke, "quick": quick, "full": full}[mode]


def bestdegree(mode: str = "quick") -> Scenario:
    """Moderate skew: a handful of 6x stragglers on a 4x8 cluster."""
    vertices = _size(mode, 120, 250, 400)
    workers, cores = _size(mode, (2, 4), (4, 8), (4, 8))
    return Scenario(
        name="bestdegree",
        description="moderate persistent skew; a mid-sized fixed degree is optimal",
        graph_vertices=vertices,
        graph_attach=6,
        graph_seed=3,
        workers=workers,
        cores_per_worker=cores,
        fault_plan=straggler_plan(_size(mode, 2, 4, 6), 6.0),
    )


def offloadlatency(mode: str = "quick") -> Scenario:
    """Heterogeneous links: half the worker pairs pay a big extra latency.

    Stragglers sit on workers 0 *and* 1 so every thief has a choice of
    victims; the expensive links connect the idle workers to worker 1,
    so round-robin victim selection keeps paying them while
    latency-aware selection steals from worker 0 instead.
    """
    vertices = _size(mode, 120, 250, 400)
    cores = _size(mode, 4, 6, 8)
    slow = _size(mode, 4000.0, 8000.0, 8000.0)
    factor = 8.0
    return Scenario(
        name="offloadlatency",
        description="expensive links to one loaded worker; avoidable skew",
        graph_vertices=vertices,
        graph_attach=6,
        graph_seed=7,
        workers=4,
        cores_per_worker=cores,
        fault_plan=FaultPlan(
            stragglers=(
                StragglerWindow(0, 0.0, 1e9, factor),
                StragglerWindow(cores, 0.0, 1e9, factor),
            ),
            seed=1,
        ),
        link_latency=((2, 1, slow), (3, 1, slow)),
    )


def syntheticslow(mode: str = "quick") -> Scenario:
    """Heavy skew: 8x stragglers, the shape where big chunks win."""
    vertices = _size(mode, 120, 250, 400)
    workers, cores = _size(mode, (2, 4), (4, 4), (4, 8))
    return Scenario(
        name="syntheticslow",
        description="heavy persistent skew; large chunks amortize round-trips",
        graph_vertices=vertices,
        graph_attach=6,
        graph_seed=3,
        workers=workers,
        cores_per_worker=cores,
        fault_plan=straggler_plan(_size(mode, 3, 6, 12), 8.0),
    )


def scatter(mode: str = "quick") -> Scenario:
    """Rotating skew: the slow worker changes every window."""
    vertices = _size(mode, 120, 250, 400)
    workers, cores = _size(mode, (2, 4), (4, 6), (4, 8))
    # Window lengths are sized against the simulated run length (about
    # 20k-55k units for these graphs at 20us/unit) so the slow spot
    # actually moves several times within one run.
    window = _size(mode, 2_000.0, 2_500.0, 4_000.0)
    rounds = 16
    total = workers * cores
    windows = tuple(
        StragglerWindow(
            (i * cores) % total, i * window, (i + 1) * window, 10.0
        )
        for i in range(rounds)
    )
    return Scenario(
        name="scatter",
        description="straggler windows rotate across workers over time",
        graph_vertices=vertices,
        graph_attach=6,
        graph_seed=5,
        workers=workers,
        cores_per_worker=cores,
        fault_plan=FaultPlan(stragglers=windows, seed=1),
    )


def convergence(mode: str = "quick") -> Scenario:
    """Skewed start, uniform tail: the right degree decays over the run."""
    vertices = _size(mode, 120, 250, 400)
    workers, cores = _size(mode, (2, 4), (4, 6), (4, 8))
    # The skew must end well inside the run (runs are 20k-55k units) so
    # the uniform tail dominates and oversized static degrees pay.
    horizon = _size(mode, 4_000.0, 8_000.0, 15_000.0)
    return Scenario(
        name="convergence",
        description="early 12x skew that disappears; static degrees overshoot",
        graph_vertices=vertices,
        graph_attach=6,
        graph_seed=9,
        workers=workers,
        cores_per_worker=cores,
        fault_plan=straggler_plan(_size(mode, 2, 4, 6), 12.0, end=horizon),
    )


def all_scenarios(mode: str = "quick") -> List[Scenario]:
    """The five DLB shapes, in canonical order."""
    makers = {
        "bestdegree": bestdegree,
        "offloadlatency": offloadlatency,
        "syntheticslow": syntheticslow,
        "scatter": scatter,
        "convergence": convergence,
    }
    return [makers[name](mode) for name in SCENARIO_NAMES]

