"""FractalContext and FractalGraph: the API entry points (paper Figure 2).

The :class:`FractalContext` configures execution (engine, cost model) and
owns the aggregation cache that lets derived fractoids reuse computed
aggregations (Algorithm 2).  A :class:`FractalGraph` wraps one input graph
and creates fractoids — vertex-induced (B1), edge-induced (B2) or
pattern-induced (B3) — plus the graph-reduction operators ``vfilter`` and
``efilter`` (Figure 10).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..graph import io as graph_io
from ..graph.graph import Graph
from ..graph.views import reduce_graph
from ..pattern.pattern import Pattern, PatternInterner
from ..runtime.costmodel import DEFAULT_COST_MODEL, CostModel
from ..runtime.driver import EngineSpec
from .aggregation import AggregationView
from .enumerator import (
    EdgeInducedStrategy,
    PatternInducedStrategy,
    VertexInducedStrategy,
    _check_kernel,
    _check_pattern,
)
from .fractoid import Fractoid

__all__ = ["FractalContext", "FractalGraph"]


class FractalContext:
    """Configures and hosts Fractal executions.

    Args:
        engine: default engine for fractoids created under this context —
            ``"sequential"`` (Algorithm 1 on one core) or a
            :class:`~repro.runtime.cluster.ClusterConfig` for the simulated
            distributed runtime.
        cost_model: calibration constants for simulated time.
    """

    def __init__(
        self,
        engine: EngineSpec = "sequential",
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ):
        self.engine = engine
        self.cost_model = cost_model
        self.interner = PatternInterner()
        self.aggregation_cache: Dict[int, AggregationView] = {}
        # The most recent ExecutionReport of any fractoid run under this
        # context; lets callers that use value-returning app helpers
        # (motifs(), fsm(), ...) still inspect metrics and recovery data.
        self.last_report = None

    # ------------------------------------------------------------------
    # Graph acquisition (paper operator I1)
    # ------------------------------------------------------------------
    def from_graph(self, graph: Graph) -> "FractalGraph":
        """Wrap an in-memory graph."""
        return FractalGraph(graph, self)

    def adjacency_list(self, path: str) -> "FractalGraph":
        """Load a graph in Arabesque/Fractal adjacency-list format."""
        return FractalGraph(graph_io.load_adjacency_list(path), self)

    def edge_list(self, path: str) -> "FractalGraph":
        """Load a graph in labeled edge-list format."""
        return FractalGraph(graph_io.load_edge_list(path), self)

    def clear_cache(self) -> None:
        """Drop cached aggregation results (forces full recomputation)."""
        self.aggregation_cache.clear()

    def stop(self) -> None:
        """Release resources (interface parity with the paper's context)."""
        self.clear_cache()


class FractalGraph:
    """A graph bound to a context, from which fractoids are created."""

    def __init__(self, graph: Graph, context: FractalContext):
        self.graph = graph
        self.context = context

    # ------------------------------------------------------------------
    # Fractoid initialization (paper operators B1-B3)
    # ------------------------------------------------------------------
    def vfractoid(self, custom_strategy: Optional[Callable] = None) -> Fractoid:
        """B1: vertex-induced fractoid.

        ``custom_strategy`` is the Appendix B extension hook: a factory
        ``(graph, metrics, interner) -> ExtensionStrategy`` replacing the
        default enumerator (e.g. the KClist clique enumerator).
        """
        factory = custom_strategy if custom_strategy is not None else VertexInducedStrategy
        return Fractoid(self, factory, (), mode="vertex")

    def efractoid(self, custom_strategy: Optional[Callable] = None) -> Fractoid:
        """B2: edge-induced fractoid.

        ``custom_strategy`` is the Appendix B extension hook, as on
        :meth:`vfractoid`.
        """
        factory = custom_strategy if custom_strategy is not None else EdgeInducedStrategy
        return Fractoid(self, factory, (), mode="edge")

    def pfractoid(self, pattern: Pattern, kernel: Optional[str] = None) -> Fractoid:
        """B3: pattern-induced fractoid guided by ``pattern``.

        ``kernel`` names the candidate kernel (``"legacy"``, ``"indexed"``
        or ``"decomposed"``); ``None`` means
        :data:`~repro.core.enumerator.DEFAULT_KERNEL`.  This is the one
        place it is chosen: the matching order, restriction set and
        decomposition are what the system derives from it, the pattern
        and the graph (docs/internals.md "Choosing a kernel").  A bad
        kernel name or an empty or disconnected pattern raises here, not
        inside ``execute()``.

        Every kernel returns the same full-pattern matches.  A *partial*
        ``expand(k < |V(pattern)|)`` returns the ``k``-prefix of the
        matching order, so prefix results are order-defined: they differ
        between ``"legacy"`` and the cost-ordered kernels.
        """
        kernel = _check_kernel(kernel)
        _check_pattern(pattern)

        def factory(graph, metrics, interner):
            return PatternInducedStrategy(
                graph, metrics, interner, pattern, kernel=kernel
            )

        return Fractoid(self, factory, (), mode="pattern")

    # ------------------------------------------------------------------
    # Graph reduction (paper operators R1-R2, §4.3)
    # ------------------------------------------------------------------
    def vfilter(self, fn: Callable[[int, Graph], bool]) -> "FractalGraph":
        """R1: materialize the view keeping vertices where ``fn`` holds."""
        reduced = reduce_graph(self.graph, vfilter=fn)
        return FractalGraph(reduced.graph, self.context)

    def efilter(self, fn: Callable[[int, Graph], bool]) -> "FractalGraph":
        """R2: materialize the view keeping edges where ``fn`` holds."""
        reduced = reduce_graph(self.graph, efilter=fn)
        return FractalGraph(reduced.graph, self.context)

    def __repr__(self) -> str:
        return f"FractalGraph({self.graph!r})"
