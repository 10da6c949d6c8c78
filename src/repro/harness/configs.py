"""Shared cluster configurations and bench-scale datasets.

The paper's testbed is 10 machines x 28 threads.  ``paper_cluster``
simulates that shape; ``single_machine`` matches the per-machine drill-
down experiments.  Dataset constructors here pin the scales used by the
benchmark harness so every figure runs on the same stand-ins.
"""

from __future__ import annotations

from functools import lru_cache

from ..graph import (
    Graph,
    assign_labels,
    community_graph,
    erdos_renyi_graph,
    mico_like,
    orkut_like,
    patents_like,
    powerlaw_graph,
    wikidata_like,
    youtube_like,
)
from ..runtime.cluster import ClusterConfig

__all__ = [
    "PAPER_KERNEL",
    "paper_cluster",
    "single_machine",
    "bench_mico",
    "bench_youtube",
    "bench_patents",
    "bench_wikidata",
    "bench_orkut",
    "bench_fsm_patents",
    "bench_fsm_mico",
    "bench_cost_cliques",
    "bench_memory_cliques",
]


#: The pattern kernel the paper-figure runners pin (Figs 15, 18, 19):
#: degree-greedy matching order and the neighbourhood-scan candidate
#: test, as the paper's system matches — so EXPERIMENTS.md's numbers do
#: not move with :data:`repro.core.enumerator.DEFAULT_KERNEL`.
PAPER_KERNEL = "legacy"


def paper_cluster(
    workers: int = 10,
    cores_per_worker: int = 28,
    **overrides,
) -> ClusterConfig:
    """The paper's 10-machine, 28-thread-per-machine cluster."""
    return ClusterConfig(
        workers=workers, cores_per_worker=cores_per_worker, **overrides
    )


def single_machine(cores: int = 28, **overrides) -> ClusterConfig:
    """One worker with ``cores`` execution threads."""
    return ClusterConfig(workers=1, cores_per_worker=cores, **overrides)


@lru_cache(maxsize=None)
def bench_mico(labeled: bool = False, scale: float = 1.0) -> Graph:
    """Mico stand-in at bench scale."""
    return mico_like(scale=scale, labeled=labeled)


@lru_cache(maxsize=None)
def bench_youtube(labeled: bool = False, scale: float = 0.4) -> Graph:
    """Youtube stand-in at bench scale (the 'large' workload)."""
    return youtube_like(scale=scale, labeled=labeled)


@lru_cache(maxsize=None)
def bench_patents(labeled: bool = True, scale: float = 0.6) -> Graph:
    """Patents stand-in at bench scale."""
    return patents_like(scale=scale, labeled=labeled)


@lru_cache(maxsize=None)
def bench_wikidata(scale: float = 1.0) -> Graph:
    """Wikidata stand-in at bench scale (keyword search workloads)."""
    return wikidata_like(scale=scale)


@lru_cache(maxsize=None)
def bench_orkut(scale: float = 0.8) -> Graph:
    """Orkut stand-in at bench scale (triangle counting)."""
    return orkut_like(scale=scale)


@lru_cache(maxsize=None)
def bench_fsm_patents(n: int = 280) -> Graph:
    """Patents-ML stand-in for FSM benches.

    FSM on the raw Patents stand-in starves: 37 labels over a few hundred
    vertices leave almost no frequent pattern at any useful threshold.
    This variant compresses the label alphabet so the pattern lattice is
    populated at stand-in scale, preserving the workload's role.
    """
    return powerlaw_graph(
        n=n, attach=3, n_labels=5, seed=23, name="patents-fsm"
    )


@lru_cache(maxsize=None)
def bench_fsm_mico(n: int = 140) -> Graph:
    """Mico-ML stand-in for FSM benches (compressed label alphabet)."""
    return powerlaw_graph(n=n, attach=4, n_labels=4, seed=29, name="mico-fsm")


@lru_cache(maxsize=None)
def bench_cost_cliques() -> Graph:
    """Dense graph for the clique COST rows (Figures 18/20b).

    COST is only meaningful when the single-thread baseline runs well past
    Fractal's fixed setup overhead; sparse stand-ins make DAG-based clique
    counters finish in fractions of a simulated second.  This denser
    Erdős–Rényi instance gives the baselines seconds of real clique work.
    """
    graph = erdos_renyi_graph(300, 9000, seed=31, name="dense-er")
    return graph


@lru_cache(maxsize=None)
def bench_memory_cliques() -> Graph:
    """Clique-rich multi-labeled graph for Table 2's clique rows.

    Table 2's Arabesque column grows with depth because the real Youtube
    has k-clique populations that *grow* with k.  Sparse stand-ins peak at
    the edge level, so this planted-community graph (dense 0.85 blocks)
    plays the Youtube-ML role: clique counts increase with k and the
    80-label alphabet multiplies Arabesque's per-pattern ODAGs.
    """
    graph = community_graph(
        communities=4, size=22, p_in=0.85, p_out=0.01, seed=37,
        name="youtube-mem",
    )
    return assign_labels(graph, n_labels=80, seed=38)
