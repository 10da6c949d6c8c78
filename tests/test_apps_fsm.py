"""Tests for the FSM application (minimum image-based support)."""

import functools
import multiprocessing
from multiprocessing import shared_memory

import pytest

from repro import ClusterConfig, FractalContext, MultiprocessConfig, Pattern
from repro.apps import fsm
from repro.baselines import grami_fsm
from repro.graph import erdos_renyi_graph, path_graph, powerlaw_graph
from repro.runtime import mp_backend

from conftest import (
    brute_true_mni,
    iter_connected_edge_sets,
    pattern_of_edge_set,
)


def _ground_truth(graph, min_support, max_edges):
    truth = {}
    for k in range(1, max_edges + 1):
        for combo in iter_connected_edge_sets(graph, k):
            pattern = pattern_of_edge_set(graph, combo)
            code = pattern.canonical_code()
            if code not in truth:
                truth[code] = brute_true_mni(graph, pattern)
    return {code for code, support in truth.items() if support >= min_support}


class TestFSMCorrectness:
    @pytest.mark.parametrize("seed", [9, 21, 33])
    def test_matches_ground_truth(self, seed):
        graph = erdos_renyi_graph(30, 60, n_labels=2, seed=seed)
        result = fsm(
            FractalContext().from_graph(graph), min_support=4, max_edges=3
        )
        mined = {p.canonical_code() for p in result.frequent}
        assert mined == _ground_truth(graph, 4, 3)

    def test_supports_are_exact(self):
        graph = erdos_renyi_graph(30, 60, n_labels=2, seed=9)
        result = fsm(
            FractalContext().from_graph(graph), min_support=4, max_edges=2
        )
        for pattern in result.frequent:
            assert result.support_of(pattern) == brute_true_mni(graph, pattern)

    def test_anti_monotonicity_of_result(self):
        graph = erdos_renyi_graph(30, 70, n_labels=2, seed=12)
        result = fsm(
            FractalContext().from_graph(graph), min_support=4, max_edges=3
        )
        supports = {
            p.canonical_code(): result.support_of(p) for p in result.frequent
        }
        # Every frequent 2+-edge pattern has all its one-smaller connected
        # sub-patterns frequent with support at least its own.
        for pattern in result.frequent:
            if pattern.n_edges < 2:
                continue
            for skip in range(pattern.n_edges):
                sub_edges = [
                    e for i, e in enumerate(pattern.edges) if i != skip
                ]
                touched = sorted({v for a, b, _ in sub_edges for v in (a, b)})
                remap = {v: i for i, v in enumerate(touched)}
                sub = Pattern(
                    [pattern.vertex_labels[v] for v in touched],
                    [(remap[a], remap[b], l) for a, b, l in sub_edges],
                )
                if not sub.is_connected():
                    continue
                assert sub.canonical_code() in supports
                assert supports[sub.canonical_code()] >= supports[
                    pattern.canonical_code()
                ]

    def test_higher_support_fewer_patterns(self):
        graph = erdos_renyi_graph(30, 70, n_labels=2, seed=13)
        low = fsm(FractalContext().from_graph(graph), min_support=3, max_edges=2)
        high = fsm(FractalContext().from_graph(graph), min_support=8, max_edges=2)
        low_set = {p.canonical_code() for p in low.frequent}
        high_set = {p.canonical_code() for p in high.frequent}
        assert high_set <= low_set

    def test_nothing_frequent(self):
        graph = path_graph(4, labels=[1, 2, 3, 4])
        result = fsm(
            FractalContext().from_graph(graph), min_support=2, max_edges=3
        )
        assert not result.frequent
        assert result.rounds == 1

    def test_min_support_validation(self):
        graph = path_graph(3)
        with pytest.raises(ValueError):
            fsm(FractalContext().from_graph(graph), min_support=0)


def _supports(result):
    return {p.canonical_code(): s.support for p, s in result.frequent.items()}


def _extension_tests(result):
    return sum(r.metrics.extension_tests for r in result.reports)


class TestFSMOptions:
    def test_graph_reduction_preserves_results(self):
        graph = erdos_renyi_graph(36, 80, n_labels=4, seed=5)
        plain = fsm(
            FractalContext().from_graph(graph),
            min_support=6,
            max_edges=4,
            reduce_input=False,
        )
        reduced = fsm(
            FractalContext().from_graph(graph), min_support=6, max_edges=4
        )
        assert _supports(plain) == _supports(reduced)
        assert plain.rounds == reduced.rounds == 4
        # "Off" reads differently from "nothing to drop".
        assert plain.reductions is None
        # Infrequent edges go after the bootstrap (every vertex stays);
        # then each round's MNI domains shrink the view the last
        # reduction left.
        first, second, third = reduced.reductions
        assert [r.round for r in reduced.reductions] == [1, 2, 3]
        assert first.vertices == (36, 36) and first.edges[1] < first.edges[0] == 80
        assert second.vertices[1] < second.vertices[0] == 36
        assert third.vertices[1] < third.vertices[0] == second.vertices[1]
        assert second.edges[0] == first.edges[1]
        assert third.edges[1] < third.edges[0] == second.edges[1] < second.edges[0]
        assert _extension_tests(reduced) < _extension_tests(plain)

    def test_capped_mode_same_set(self):
        graph = erdos_renyi_graph(30, 60, n_labels=2, seed=9)
        exact = fsm(
            FractalContext().from_graph(graph), min_support=4, max_edges=3
        )
        capped = fsm(
            FractalContext().from_graph(graph),
            min_support=4,
            max_edges=3,
            exact=False,
        )
        assert {p.canonical_code() for p in exact.frequent} == {
            p.canonical_code() for p in capped.frequent
        }

    def test_cluster_engine_same_set(self):
        from repro import ClusterConfig

        graph = erdos_renyi_graph(30, 60, n_labels=2, seed=9)
        seq = fsm(FractalContext().from_graph(graph), min_support=4, max_edges=3)
        par = fsm(
            FractalContext(
                engine=ClusterConfig(workers=2, cores_per_worker=2)
            ).from_graph(graph),
            min_support=4,
            max_edges=3,
        )
        assert {p.canonical_code() for p in seq.frequent} == {
            p.canonical_code() for p in par.frequent
        }

    def test_result_helpers(self):
        graph = erdos_renyi_graph(30, 60, n_labels=2, seed=9)
        result = fsm(
            FractalContext().from_graph(graph), min_support=4, max_edges=2
        )
        ordered = result.patterns
        assert ordered == sorted(
            ordered, key=lambda p: (p.n_edges, p.canonical_code())
        )
        assert result.total_simulated_seconds() > 0
        assert result.rounds >= 1


# ----------------------------------------------------------------------
# Graph reduction is transparent: default fsm() against the unreduced arm
# and an independent pattern-growth miner, on every engine.
# ----------------------------------------------------------------------
_GRAPHS = {
    "er5": lambda: erdos_renyi_graph(36, 80, n_labels=4, seed=5),
    "er8": lambda: erdos_renyi_graph(36, 80, n_labels=4, seed=8),
    "pl8": lambda: powerlaw_graph(n=40, attach=2, n_labels=3, seed=8),
    "pl17": lambda: powerlaw_graph(n=40, attach=2, n_labels=3, seed=17),
}

_ENGINES = {
    "sequential": "sequential",
    "cluster": ClusterConfig(2, 2),
    "multiprocess": MultiprocessConfig(num_procs=2),
}


@functools.lru_cache(maxsize=None)
def _grami_frequent(graph_name, min_support, max_edges):
    graph = _GRAPHS[graph_name]()
    return {
        p.canonical_code()
        for p in grami_fsm(graph, min_support, max_edges).result
    }


@pytest.fixture
def shared_segments(monkeypatch):
    """Names of the shared-memory graph segments the mp backend creates."""
    names = []
    real = mp_backend.SharedGraphBuffers

    def recording(graph):
        shared = real(graph)
        names.append(shared.name)
        return shared

    monkeypatch.setattr(mp_backend, "SharedGraphBuffers", recording)
    return names


@pytest.mark.parametrize("engine_name", sorted(_ENGINES))
@pytest.mark.parametrize("max_edges", [2, 3, 4])
@pytest.mark.parametrize("min_support", [6, 8])
@pytest.mark.parametrize("graph_name", sorted(_GRAPHS))
def test_reduction_is_transparent(
    graph_name, min_support, max_edges, engine_name, shared_segments
):
    if (
        engine_name == "multiprocess"
        and "fork" not in multiprocessing.get_all_start_methods()
    ):
        pytest.skip("multiprocess backend requires fork start method")
    graph = _GRAPHS[graph_name]()

    def run(**options):
        context = FractalContext(engine=_ENGINES[engine_name])
        return fsm(context.from_graph(graph), min_support, max_edges, **options)

    reduced = run()
    plain = run(reduce_input=False)
    capped = run(exact=False)

    # Same patterns, every support value, same number of rounds.
    assert _supports(reduced) == _supports(plain)
    assert reduced.rounds == plain.rounds == capped.rounds
    assert set(_supports(reduced)) == _grami_frequent(
        graph_name, min_support, max_edges
    )
    assert set(_supports(capped)) == set(_supports(plain))

    # One reduction between any two rounds; none when asked not to; capped
    # domains are not the images, so capped mode only ever drops edges.
    assert plain.reductions is None
    assert [r.round for r in reduced.reductions] == list(range(1, reduced.rounds))
    assert [r.round for r in capped.reductions] == [1][: capped.rounds - 1]
    assert all(r.vertices[0] == r.vertices[1] for r in capped.reductions)
    assert _extension_tests(reduced) <= _extension_tests(capped)
    assert _extension_tests(capped) <= _extension_tests(plain)

    if engine_name == "multiprocess":
        # Every reduced view is a new segment; none outlives the call.
        assert shared_segments
        for name in shared_segments:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


_SIMULATED_FSM = """
import json
from repro import ClusterConfig, FractalContext
from repro.apps import fsm
from repro.graph.datasets import patents_like

engine = ClusterConfig(workers=4, cores_per_worker=7)
result = fsm(FractalContext(engine=engine).from_graph(patents_like(0.6)), 4, 3)
print(json.dumps({
    "frequent": sorted(
        (p.canonical_code(), s.support, s.domain_sizes())
        for p, s in result.frequent.items()
    ),
    "rounds": [
        (report.simulated_seconds, report.metrics.snapshot())
        for report in result.reports
    ],
}))
"""


class TestHashSeedIndependence:
    def test_simulated_fsm_ignores_pythonhashseed(self):
        """The 4x7 simulated FSM mines, clocks and meters the same under
        two string-hash seeds: nothing it reports (the shuffle's
        partition count, the order children are pushed and popped in)
        may follow ``hash()`` of a str."""
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, (src, os.environ.get("PYTHONPATH")))
            )
            proc = subprocess.run(
                [sys.executable, "-c", _SIMULATED_FSM],
                capture_output=True,
                text=True,
                env=env,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(json.loads(proc.stdout))
        first, second = outputs
        assert len(first["frequent"]) > 0 and len(first["rounds"]) == 3
        assert first["frequent"] == second["frequent"]
        assert first["rounds"] == second["rounds"]
