"""Steal policies and the event-driven scheduler.

Three invariants guard this subsystem:

1. **Policy transparency** — ``steal_policy="adaptive"`` moves work
   between cores but never changes what is mined: result multisets and
   finalized aggregation views equal ``"one"``'s, under every
   work-stealing configuration and fault schedule.
2. **Exact replay** — every clock and counter of the scheduler is pinned
   by ``tests/data/cluster_fingerprint.json``: per case the full
   ``Metrics.snapshot()``, the simulated seconds, the result count and
   the per-core clocks, steal counts and parking.  The ``"one"`` cases
   were recorded while the seed's polling loop still existed and were
   checked equal to it on everything but the scheduler's own
   bookkeeping (``scheduler_events``, ``scheduler_requeues``,
   ``cores_parked``, ``wake_events``, ``parked_units``,
   ``victim_scan_steps``, ``steal_chunk_extensions``), so they are that
   loop's answers.  The ``fsm-*`` cases (three rounds each: edge words,
   the aggregation filter, ``DomainSupport``, the two-level shuffle)
   were recorded while a core still called ``push``/``pop`` per quantum
   instead of resuming its frame's child visitor.  Floats compare
   exactly: JSON round-trips ``repr``.
3. **Setup metering** — level-0 root enumeration is cluster setup, not
   core 0's work: its probes are metered engine-side, step totals are
   unchanged, and core 0's per-core counters stay clean.

``PYTHONPATH=src python tests/test_steal_policies.py`` rewrites the
fingerprint file from the current code.  That is legitimate only when a
change *means* to move the simulation: a new ``Metrics`` counter, a
re-priced cost-model constant, a change to the stealing protocol.  Say
which in the commit, and check that the diff of the file touches only
what that change explains.
"""

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import ClusterConfig, FractalContext, Pattern
from repro.apps.fsm import fsm
from repro.graph import erdos_renyi_graph, powerlaw_graph
from repro.runtime.cluster import ClusterEngine
from repro.runtime.faults import (
    CoreFailure,
    FaultPlan,
    MessageFaults,
    StragglerWindow,
)

FINGERPRINT = Path(__file__).parent / "data" / "cluster_fingerprint.json"

WS_CONFIGS = [(False, False), (True, False), (False, True), (True, True)]
POLICIES = ["one", "adaptive"]

FAULT_PLAN = FaultPlan(
    core_failures=(CoreFailure(2, 80.0),),
    stragglers=(StragglerWindow(3, 0.0, 500.0, 3.0),),
    message_faults=MessageFaults(drop=0.2, duplicate=0.1, delay=0.2, delay_units=4.0),
    seed=7,
)

# Two plain core kills: default detector, no channel, no stragglers.
KILL_PLAN = FaultPlan(core_failures=(CoreFailure(1, 50.0), CoreFailure(4, 120.0)))


def _config(ws_int, ws_ext, policy="one", fault_plan=None):
    return ClusterConfig(
        workers=2,
        cores_per_worker=3,
        ws_internal=ws_int,
        ws_external=ws_ext,
        steal_policy=policy,
        fault_plan=fault_plan,
    )


def _clique_fractoid(graph, config, k=3):
    fg = FractalContext(engine=config).from_graph(graph)
    return (
        fg.vfractoid()
        .expand(1)
        .filter(lambda s, c: s.edges_added_last() == s.n_vertices - 1)
        .explore(k)
    )


def _census_fractoid(graph, config):
    fg = FractalContext(engine=config).from_graph(graph)
    return (
        fg.vfractoid()
        .expand(3)
        .aggregate(
            "motifs",
            key_fn=lambda s, c: s.pattern(),
            value_fn=lambda s, c: 1,
            reduce_fn=lambda a, b: a + b,
        )
    )


def _motif_census(graph, config):
    view = _census_fractoid(graph, config).aggregation("motifs")
    return {k.canonical_code(): v for k, v in view.items()}


def _result_multiset(graph, config):
    report = _clique_fractoid(graph, config).execute(collect="subgraphs")
    return Counter((s.vertices, s.edges) for s in report.subgraphs)


def _replay_cases():
    """Case name -> (app, config) for every recorded run."""
    faults = {"healthy": None, "core_kills": KILL_PLAN, "fault_plan": FAULT_PLAN}
    cases = {}
    for policy in POLICIES:
        for fault, plan in faults.items():
            for ws_int, ws_ext in WS_CONFIGS:
                name = f"cliques-{policy}-{fault}-{ws_int}-{ws_ext}"
                cases[name] = ("cliques", _config(ws_int, ws_ext, policy, plan))
    cases["census-one"] = ("census", _config(True, True))
    # Edge-induced words, the aggregation filter, DomainSupport and the
    # two-level shuffle: three FSM rounds on a labeled graph.
    for policy, fault in (
        ("one", "healthy"),
        ("one", "fault_plan"),
        ("adaptive", "core_kills"),
    ):
        cases[f"fsm-{policy}-{fault}"] = (
            "fsm",
            _config(True, True, policy, faults[fault]),
        )
    return cases


def _fsm_record(config):
    graph = erdos_renyi_graph(40, 110, n_labels=3, n_edge_labels=2, seed=9)
    result = fsm(FractalContext(engine=config).from_graph(graph), 3, max_edges=3)
    frequent = sorted(
        (p.canonical_code(), s.support, s.domain_sizes())
        for p, s in result.frequent.items()
    )
    return {
        "frequent": len(frequent),
        # The patterns and supports, too long to pin entry by entry.
        "frequent_sha256": hashlib.sha256(repr(frequent).encode()).hexdigest(),
        "rounds": [_report_record(report) for report in result.reports],
    }


def _replay(app, config):
    """What the fingerprint file pins of one run, as JSON returns it."""
    if app == "fsm":
        return json.loads(json.dumps(_fsm_record(config)))
    record = {}
    if app == "cliques":
        report = _clique_fractoid(powerlaw_graph(80, attach=4, seed=11), config).execute(
            collect="count"
        )
    else:
        fractoid = _census_fractoid(erdos_renyi_graph(40, 110, n_labels=3, seed=9), config)
        view = fractoid.aggregation("motifs")
        report = fractoid.fractal_graph.context.last_report
        record["views"] = sorted((k.canonical_code(), v) for k, v in view.items())
    record.update(_report_record(report))
    return json.loads(json.dumps(record))


def _report_record(report):
    """One execution's counts, clocks and per-core reports."""
    return dict(
        result_count=report.result_count,
        simulated_seconds=report.simulated_seconds,
        metrics=report.metrics.snapshot(),
        cores=[
            (
                core.core_id,
                core.finish_units,
                core.busy_units,
                core.steal_units,
                core.steals_internal,
                core.steals_external,
                core.failed,
                core.parked_units,
                core.wake_events,
            )
            for step in report.steps
            if step.cluster is not None
            for core in step.cluster.cores
        ],
    )


def _record():
    """Every case's replay, keyed by case name, as the file holds it."""
    return {name: _replay(app, config) for name, (app, config) in _replay_cases().items()}


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "policy",
        ["bogus", "chunk:0", "chunk:-2", "chunk:", "chunk:x", "HALF", "", "half", "chunk:8"],
    )
    def test_invalid_policy_rejected(self, policy):
        with pytest.raises(ValueError, match="steal_policy"):
            ClusterConfig(workers=1, cores_per_worker=2, steal_policy=policy)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_valid_policy_accepted(self, policy):
        ClusterConfig(workers=1, cores_per_worker=2, steal_policy=policy)

    def test_error_message_lists_adaptive(self):
        with pytest.raises(ValueError, match="'one' or 'adaptive'"):
            ClusterConfig(workers=1, cores_per_worker=2, steal_policy="bogus")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("workers", 0),
            ("workers", -1),
            ("workers", 2.5),
            ("workers", True),
            ("workers", "2"),
            ("cores_per_worker", 0),
            ("cores_per_worker", 1.0),
            ("cores_per_worker", False),
        ],
    )
    def test_bad_cluster_shape_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ClusterConfig(**{field: value})

    @pytest.mark.parametrize(
        "links",
        [
            ((0, 0, 5.0),),  # self-link
            ((0, 9, 5.0),),  # worker out of range
            ((0, 1, -1.0),),  # negative latency
        ],
    )
    def test_invalid_link_latency_rejected(self, links):
        with pytest.raises(ValueError, match="link"):
            ClusterConfig(workers=2, cores_per_worker=2, link_latency=links)


class TestPolicyTransparency:
    @pytest.mark.parametrize("policy", POLICIES[1:])
    @pytest.mark.parametrize("ws_int,ws_ext", WS_CONFIGS)
    def test_clique_multisets_match(self, ws_int, ws_ext, policy):
        graph = powerlaw_graph(70, attach=4, seed=5)
        base = _result_multiset(graph, _config(ws_int, ws_ext, "one"))
        assert _result_multiset(graph, _config(ws_int, ws_ext, policy)) == base

    @pytest.mark.parametrize("policy", POLICIES[1:])
    def test_aggregation_views_match(self, policy):
        graph = erdos_renyi_graph(40, 110, n_labels=3, seed=9)
        base = _motif_census(graph, _config(True, True, "one"))
        assert _motif_census(graph, _config(True, True, policy)) == base

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("ws_int,ws_ext", WS_CONFIGS)
    def test_faulted_runs_mine_the_same(self, ws_int, ws_ext, policy):
        graph = powerlaw_graph(70, attach=4, seed=5)
        healthy = _result_multiset(graph, _config(ws_int, ws_ext, "one"))
        faulted = _result_multiset(
            graph, _config(ws_int, ws_ext, policy, fault_plan=FAULT_PLAN)
        )
        assert faulted == healthy

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        policy=st.sampled_from(POLICIES),
        ws=st.sampled_from(WS_CONFIGS),
        faulted=st.booleans(),
    )
    def test_random_workloads(self, seed, policy, ws, faulted):
        graph = powerlaw_graph(50 + seed % 30, attach=3 + seed % 3, seed=seed)
        plan = (
            FaultPlan.from_seed(seed, workers=2, cores_per_worker=3)
            if faulted
            else None
        )
        base = _result_multiset(graph, _config(*ws, "one"))
        assert (
            _result_multiset(graph, _config(*ws, policy, fault_plan=plan)) == base
        )


class TestExactReplay:
    """Every recorded run replays the fingerprint file exactly."""

    @pytest.fixture(scope="class")
    def recorded(self):
        return json.loads(FINGERPRINT.read_text())

    @pytest.mark.parametrize("case", list(_replay_cases()))
    def test_replays_recording(self, recorded, case):
        app, config = _replay_cases()[case]
        assert case in recorded, f"{case} is not recorded; rewrite {FINGERPRINT.name}"
        assert _replay(app, config) == recorded[case]

    def test_parking_metered(self):
        graph = powerlaw_graph(80, attach=4, seed=11)
        report = _clique_fractoid(
            graph, _config(False, False)
        ).execute(collect="count")
        summary = report.scheduler_summary()
        assert summary["events"] > 0
        assert summary["parks"] > 0
        assert summary["parked_units"] > 0.0
        # With stealing disabled nothing publishes work to a parked core.
        assert summary["wake_events"] == 0


class TestRootMetering:
    """Level-0 enumeration is setup: engine-metered, core 0 stays clean.

    Pattern-induced strategies meter their level-0 probe (one extension
    test per graph vertex); before the fix that probe was silently
    charged to core 0's counters, skewing per-core load numbers."""

    def _fractoid(self, graph):
        pattern = Pattern([0, 0], [(0, 1, 0)])
        # Pinned: the default kernel counts this step in the backend and
        # never hands it to the cluster engine this class is about.
        fg = FractalContext().from_graph(graph)
        return fg.pfractoid(pattern, kernel="legacy").expand(2)

    def test_core_zero_counters_clean(self):
        graph = erdos_renyi_graph(30, 80, seed=3)
        frac = self._fractoid(graph)
        context = frac.fractal_graph.context
        engine = ClusterEngine(ClusterConfig(workers=1, cores_per_worker=4))
        cores = engine._build_cores(
            graph, frac._strategy_factory, context.interner, {}
        )
        setup = engine._distribute_roots(cores, list(frac.primitives), None)
        # The probe happened — and was booked to setup, not core 0.
        assert setup.extension_tests == graph.n_vertices
        assert all(v == 0 for v in cores[0].metrics.snapshot().values())
        assert any(core.stack for core in cores)

    def test_step_totals_match_sequential(self):
        graph = erdos_renyi_graph(30, 80, seed=3)
        seq = self._fractoid(graph).execute(collect="count")
        clustered = self._fractoid(graph).execute(
            collect="count",
            engine=ClusterConfig(workers=2, cores_per_worker=3),
        )
        assert clustered.result_count == seq.result_count
        assert (
            clustered.metrics.extension_tests == seq.metrics.extension_tests
        )
        assert (
            clustered.metrics.subgraphs_enumerated
            == seq.metrics.subgraphs_enumerated
        )


class TestChunkAccounting:
    def test_chunk_extensions_counted(self):
        graph = powerlaw_graph(90, attach=5, seed=2)
        report = _clique_fractoid(graph, _config(True, True, "adaptive")).execute(
            collect="count"
        )
        m = report.metrics
        steals = m.steals_internal + m.steals_external
        if steals:
            assert m.steal_chunk_extensions >= steals
            assert report.scheduler_summary()["mean_steal_chunk"] >= 1.0

    def test_chunking_reduces_steals(self):
        graph = powerlaw_graph(90, attach=5, seed=2)
        one, adaptive = (
            _clique_fractoid(graph, _config(True, True, policy)).execute(
                collect="count"
            )
            for policy in POLICIES
        )
        assert (
            adaptive.metrics.steals_internal + adaptive.metrics.steals_external
            <= one.metrics.steals_internal + one.metrics.steals_external
        )
        # Both take the same 17 external steals here, so the traffic only
        # ties; the internal steals are where chunks save round-trips.
        assert adaptive.metrics.steal_messages <= one.metrics.steal_messages
        assert adaptive.simulated_seconds < one.simulated_seconds

    def test_per_core_reports_roll_up(self):
        graph = powerlaw_graph(90, attach=5, seed=2)
        report = _clique_fractoid(graph, _config(True, True, "adaptive")).execute(
            collect="count"
        )
        step = report.steps[-1].cluster
        assert sum(c.steal_chunk_extensions for c in step.cores) == (
            step.metrics.steal_chunk_extensions
        )


# A skewed plan that makes the adaptive controller actually move: four
# persistent 6x stragglers keep the fast cores stealing all run long.
SKEW_PLAN = FaultPlan(
    stragglers=tuple(StragglerWindow(c, 0.0, 1e6, 6.0) for c in range(2)),
    seed=3,
)


class TestAdaptivePolicy:
    """``steal_policy="adaptive"`` mines exactly what ``"one"`` mines.

    The controller only moves clocks and steal traffic; result
    multisets, aggregation views and aggregate counts are identical to
    the fixed single-extension protocol — across work-stealing
    configurations, fault schedules and execution backends — and two
    adaptive runs replay byte-identically.
    """

    def test_counts_match_across_backends(self):
        """Sequential / simulator-adaptive / multiprocess agree exactly."""
        import multiprocessing

        from repro import MultiprocessConfig

        graph = erdos_renyi_graph(40, 110, n_labels=3, seed=9)
        seq_fc = FractalContext()
        seq = {
            k.canonical_code(): v
            for k, v in (
                seq_fc.from_graph(graph)
                .vfractoid()
                .expand(3)
                .aggregate(
                    "motifs",
                    key_fn=lambda s, c: s.pattern(),
                    value_fn=lambda s, c: 1,
                    reduce_fn=lambda a, b: a + b,
                )
                .aggregation("motifs")
            ).items()
        }
        adaptive = _motif_census(
            graph, _config(True, True, "adaptive", fault_plan=SKEW_PLAN)
        )
        assert adaptive == seq
        if "fork" in multiprocessing.get_all_start_methods():
            mp = _motif_census(graph, MultiprocessConfig(num_procs=2))
            assert mp == seq

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        ws=st.sampled_from(WS_CONFIGS),
        faulted=st.booleans(),
    )
    def test_random_workloads_match_one(self, seed, ws, faulted):
        graph = powerlaw_graph(50 + seed % 30, attach=3 + seed % 3, seed=seed)
        plan = (
            FaultPlan.from_seed(seed, workers=2, cores_per_worker=3)
            if faulted
            else None
        )
        base = _result_multiset(graph, _config(*ws, "one", fault_plan=plan))
        assert (
            _result_multiset(graph, _config(*ws, "adaptive", fault_plan=plan))
            == base
        )

    def test_replay_determinism(self):
        """Two adaptive runs: identical clocks, counters and results."""
        graph = powerlaw_graph(90, attach=5, seed=2)

        def full_fingerprint():
            report = _clique_fractoid(
                graph, _config(True, True, "adaptive", fault_plan=SKEW_PLAN)
            ).execute(collect="count")
            cores = tuple(
                (core.core_id, core.finish_units, core.busy_units)
                for step in report.steps
                if step.cluster is not None
                for core in step.cluster.cores
            )
            return (
                report.result_count,
                report.simulated_seconds,
                tuple(sorted(report.metrics.snapshot().items())),
                cores,
            )

        assert full_fingerprint() == full_fingerprint()

    def test_controller_moves_on_skew(self):
        graph = powerlaw_graph(90, attach=5, seed=2)
        report = _clique_fractoid(
            graph, _config(True, True, "adaptive", fault_plan=SKEW_PLAN)
        ).execute(collect="count")
        m = report.metrics
        assert m.steal_degree_adjustments >= 1
        assert m.adaptive_steals >= 1
        summary = report.scheduler_summary()
        assert summary["steal_degree_adjustments"] == m.steal_degree_adjustments
        assert summary["adaptive_chunk_mean"] >= 1.0
        assert summary["victim_cost_skips"] == m.victim_cost_skips
        # Per-core reports roll the new counters up exactly.
        step = report.steps[-1].cluster
        assert sum(c.steal_degree_adjustments for c in step.cores) == (
            m.steal_degree_adjustments
        )
        assert sum(c.victim_cost_skips for c in step.cores) == (
            m.victim_cost_skips
        )

    def test_fixed_policies_keep_adaptive_counters_zero(self):
        """The controller is a no-op unless the policy asks for it."""
        graph = powerlaw_graph(90, attach=5, seed=2)
        report = _clique_fractoid(graph, _config(True, True, "one")).execute(
            collect="count"
        )
        m = report.metrics
        assert m.steal_degree_adjustments == 0
        assert m.victim_cost_skips == 0
        assert m.adaptive_steals == 0
        assert m.adaptive_chunk_extensions == 0


if __name__ == "__main__":
    FINGERPRINT.parent.mkdir(exist_ok=True)
    FINGERPRINT.write_text(json.dumps(_record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FINGERPRINT}")
