"""Steal policies and the event-driven scheduler.

Three invariants guard this subsystem:

1. **Policy transparency** — chunked stealing (``"half"``,
   ``"chunk:N"``) moves work between cores but never changes what is
   mined: result multisets and finalized aggregation views are
   identical across policies, under every work-stealing configuration
   and fault schedule.
2. **Exact replay** — the event-driven scheduler with the default
   ``"one"`` policy is a drop-in replacement for the legacy polling
   loop: per-core clocks, per-core steal counts, step totals and
   simulated makespans are *byte-identical*, including under injected
   faults (the parked-core collapse replays every virtual failed poll).
3. **Setup metering** — level-0 root enumeration is cluster setup, not
   core 0's work: its probes are metered engine-side, step totals are
   unchanged, and core 0's per-core counters stay clean.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import ClusterConfig, FractalContext, Pattern
from repro.graph import erdos_renyi_graph, powerlaw_graph
from repro.runtime.cluster import ClusterEngine, _parse_steal_policy
from repro.runtime.faults import (
    CoreFailure,
    FaultPlan,
    MessageFaults,
    StragglerWindow,
)

# Counters introduced by the event scheduler; excluded from the
# poll-vs-event fingerprint because the two schedulers account their own
# bookkeeping differently (everything else must match exactly).
SCHEDULER_COUNTERS = (
    "scheduler_events",
    "scheduler_requeues",
    "cores_parked",
    "wake_events",
    "parked_units",
    "victim_scan_steps",
    "steal_chunk_extensions",
)

WS_CONFIGS = [(False, False), (True, False), (False, True), (True, True)]
POLICIES = ["one", "half", "chunk:3", "adaptive"]

FAULT_PLAN = FaultPlan(
    core_failures=(CoreFailure(2, 80.0),),
    stragglers=(StragglerWindow(3, 0.0, 500.0, 3.0),),
    message_faults=MessageFaults(drop=0.2, duplicate=0.1, delay=0.2, delay_units=4.0),
    seed=7,
)


def _config(ws_int, ws_ext, policy="one", scheduler="event", fault_plan=None):
    return ClusterConfig(
        workers=2,
        cores_per_worker=3,
        ws_internal=ws_int,
        ws_external=ws_ext,
        steal_policy=policy,
        scheduler=scheduler,
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


def _motif_census(graph, config):
    fg = FractalContext(engine=config).from_graph(graph)
    view = (
        fg.vfractoid()
        .expand(3)
        .aggregate(
            "motifs",
            key_fn=lambda s, c: s.pattern(),
            value_fn=lambda s, c: 1,
            reduce_fn=lambda a, b: a + b,
        )
        .aggregation("motifs")
    )
    return {k.canonical_code(): v for k, v in view.items()}


def _result_multiset(graph, config):
    report = _clique_fractoid(graph, config).execute(collect="subgraphs")
    return Counter((s.vertices, s.edges) for s in report.subgraphs)


def _fingerprint(report):
    """Everything the paper's simulation publishes, minus scheduler meta."""
    totals = report.metrics.snapshot()
    for key in SCHEDULER_COUNTERS:
        totals.pop(key)
    cores = tuple(
        (
            core.core_id,
            core.finish_units,
            core.busy_units,
            core.steal_units,
            core.steals_internal,
            core.steals_external,
            core.failed,
        )
        for step in report.steps
        if step.cluster is not None
        for core in step.cluster.cores
    )
    return (
        report.result_count,
        report.simulated_seconds,
        tuple(sorted(totals.items())),
        cores,
    )


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "policy", ["bogus", "chunk:0", "chunk:-2", "chunk:", "chunk:x", "HALF", ""]
    )
    def test_invalid_policy_rejected(self, policy):
        with pytest.raises(ValueError, match="steal_policy"):
            ClusterConfig(workers=1, cores_per_worker=2, steal_policy=policy)

    @pytest.mark.parametrize(
        "policy", ["one", "half", "chunk:1", "chunk:64", "adaptive"]
    )
    def test_valid_policy_accepted(self, policy):
        ClusterConfig(workers=1, cores_per_worker=2, steal_policy=policy)

    def test_invalid_scheduler_rejected(self):
        with pytest.raises(ValueError, match="scheduler"):
            ClusterConfig(workers=1, cores_per_worker=2, scheduler="fibers")

    def test_parse(self):
        assert _parse_steal_policy("one") == 1
        assert _parse_steal_policy("half") == 0
        assert _parse_steal_policy("chunk:5") == 5
        assert _parse_steal_policy("adaptive") == -1

    def test_error_message_lists_adaptive(self):
        with pytest.raises(ValueError, match="adaptive"):
            _parse_steal_policy("bogus")

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


class TestChunkSizing:
    def test_one_always_single(self):
        config = ClusterConfig(workers=1, cores_per_worker=2, steal_policy="one")
        assert [config.steal_chunk_size(r) for r in (1, 2, 5, 100)] == [1, 1, 1, 1]

    def test_half_takes_larger_half(self):
        config = ClusterConfig(workers=1, cores_per_worker=2, steal_policy="half")
        assert config.steal_chunk_size(1) == 1
        assert config.steal_chunk_size(2) == 1
        assert config.steal_chunk_size(5) == 3
        assert config.steal_chunk_size(8) == 4

    def test_chunk_leaves_victim_one(self):
        """Fixed chunks cap at remaining-1: the victim always keeps a unit
        of progress, which is what breaks the two-thief bounce livelock."""
        config = ClusterConfig(workers=1, cores_per_worker=2, steal_policy="chunk:4")
        assert config.steal_chunk_size(10) == 4
        assert config.steal_chunk_size(4) == 3
        assert config.steal_chunk_size(2) == 1
        assert config.steal_chunk_size(1) == 1


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
    """scheduler="event" with policy "one" replays scheduler="poll" exactly."""

    @pytest.mark.parametrize("ws_int,ws_ext", WS_CONFIGS)
    @pytest.mark.parametrize(
        "fault",
        [None, "fail_at", "plan"],
        ids=["healthy", "fail_at", "fault_plan"],
    )
    def test_cliques_byte_identical(self, ws_int, ws_ext, fault):
        graph = powerlaw_graph(80, attach=4, seed=11)
        kwargs = {}
        if fault == "fail_at":
            kwargs["fail_at"] = {1: 50.0, 4: 120.0}
        elif fault == "plan":
            kwargs["fault_plan"] = FAULT_PLAN
        reports = {}
        for scheduler in ("event", "poll"):
            config = ClusterConfig(
                workers=2,
                cores_per_worker=3,
                ws_internal=ws_int,
                ws_external=ws_ext,
                scheduler=scheduler,
                **kwargs,
            )
            reports[scheduler] = _clique_fractoid(graph, config).execute(
                collect="count"
            )
        assert _fingerprint(reports["event"]) == _fingerprint(reports["poll"])

    def test_aggregation_byte_identical(self):
        graph = erdos_renyi_graph(40, 110, n_labels=3, seed=9)
        views = {}
        for scheduler in ("event", "poll"):
            views[scheduler] = _motif_census(
                graph, _config(True, True, scheduler=scheduler)
            )
        assert views["event"] == views["poll"]

    def test_event_pops_fewer_events(self):
        """Parking must eliminate the poll loop's busy-wait pops."""
        graph = powerlaw_graph(80, attach=4, seed=11)
        counts = {}
        for scheduler in ("event", "poll"):
            config = ClusterConfig(
                workers=2,
                cores_per_worker=3,
                ws_internal=False,
                ws_external=False,
                scheduler=scheduler,
            )
            report = _clique_fractoid(graph, config).execute(collect="count")
            counts[scheduler] = report.metrics.scheduler_events
        assert counts["event"] < counts["poll"]

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
        report = _clique_fractoid(graph, _config(True, True, "half")).execute(
            collect="count"
        )
        m = report.metrics
        steals = m.steals_internal + m.steals_external
        if steals:
            assert m.steal_chunk_extensions >= steals
            assert report.scheduler_summary()["mean_steal_chunk"] >= 1.0

    def test_chunking_reduces_steals(self):
        graph = powerlaw_graph(90, attach=5, seed=2)
        one, half = (
            _clique_fractoid(graph, _config(True, True, policy)).execute(
                collect="count"
            )
            for policy in ("one", "half")
        )
        assert (
            half.metrics.steals_internal + half.metrics.steals_external
            <= one.metrics.steals_internal + one.metrics.steals_external
        )
        assert half.metrics.steal_messages < one.metrics.steal_messages
        assert half.simulated_seconds < one.simulated_seconds

    def test_per_core_reports_roll_up(self):
        graph = powerlaw_graph(90, attach=5, seed=2)
        report = _clique_fractoid(graph, _config(True, True, "half")).execute(
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

    def test_chunk_size_outside_engine_is_one(self):
        # Without a live run there is no controller state to consult;
        # the config-level helper falls back to the safe single step.
        config = ClusterConfig(
            workers=1, cores_per_worker=2, steal_policy="adaptive"
        )
        assert [config.steal_chunk_size(r) for r in (1, 2, 5, 100)] == [1, 1, 1, 1]

    def test_aggregation_views_match_one(self):
        graph = erdos_renyi_graph(40, 110, n_labels=3, seed=9)
        base = _motif_census(graph, _config(True, True, "one"))
        assert _motif_census(graph, _config(True, True, "adaptive")) == base

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
        report = _clique_fractoid(graph, _config(True, True, "half")).execute(
            collect="count"
        )
        m = report.metrics
        assert m.steal_degree_adjustments == 0
        assert m.victim_cost_skips == 0
        assert m.adaptive_steals == 0
        assert m.adaptive_chunk_extensions == 0
