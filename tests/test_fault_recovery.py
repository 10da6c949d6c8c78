"""Fault injection & recovery: validation, detection, and the core
invariant — results and aggregations are byte-identical under every
fault schedule (paper §4.1's from-scratch recovery claim)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import ClusterConfig, FractalContext
from repro.graph import erdos_renyi_graph, powerlaw_graph
from repro.runtime.faults import (
    CoreFailure,
    FailureDetector,
    FaultPlan,
    MessageFaults,
    MpDropResult,
    MpPoisonChunk,
    MpWorkerKill,
    MpWorkerStall,
    StragglerWindow,
    WorkerFailure,
)


def _clique_fractoid(context, graph, k=3):
    fg = context.from_graph(graph)
    return (
        fg.vfractoid()
        .expand(1)
        .filter(lambda s, c: s.edges_added_last() == s.n_vertices - 1)
        .explore(k)
    )


def _census(graph, config):
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


def _kill(*failures, workers=1, cores_per_worker=4):
    plan = FaultPlan(core_failures=tuple(CoreFailure(*f) for f in failures))
    return ClusterConfig(
        workers=workers, cores_per_worker=cores_per_worker, fault_plan=plan
    )


class TestValidation:
    @pytest.mark.parametrize("core_id", [-1, True, 1.0])
    def test_plan_core_id_must_be_an_index(self, core_id):
        with pytest.raises(ValueError, match=f"kills core {core_id!r}"):
            _kill((core_id, 10.0), workers=2)

    def test_plan_negative_clock(self):
        with pytest.raises(ValueError, match="non-negative"):
            _kill((0, -5.0))

    def test_plan_nan_clock(self):
        with pytest.raises(ValueError, match="NaN"):
            _kill((0, float("nan")))

    def test_plan_infinite_clock(self):
        with pytest.raises(ValueError, match="finite"):
            _kill((0, float("inf")))

    def test_killing_every_core_rejected(self):
        with pytest.raises(ValueError, match="at least one core"):
            _kill((0, 1.0), (1, 1.0), cores_per_worker=2)

    def test_plan_core_out_of_bounds(self):
        plan = FaultPlan(core_failures=(CoreFailure(9, 5.0),))
        with pytest.raises(ValueError, match="cores 0..7"):
            ClusterConfig(workers=2, cores_per_worker=4, fault_plan=plan)

    def test_plan_worker_out_of_bounds(self):
        plan = FaultPlan(worker_failures=(WorkerFailure(2, 5.0),))
        with pytest.raises(ValueError, match="workers 0..1"):
            ClusterConfig(workers=2, cores_per_worker=4, fault_plan=plan)

    def test_plan_straggler_factor(self):
        plan = FaultPlan(stragglers=(StragglerWindow(0, 0.0, 10.0, factor=0.5),))
        with pytest.raises(ValueError, match="factor"):
            ClusterConfig(workers=2, cores_per_worker=4, fault_plan=plan)

    def test_plan_empty_straggler_window(self):
        plan = FaultPlan(stragglers=(StragglerWindow(0, 10.0, 10.0),))
        with pytest.raises(ValueError, match="empty"):
            ClusterConfig(workers=2, cores_per_worker=4, fault_plan=plan)

    def test_plan_drop_probability_bounds(self):
        plan = FaultPlan(message_faults=MessageFaults(drop=1.0))
        with pytest.raises(ValueError, match="drop probability"):
            ClusterConfig(workers=2, cores_per_worker=4, fault_plan=plan)

    def test_any_ws_config_accepts_failures(self):
        """The old ValueError for disabled stealing is gone for good."""
        for ws_int in (False, True):
            for ws_ext in (False, True):
                ClusterConfig(
                    workers=2,
                    cores_per_worker=2,
                    ws_internal=ws_int,
                    ws_external=ws_ext,
                    fault_plan=FaultPlan(core_failures=(CoreFailure(0, 1.0),)),
                )


class TestDetector:
    def test_detect_at_math(self):
        detector = FailureDetector(
            heartbeat_interval_units=100.0, miss_threshold=3
        )
        # Death at 250: last heartbeat at 200, declared dead at 200 + 300.
        assert detector.detect_at(250.0) == 500.0
        assert detector.detect_at(0.0) == 300.0
        assert detector.detect_at(99.9) == 300.0

    def test_detection_metrics_recorded(self):
        graph = powerlaw_graph(80, attach=4, seed=2)
        config = _kill((0, 50.0), (5, 120.0), workers=2)
        report = _clique_fractoid(FractalContext(engine=config), graph).execute(
            collect="count"
        )
        m = report.metrics
        assert m.failures_injected == 2
        assert m.failures_detected == 2
        assert m.detection_latency_units > 0
        summary = report.recovery_summary()
        assert summary["mean_detection_latency_units"] > 0

    def test_orphans_invisible_before_detection(self):
        """Recovery work never starts before the detector's firing point."""
        graph = powerlaw_graph(80, attach=4, seed=2)
        detector = FailureDetector(
            heartbeat_interval_units=100.0, miss_threshold=3
        )
        plan = FaultPlan(core_failures=(CoreFailure(0, 50.0),), detector=detector)
        config = ClusterConfig(workers=1, cores_per_worker=2, fault_plan=plan)
        report = _clique_fractoid(FractalContext(engine=config), graph).execute(
            collect="count"
        )
        cluster = report.steps[-1].cluster
        assert cluster.failures == 1
        # The survivor outlives the detection point (300 units).
        survivor = cluster.cores[1]
        assert survivor.finish_units >= 300.0


class TestRecoveryEquivalence:
    WS = [
        (False, False),
        (True, False),
        (False, True),
        (True, True),
    ]

    @pytest.mark.parametrize("ws_int,ws_ext", WS)
    def test_counts_survive_failures_any_ws(self, ws_int, ws_ext):
        graph = powerlaw_graph(90, attach=4, seed=11)
        base = dict(
            workers=2, cores_per_worker=3, ws_internal=ws_int, ws_external=ws_ext
        )
        healthy = _clique_fractoid(
            FractalContext(engine=ClusterConfig(**base)), graph
        ).execute(collect="count")
        injected = _clique_fractoid(
            FractalContext(
                engine=ClusterConfig(
                    **base,
                    fault_plan=FaultPlan(
                        core_failures=(CoreFailure(0, 40.0), CoreFailure(4, 90.0))
                    ),
                )
            ),
            graph,
        ).execute(collect="count")
        assert injected.result_count == healthy.result_count
        assert (
            injected.metrics.subgraphs_enumerated
            == healthy.metrics.subgraphs_enumerated
        )

    def test_worker_failure_recovers(self):
        graph = powerlaw_graph(90, attach=4, seed=11)
        plan = FaultPlan(worker_failures=(WorkerFailure(1, 60.0),))
        config = ClusterConfig(workers=2, cores_per_worker=3, fault_plan=plan)
        healthy = _clique_fractoid(
            FractalContext(engine=ClusterConfig(workers=2, cores_per_worker=3)),
            graph,
        ).execute(collect="count")
        injected = _clique_fractoid(FractalContext(engine=config), graph).execute(
            collect="count"
        )
        assert injected.result_count == healthy.result_count
        cluster = injected.steps[-1].cluster
        assert cluster.failures == 3  # the whole worker died
        assert sum(1 for c in cluster.cores if c.failed) == 3

    def test_aggregations_survive_faults(self):
        graph = erdos_renyi_graph(40, 110, n_labels=3, seed=8)
        clean = _census(graph, ClusterConfig(workers=2, cores_per_worker=3))
        plan = FaultPlan.from_seed(7, 2, 3, horizon_units=500.0)
        faulty = _census(
            graph, ClusterConfig(workers=2, cores_per_worker=3, fault_plan=plan)
        )
        assert faulty == clean

    def test_message_faults_force_retries(self):
        graph = powerlaw_graph(90, attach=4, seed=11)
        plan = FaultPlan(
            core_failures=(CoreFailure(0, 30.0),),
            message_faults=MessageFaults(drop=0.5, duplicate=0.3, delay=0.4),
            seed=13,
        )
        config = ClusterConfig(
            workers=2, cores_per_worker=3, ws_internal=False, fault_plan=plan
        )
        healthy = _clique_fractoid(
            FractalContext(
                engine=ClusterConfig(
                    workers=2, cores_per_worker=3, ws_internal=False
                )
            ),
            graph,
        ).execute(collect="count")
        injected = _clique_fractoid(FractalContext(engine=config), graph).execute(
            collect="count"
        )
        assert injected.result_count == healthy.result_count
        m = injected.metrics
        assert m.steal_messages_dropped > 0
        assert m.steal_retries > 0

    def test_stragglers_slow_but_do_not_change_results(self):
        graph = powerlaw_graph(90, attach=4, seed=11)
        plan = FaultPlan(
            stragglers=(StragglerWindow(0, 0.0, 1e6, factor=8.0),)
        )
        base = ClusterConfig(workers=2, cores_per_worker=3)
        slowed = ClusterConfig(workers=2, cores_per_worker=3, fault_plan=plan)
        clean = _clique_fractoid(FractalContext(engine=base), graph).execute(
            collect="count"
        )
        straggled = _clique_fractoid(
            FractalContext(engine=slowed), graph
        ).execute(collect="count")
        assert straggled.result_count == clean.result_count
        assert straggled.metrics.failures_injected == 0

    def test_fault_runs_are_deterministic(self):
        graph = powerlaw_graph(90, attach=4, seed=11)
        plan = FaultPlan.from_seed(4, 2, 3, horizon_units=600.0)

        def run():
            config = ClusterConfig(
                workers=2, cores_per_worker=3, fault_plan=plan
            )
            return _clique_fractoid(FractalContext(engine=config), graph).execute(
                collect="count"
            )

        r1, r2 = run(), run()
        assert r1.result_count == r2.result_count
        assert r1.simulated_seconds == r2.simulated_seconds
        assert r1.metrics.snapshot() == r2.metrics.snapshot()


class TestPlanSerialization:
    def test_round_trip(self, tmp_path):
        plan = FaultPlan.from_seed(21, 2, 4)
        path = tmp_path / "plan.json"
        plan.save(str(path))
        assert FaultPlan.load(str(path)) == plan

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            FaultPlan.from_dict([1, 2, 3])


_SECTIONS = {
    "core_failures": CoreFailure,
    "worker_failures": WorkerFailure,
    "stragglers": StragglerWindow,
    "mp_worker_kills": MpWorkerKill,
    "mp_worker_stalls": MpWorkerStall,
    "mp_drop_results": MpDropResult,
    "mp_poison_chunks": MpPoisonChunk,
}


def _check_plan(data: dict) -> FaultPlan:
    """Load a plan dict and validate it for a 2x2 cluster and 2 procs."""
    plan = FaultPlan.from_dict(data)
    plan.validate(workers=2, cores_per_worker=2)
    plan.validate_mp(2)
    return plan


class TestMalformedPlans:
    """A wrong plan raises ValueError naming what is wrong, never a
    TypeError and never a plan that silently injects nothing."""

    def test_misspelt_section_rejected_by_name(self):
        with pytest.raises(ValueError, match="'core_failure'"):
            FaultPlan.from_dict({"core_failure": [{"core_id": 0, "at": 5}]})

    @pytest.mark.parametrize("section", sorted(_SECTIONS))
    @pytest.mark.parametrize("value", [None, 3, {"core_id": 0}, "x"])
    def test_section_must_be_a_list(self, section, value):
        with pytest.raises(ValueError, match=f"{section}.*must be a list"):
            FaultPlan.from_dict({section: value})

    @pytest.mark.parametrize("seed", ["1", 1.5, True, None])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match="seed"):
            FaultPlan.from_dict({"seed": seed})

    @pytest.mark.parametrize(
        "data, match",
        [
            ({"worker_failures": [{"worker_id": "0", "at": 5}]}, "worker '0'"),
            ({"worker_failures": [{"worker_id": 0.5, "at": 5}]}, "worker 0.5"),
            ({"stragglers": [{"core_id": "0", "start": 0, "end": 9}]},
             "core '0'"),
            ({"stragglers": [{"core_id": 0, "start": 0, "end": 9,
                              "factor": "2"}]}, "straggler factor"),
            ({"stragglers": [{"core_id": 0, "start": 0, "end": 9,
                              "factor": float("inf")}]}, "straggler factor"),
            ({"detector": {"miss_threshold": "3"}}, "miss threshold"),
            ({"detector": {"miss_threshold": 2.5}}, "miss threshold"),
            ({"detector": {"miss_threshold": 10 ** 400}}, "miss threshold"),
            ({"message_faults": {"drop": "0.1"}}, "drop probability"),
            ({"message_faults": {"delay": None}}, "delay probability"),
            ({"core_failures": [{"core_id": 0, "at": 10 ** 400}]}, "finite"),
            ({"mp_worker_kills": [{"worker_id": "0"}]}, "mp worker '0'"),
            ({"mp_worker_stalls": [{"worker_id": [0]}]}, r"mp worker \[0\]"),
            ({"mp_drop_results": [{"worker_id": None}]}, "mp worker None"),
        ],
    )
    def test_wrongly_typed_field_rejected(self, data, match):
        with pytest.raises(ValueError, match=match):
            _check_plan(data)

    def test_cli_rejects_misspelt_section(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "plan.json"
        path.write_text('{"core_failure": [{"core_id": 0, "at": 5}]}')
        with pytest.raises(SystemExit, match="'core_failure'"):
            main(["run", "cliques", "--dataset", "mico", "--scale", "0.3",
                  "--workers", "2", "--cores", "2", "--fault-plan", str(path)])

    def test_cli_rejects_string_worker_id(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "plan.json"
        path.write_text('{"worker_failures": [{"worker_id": "0", "at": 5}]}')
        with pytest.raises(SystemExit, match="invalid cluster configuration"):
            main(["run", "cliques", "--dataset", "mico", "--scale", "0.3",
                  "--workers", "2", "--cores", "2", "--fault-plan", str(path)])


_json_leaf = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2, max_value=5),
    st.integers(),
    st.floats(),
    st.text(max_size=3),
)


def _json_entry(entry_cls):
    """JSON objects keyed mostly by ``entry_cls``'s own field names."""
    names = st.sampled_from(list(entry_cls.__dataclass_fields__))
    keys = st.one_of(names, names, st.text(max_size=3))
    return st.dictionaries(keys, _json_leaf, max_size=5)


_json_plan = st.fixed_dictionaries(
    {},
    optional={
        **{
            name: st.one_of(
                st.lists(st.one_of(_json_entry(cls), _json_leaf), max_size=3),
                _json_leaf,
            )
            for name, cls in _SECTIONS.items()
        },
        "message_faults": st.one_of(_json_entry(MessageFaults), _json_leaf),
        "detector": st.one_of(_json_entry(FailureDetector), _json_leaf),
        "seed": _json_leaf,
        "core_failure": _json_leaf,
    },
)


class TestPlanFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_json_plan)
    def test_json_dict_gives_valid_plan_or_value_error(self, data):
        try:
            plan = _check_plan(data)
        except ValueError:
            return
        assert FaultPlan.from_dict(plan.to_dict()) == plan


class TestMpPlanSections:
    """JSON round-trip and validation of the real-process fault sections."""

    def test_mp_round_trip(self, tmp_path):
        plan = FaultPlan(
            mp_worker_kills=(MpWorkerKill(worker_id=0, after_chunks=2),),
            mp_worker_stalls=(
                MpWorkerStall(worker_id=1, after_chunks=1, seconds=1.5,
                              freeze=True),
            ),
            mp_drop_results=(MpDropResult(worker_id=1, chunk_number=0),),
            mp_poison_chunks=(MpPoisonChunk(chunk_index=3),),
        )
        path = tmp_path / "mp-plan.json"
        plan.save(str(path))
        loaded = FaultPlan.load(str(path))
        assert loaded == plan
        assert loaded.has_mp_faults

    def test_seeded_mp_plan_round_trips(self, tmp_path):
        plan = FaultPlan.from_seed_mp(21, 3)
        path = tmp_path / "seeded.json"
        plan.save(str(path))
        assert FaultPlan.load(str(path)) == plan

    def test_simulator_plan_json_has_no_mp_sections(self):
        data = FaultPlan.from_seed(21, 2, 4).to_dict()
        assert not any(key.startswith("mp_") for key in data)

    def test_unknown_key_in_mp_entry_rejected(self):
        data = FaultPlan(
            mp_worker_kills=(MpWorkerKill(worker_id=0),)
        ).to_dict()
        data["mp_worker_kills"][0]["bogus"] = 1
        with pytest.raises(ValueError, match="mp_worker_kills"):
            FaultPlan.from_dict(data)

    def test_negative_chunk_index_rejected(self):
        plan = FaultPlan(mp_poison_chunks=(MpPoisonChunk(chunk_index=-1),))
        with pytest.raises(ValueError, match="non-negative"):
            plan.validate_mp(2)

    def test_negative_after_chunks_rejected(self):
        plan = FaultPlan(
            mp_worker_kills=(MpWorkerKill(worker_id=0, after_chunks=-3),)
        )
        with pytest.raises(ValueError, match="non-negative"):
            plan.validate_mp(2)

    def test_worker_id_out_of_range_rejected(self):
        plan = FaultPlan(mp_worker_kills=(MpWorkerKill(worker_id=5),))
        with pytest.raises(ValueError, match="workers 0..1"):
            plan.validate_mp(2)

    def test_killing_every_mp_worker_rejected(self):
        # Mirrors the simulator's kill-all-cores guard: one slot must
        # survive so gen-0 progress exists without leaning on respawns.
        plan = FaultPlan(
            mp_worker_kills=(
                MpWorkerKill(worker_id=0),
                MpWorkerKill(worker_id=1),
            )
        )
        with pytest.raises(ValueError, match="at least one worker slot"):
            plan.validate_mp(2)

    def test_config_validates_plan_at_construction(self):
        from repro import MultiprocessConfig

        plan = FaultPlan(
            mp_worker_kills=(
                MpWorkerKill(worker_id=0),
                MpWorkerKill(worker_id=1),
            )
        )
        with pytest.raises(ValueError, match="at least one worker slot"):
            MultiprocessConfig(num_procs=2, fault_plan=plan)


@st.composite
def chaos_case(draw):
    n = draw(st.integers(min_value=12, max_value=40))
    max_m = n * (n - 1) // 2
    m = draw(st.integers(min_value=n, max_value=min(3 * n, max_m)))
    graph_seed = draw(st.integers(min_value=0, max_value=10_000))
    workers = draw(st.integers(min_value=1, max_value=2))
    cores = draw(st.integers(min_value=2, max_value=3))
    ws_int = draw(st.booleans())
    ws_ext = draw(st.booleans())
    plan_seed = draw(st.integers(min_value=0, max_value=10_000))
    horizon = draw(st.floats(min_value=10.0, max_value=2000.0))
    return (n, m, graph_seed, workers, cores, ws_int, ws_ext, plan_seed, horizon)


class TestChaosProperty:
    @settings(max_examples=12, deadline=None)
    @given(chaos_case(), st.sampled_from(["cliques", "induced", "census"]))
    def test_results_identical_under_random_fault_plans(self, case, app):
        (
            n,
            m,
            graph_seed,
            workers,
            cores,
            ws_int,
            ws_ext,
            plan_seed,
            horizon,
        ) = case
        graph = erdos_renyi_graph(n, m, n_labels=2, seed=graph_seed)
        plan = FaultPlan.from_seed(plan_seed, workers, cores, horizon)
        base = dict(
            workers=workers,
            cores_per_worker=cores,
            ws_internal=ws_int,
            ws_external=ws_ext,
        )
        clean_cfg = ClusterConfig(**base)
        fault_cfg = ClusterConfig(**base, fault_plan=plan)
        if app == "census":
            assert _census(graph, fault_cfg) == _census(graph, clean_cfg)
            return
        if app == "cliques":
            clean = _clique_fractoid(
                FractalContext(engine=clean_cfg), graph
            ).execute(collect="count")
            faulty = _clique_fractoid(
                FractalContext(engine=fault_cfg), graph
            ).execute(collect="count")
        else:
            clean = (
                FractalContext(engine=clean_cfg)
                .from_graph(graph)
                .vfractoid()
                .expand(3)
                .execute(collect="count")
            )
            faulty = (
                FractalContext(engine=fault_cfg)
                .from_graph(graph)
                .vfractoid()
                .expand(3)
                .execute(collect="count")
            )
        assert faulty.result_count == clean.result_count
        assert (
            faulty.metrics.subgraphs_enumerated
            == clean.metrics.subgraphs_enumerated
        )
        # The detector always converges: every injected failure detected,
        # and detection latency is finite.
        m_ = faulty.metrics
        assert m_.failures_detected == m_.failures_injected
        assert math.isfinite(m_.detection_latency_units)
