"""Figure 16 — Hierarchical work stealing drilldown on FSM.

Paper shape (per fractal step, across four configurations): disabled load
balancing shows raw imbalance that worsens in later steps; internal-only
stealing fixes intra-worker skew at low cost; external-only balances
across workers but pays communication; internal+external gives near
perfect balancing and the best makespan.

The sweep also carries the steal-policy dimension: ``"one"`` is the
paper's single-extension protocol, ``"adaptive"`` lets an AIMD
controller size each steal's chunk.  Chunking must not change the
figure's shape — only clocks and steal traffic move.

``test_adaptive_steal_dlb`` is the gate on keeping ``"adaptive"``: over
the five DLB load shapes of :mod:`dlb_scenarios` it must beat ``"one"``
on makespan everywhere while mining exactly the same results.
"""

from collections import Counter, defaultdict

from repro.harness import run_fig16_worksteal
from repro.harness.configs import bench_fsm_patents

from conftest import record, run_once
from dlb_scenarios import all_scenarios, bestdegree, straggler_plan

POLICIES = ("one", "adaptive")


def test_fig16_worksteal(benchmark):
    rows = run_once(
        benchmark,
        run_fig16_worksteal,
        bench_fsm_patents(),
        10,  # min_support
        3,  # max_edges
        2,  # workers
        8,  # cores per worker
        steal_policies=POLICIES,
    )
    per_config = defaultdict(lambda: {"makespan": 0.0, "rows": []})
    for row in rows:
        if row["policy"] != "one":
            continue
        per_config[row["config"]]["makespan"] += row["makespan_s"]
        per_config[row["config"]]["rows"].append(row)

    def dominant(name):
        return max(per_config[name]["rows"], key=lambda r: r["makespan_s"])

    disabled = per_config["1.Disabled"]["makespan"]
    internal = per_config["2.Internal"]["makespan"]
    external = per_config["3.External"]["makespan"]
    both = per_config["4.Internal+External"]["makespan"]

    # Any stealing beats no stealing; the combined strategy is best.
    assert internal < disabled
    assert external < disabled
    assert both <= internal
    assert both <= external
    # Figure 16's visual claim on the dominant step: stealing shrinks the
    # tallest per-core bar, and the balanced config stays near perfect.
    assert dominant("4.Internal+External")["max_task_s"] < dominant("1.Disabled")["max_task_s"]
    assert dominant("4.Internal+External")["imbalance"] < 1.3
    # Steal activity matches the enabled levels (any policy).
    for row in rows:
        if row["config"] == "1.Disabled":
            assert row["steals_internal"] == 0
            assert row["steals_external"] == 0
        if row["config"] == "2.Internal":
            assert row["steals_external"] == 0
        if row["config"] == "3.External":
            assert row["steals_internal"] == 0

    # Steal-policy dimension: adaptive chunks finish no later and send no
    # more steal messages than single-extension transfers, and every
    # adaptive steal ships at least one extension.  The steal *count* is
    # not asserted: a chunk that lands on a core about to go idle can
    # cost one extra local steal later (4.Internal+External takes 2371
    # adaptive steals against 2366 under "one").
    totals = defaultdict(lambda: defaultdict(float))
    for row in rows:
        agg = totals[(row["config"], row["policy"])]
        agg["makespan"] += row["makespan_s"]
        agg["messages"] += row["steal_messages"]
        agg["steals"] += row["steals_internal"] + row["steals_external"]
        agg["chunk_extensions"] += row["steal_chunk_extensions"]
    for config in per_config:
        one = totals[(config, "one")]
        adaptive = totals[(config, "adaptive")]
        assert adaptive["makespan"] <= one["makespan"], config
        assert adaptive["messages"] <= one["messages"], config
        assert adaptive["chunk_extensions"] >= adaptive["steals"], config
    record(benchmark, "fig16", rows)


def test_fig16_worksteal_straggler(benchmark):
    """Figure 16's shape survives skew.

    Replays the sweep under the shared persistent-skew plan from the DLB
    scenario suite (two 4x stragglers): stealing matters *more* when some
    cores are slow, so the ordering of the four configurations must not
    change, and the balanced configuration still repairs the imbalance
    the stragglers introduce.
    """
    rows = run_once(
        benchmark,
        run_fig16_worksteal,
        bench_fsm_patents(),
        10,  # min_support
        3,  # max_edges
        2,  # workers
        8,  # cores per worker
        steal_policies=("one",),
        fault_plan=straggler_plan(2, 4.0),
    )
    makespan = defaultdict(float)
    for row in rows:
        makespan[row["config"]] += row["makespan_s"]

    assert makespan["2.Internal"] < makespan["1.Disabled"]
    assert makespan["3.External"] < makespan["1.Disabled"]
    assert makespan["4.Internal+External"] <= makespan["2.Internal"]
    assert makespan["4.Internal+External"] <= makespan["3.External"]
    for row in rows:
        if row["config"] == "1.Disabled":
            assert row["steals_internal"] == 0
            assert row["steals_external"] == 0
        if row["config"] == "2.Internal":
            assert row["steals_external"] == 0
        if row["config"] == "3.External":
            assert row["steals_internal"] == 0
    record(benchmark, "fig16_straggler", rows)


def _dlb_row(scenario, graph, policy):
    report = scenario.fractoid(policy, graph).execute(collect="count")
    m = report.metrics
    summary = report.scheduler_summary()
    return {
        "scenario": scenario.name,
        "policy": policy,
        "makespan_s": round(report.simulated_seconds, 6),
        "result_count": report.result_count,
        "steals": m.steals_internal + m.steals_external,
        "steal_messages": m.steal_messages,
        "mean_chunk": round(summary["mean_steal_chunk"], 3),
        "steal_degree_adjustments": m.steal_degree_adjustments,
        "victim_cost_skips": m.victim_cost_skips,
        "adaptive_chunk_mean": round(summary["adaptive_chunk_mean"], 3),
    }


def _dlb_matrix(scenarios):
    rows = []
    for scenario in scenarios:
        graph = scenario.graph()
        rows.extend(_dlb_row(scenario, graph, policy) for policy in POLICIES)
    return rows


def _multiset(scenario, graph, policy):
    report = scenario.fractoid(policy, graph).execute(collect="subgraphs")
    return Counter((s.vertices, s.edges) for s in report.subgraphs)


def _replay(scenario, graph):
    """Everything an adaptive run publishes: counters, clocks, result."""
    report = scenario.fractoid("adaptive", graph).execute(collect="count")
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


def test_adaptive_steal_dlb(benchmark):
    """The adaptive policy beats "one" on every DLB load shape.

    Five skewed shapes (persistent, heavy, rotating and fading
    stragglers, and slow links): the controller must finish each one
    sooner than single-extension stealing, with the same result count,
    the same result multiset, a bit-identical replay, and at least one
    steal-degree adjustment to show the controller moved.
    """
    rows = run_once(benchmark, _dlb_matrix, all_scenarios("quick"))
    by_scenario = defaultdict(dict)
    for row in rows:
        by_scenario[row["scenario"]][row["policy"]] = row
    for name, pair in by_scenario.items():
        one, adaptive = pair["one"], pair["adaptive"]
        assert adaptive["makespan_s"] < one["makespan_s"], name
        assert adaptive["result_count"] == one["result_count"], name
    assert sum(row["steal_degree_adjustments"] for row in rows) >= 1

    smoke = bestdegree("smoke")
    graph = smoke.graph()
    assert _multiset(smoke, graph, "adaptive") == _multiset(smoke, graph, "one")
    assert _replay(smoke, graph) == _replay(smoke, graph)
    record(benchmark, "dlb", rows)
