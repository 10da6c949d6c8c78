"""Ablations of Fractal's design choices (DESIGN.md §3, E14-style extras).

Four ablations isolate individual mechanisms:

* custom enumerators: KClist vs the generic Listing 2 cliques program;
* transparent graph reduction inside FSM (on/off, same results);
* ODAG compression vs verbatim embedding storage in the BFS baseline;
* sampled enumeration: accuracy/work trade-off over the sampling
  probability (Appendix B).
"""

from repro import FractalContext
from repro.apps import (
    approximate_motifs,
    cliques_fractoid,
    cliques_optimized_fractoid,
    fsm,
    motifs,
    sampled_vfractoid,
)
from repro.baselines import BFSConfig, arabesque_run
from repro.harness import bench_mico, print_table
from repro.harness.configs import bench_fsm_patents

from conftest import record, run_once


def test_ablation_kclist_enumerator(benchmark):
    """The custom enumerator removes canonicality scans from cliques."""

    def run():
        graph = bench_mico()
        generic = cliques_fractoid(
            FractalContext().from_graph(graph), 4
        ).execute(collect="count")
        optimized = cliques_optimized_fractoid(
            FractalContext().from_graph(graph), 4
        ).execute(collect="count")
        return generic, optimized

    generic, optimized = run_once(benchmark, run)
    assert optimized.result_count == generic.result_count
    ratio = generic.metrics.extension_tests / optimized.metrics.extension_tests
    # The DAG-guided search space is dramatically smaller.
    assert ratio > 3.0
    print_table(
        ["implementation", "EC", "simulated"],
        [
            ("generic (Listing 2)", generic.metrics.extension_tests,
             f"{generic.simulated_seconds:.2f}s"),
            ("KClist (Listing 7)", optimized.metrics.extension_tests,
             f"{optimized.simulated_seconds:.2f}s"),
        ],
        title=f"Ablation — custom enumerator (EC ratio {ratio:.1f}x)",
    )
    record(benchmark, "kclist_ec_ratio", ratio)


def test_ablation_fsm_graph_reduction(benchmark):
    """Transparent reduction cuts FSM extension cost, results unchanged."""

    def run():
        # The support sits inside the single-edge support range (23-52 on
        # this stand-in) so some edges are actually infrequent — only then
        # does the transparent reduction have anything to drop.
        graph = bench_fsm_patents()

        def arm(**options):
            return fsm(
                FractalContext().from_graph(graph),
                min_support=35,
                max_edges=3,
                **options,
            )

        # Capped domains cannot name the vertices to keep, so exact=False
        # is the run that reduces once, after the bootstrap; its walk is
        # the exact one's (only the aggregated values are capped).
        return arm(reduce_input=False), arm(exact=False), arm()

    plain, bootstrap_only, per_round = run_once(benchmark, run)
    assert plain.reductions is None
    assert [r.round for r in bootstrap_only.reductions] == [1]
    assert [r.round for r in per_round.reductions] == [1, 2]
    frequent = {p: s.support for p, s in plain.frequent.items()}
    assert frequent == {p: s.support for p, s in per_round.frequent.items()}
    assert set(frequent) == set(bootstrap_only.frequent)

    def extension_cost(result):
        return sum(r.metrics.extension_tests for r in result.reports)

    ec_plain = extension_cost(plain)
    ec_bootstrap = extension_cost(bootstrap_only)
    ec_per_round = extension_cost(per_round)
    assert ec_per_round < ec_bootstrap < ec_plain
    record(
        benchmark,
        "fsm_reduction",
        {
            "ec_plain": ec_plain,
            "ec_bootstrap_only": ec_bootstrap,
            "ec_reduced": ec_per_round,
        },
    )


def test_ablation_odag_compression(benchmark):
    """ODAGs compress the BFS baseline's level state substantially."""

    def run():
        graph = bench_mico(scale=0.5)
        fractoid = FractalContext().from_graph(graph).vfractoid().expand(3)
        with_odag = arabesque_run(fractoid, config=BFSConfig(use_odag=True))
        without = arabesque_run(
            FractalContext().from_graph(graph).vfractoid().expand(3),
            config=BFSConfig(use_odag=False),
        )
        return with_odag, without

    with_odag, without = run_once(benchmark, run)
    assert not with_odag.oom and not without.oom
    assert with_odag.result_count == without.result_count
    # Compressed level state is smaller than verbatim storage.
    assert with_odag.peak_memory_bytes < without.peak_memory_bytes
    levels = with_odag.details["levels"]
    deepest = levels[-1]
    assert deepest.odag_bytes < deepest.uncompressed_bytes
    record(
        benchmark,
        "odag",
        {
            "compressed": with_odag.peak_memory_bytes,
            "verbatim": without.peak_memory_bytes,
        },
    )


def test_ablation_sampling_tradeoff(benchmark):
    """Higher sampling probability: more work, tighter estimates."""

    def run():
        graph = bench_mico(scale=0.5)
        truth = motifs(FractalContext().from_graph(graph), 3)
        true_total = sum(truth.values())
        rows = []
        for probability in (0.3, 0.6, 0.9):
            report = sampled_vfractoid(
                FractalContext().from_graph(graph), probability, seed=5
            ).expand(3).execute(collect="count")
            estimates = approximate_motifs(
                FractalContext().from_graph(graph), 3, probability, seed=5
            )
            estimated_total = sum(estimates.values())
            rows.append(
                {
                    "p": probability,
                    "work": report.metrics.extension_tests,
                    "relative_error": abs(estimated_total - true_total)
                    / true_total,
                }
            )
        return rows

    rows = run_once(benchmark, run)
    work = [r["work"] for r in rows]
    assert work[0] < work[1] < work[2]
    # The finest sampling is close to the truth.
    assert rows[-1]["relative_error"] < 0.25
    print_table(
        ["probability", "extension tests", "relative error"],
        [
            (r["p"], r["work"], f"{r['relative_error']:.1%}")
            for r in rows
        ],
        title="Ablation — sampled enumeration trade-off",
    )
    record(benchmark, "sampling", rows)
