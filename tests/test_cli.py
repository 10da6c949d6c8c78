"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "motifs"])
        assert args.dataset == "mico"
        assert args.k == 3
        assert args.workers == 1

    def test_cluster_flags(self):
        args = build_parser().parse_args(
            ["run", "cliques", "--workers", "2", "--cores", "8"]
        )
        assert args.workers == 2
        assert args.cores == 8

    def test_pattern_kernel_defaults(self):
        args = build_parser().parse_args(["run", "query"])
        assert args.pattern_kernel is None  # the fractoid's default kernel
        assert not hasattr(args, "order_policy")

    def test_pattern_kernel_flags(self):
        args = build_parser().parse_args(
            ["run", "query", "--pattern-kernel", "indexed"]
        )
        assert args.pattern_kernel == "indexed"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "query", "--order-policy", "cost"])

    def test_invalid_pattern_kernel_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "query", "--pattern-kernel", "turbo"]
            )


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "mico" in out
        assert "wikidata" in out

    def test_run_cliques(self, capsys):
        assert main(
            ["run", "cliques", "--dataset", "mico", "--scale", "0.3", "--k", "3"]
        ) == 0
        assert "3-cliques" in capsys.readouterr().out

    def test_run_motifs(self, capsys):
        assert main(
            ["run", "motifs", "--dataset", "mico", "--scale", "0.25", "--k", "3"]
        ) == 0
        assert "motifs" in capsys.readouterr().out

    def test_run_fsm(self, capsys):
        assert main(
            [
                "run", "fsm", "--dataset", "mico", "--scale", "0.3",
                "--support", "5", "--max-edges", "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "FSM" in out
        assert "graph reduction after round 1: vertices " in out

    def test_run_query(self, capsys):
        assert main(
            ["run", "query", "--dataset", "mico", "--scale", "0.3",
             "--query", "q1"]
        ) == 0
        out = capsys.readouterr().out
        assert "matches" in out
        assert "pattern kernel: decomposed" in out

    def test_run_query_indexed_kernel(self, capsys):
        base = ["run", "query", "--dataset", "orkut", "--scale", "0.3",
                "--query", "q1"]
        assert main(base + ["--pattern-kernel", "legacy"]) == 0
        legacy_out = capsys.readouterr().out
        assert "pattern kernel: legacy (order [" in legacy_out
        assert main(base + ["--pattern-kernel", "indexed"]) == 0
        indexed_out = capsys.readouterr().out
        assert "pattern kernel: indexed (order [" in indexed_out
        # Same matches line under both kernels.
        assert legacy_out.splitlines()[0] == indexed_out.splitlines()[0]

    def test_run_query_list(self, capsys):
        base = ["run", "query", "--dataset", "orkut", "--scale", "0.3",
                "--query", "q3"]
        assert main(base) == 0
        counted = capsys.readouterr().out
        assert "listing walk off (collect='count' is not a listing)" in counted
        assert main(base + ["--list"]) == 0
        listed = capsys.readouterr().out
        count = counted.splitlines()[0].split()[-2]
        assert listed.splitlines()[0].endswith(f": {count} listed")
        assert f"listing: level walk, {count} matches" in listed

    def test_run_query_indexed_on_cluster(self, capsys):
        assert main(
            ["run", "query", "--dataset", "orkut", "--scale", "0.2",
             "--query", "q1", "--workers", "2", "--cores", "2",
             "--pattern-kernel", "indexed"]
        ) == 0
        out = capsys.readouterr().out
        assert "pattern kernel: indexed (order [" in out

    def test_run_keywords(self, capsys):
        assert main(
            [
                "run", "keywords", "--dataset", "wikidata", "--scale", "0.2",
                "--words", "paris", "revolution",
            ]
        ) == 0
        assert "covers" in capsys.readouterr().out

    def test_run_keywords_requires_words(self):
        with pytest.raises(SystemExit):
            main(["run", "keywords", "--dataset", "wikidata"])

    def test_unknown_dataset(self):
        with pytest.raises(SystemExit):
            main(["run", "cliques", "--dataset", "nope"])

    def test_scale_too_small_for_generator_exits(self):
        # mico's preferential-attachment generator needs more vertices
        # than each new vertex attaches to.
        with pytest.raises(SystemExit, match=r"'mico' at --scale 0\.05"):
            main(["run", "cliques", "--dataset", "mico", "--scale", "0.05"])

    def test_unknown_query(self):
        with pytest.raises(SystemExit):
            main(["run", "query", "--query", "q99", "--scale", "0.2"])

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "nope"])

    def test_run_on_cluster(self, capsys):
        assert main(
            [
                "run", "cliques", "--dataset", "mico", "--scale", "0.3",
                "--k", "3", "--workers", "2", "--cores", "2",
            ]
        ) == 0
        assert "3-cliques" in capsys.readouterr().out


class TestFaultInjection:
    def test_inject_failures_prints_recovery(self, capsys):
        assert main(
            [
                "run", "cliques", "--dataset", "mico", "--scale", "0.3",
                "--k", "3", "--workers", "2", "--cores", "4",
                "--inject-failures", "4",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "3-cliques" in out
        assert "fault injection:" in out
        assert "recovery:" in out
        assert "steal protocol:" in out

    def test_fault_plan_file(self, capsys, tmp_path):
        from repro import FaultPlan

        path = tmp_path / "plan.json"
        FaultPlan.from_seed(4, 2, 4).save(str(path))
        assert main(
            [
                "run", "cliques", "--dataset", "mico", "--scale", "0.3",
                "--k", "3", "--workers", "2", "--cores", "4",
                "--fault-plan", str(path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "3-cliques" in out
        assert "fault injection:" in out

    def test_fault_plan_file_missing(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot load fault plan"):
            main(
                [
                    "run", "cliques", "--workers", "2", "--cores", "2",
                    "--fault-plan", str(tmp_path / "nope.json"),
                ]
            )

    def test_inject_failures_requires_cluster(self):
        with pytest.raises(SystemExit, match="simulated cluster"):
            main(
                [
                    "run", "cliques", "--dataset", "mico", "--scale", "0.3",
                    "--inject-failures", "1",
                ]
            )

    def test_flags_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [
                    "run", "cliques", "--inject-failures", "1",
                    "--fault-plan", "plan.json",
                ]
            )


class TestStealPolicy:
    def test_parser_default(self):
        args = build_parser().parse_args(["run", "cliques"])
        assert args.steal_policy == "one"

    def test_retired_policy_exits(self):
        with pytest.raises(SystemExit, match="'one' or 'adaptive'"):
            main(
                [
                    "run", "cliques", "--dataset", "mico", "--scale", "0.3",
                    "--workers", "2", "--cores", "2",
                    "--steal-policy", "chunk:8",
                ]
            )

    def test_parser_accepts_adaptive(self):
        args = build_parser().parse_args(
            ["run", "cliques", "--steal-policy", "adaptive"]
        )
        assert args.steal_policy == "adaptive"

    def test_invalid_policy_exits(self):
        with pytest.raises(SystemExit, match="invalid cluster configuration"):
            main(
                [
                    "run", "cliques", "--dataset", "mico", "--scale", "0.3",
                    "--workers", "2", "--cores", "2",
                    "--steal-policy", "bogus",
                ]
            )

    def test_invalid_policy_error_names_adaptive(self):
        # The rejection message lists every accepted spelling, so a user
        # who typos the new policy is pointed straight at it.
        with pytest.raises(SystemExit, match="adaptive"):
            main(
                [
                    "run", "cliques", "--dataset", "mico", "--scale", "0.3",
                    "--workers", "2", "--cores", "2",
                    "--steal-policy", "bogus",
                ]
            )

    def test_adaptive_run_reports_controller(self, capsys):
        assert main(
            [
                "run", "cliques", "--dataset", "mico", "--scale", "0.3",
                "--k", "3", "--workers", "2", "--cores", "4",
                "--steal-policy", "adaptive",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "steal policy:" in out
        assert "degree adjustments" in out
        assert "cheaper-victim picks" in out

    def test_scheduler_report_printed(self, capsys):
        assert main(
            [
                "run", "cliques", "--dataset", "mico", "--scale", "0.3",
                "--k", "3", "--workers", "2", "--cores", "4",
                "--steal-policy", "adaptive",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "scheduler:" in out
        assert "steal policy:" in out

    def test_sequential_run_skips_scheduler_report(self, capsys):
        assert main(
            ["run", "cliques", "--dataset", "mico", "--scale", "0.3", "--k", "3"]
        ) == 0
        assert "scheduler:" not in capsys.readouterr().out


class TestVersionFlag:
    def test_version_prints_package_version(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out


class TestBackendFlags:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["run", "motifs"])
        assert args.backend == "auto"
        assert args.num_procs == 2
        assert "partition" not in vars(args)

    def test_invalid_backend_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "motifs", "--backend", "spark"])

    @pytest.mark.parametrize("flag", ["partition"])
    def test_retired_flag_is_a_usage_error(self, flag, capsys):
        # Every simulated worker holds the whole graph; there is no
        # storage placement to choose.
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "motifs", f"--{flag}", "hash"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_parser_mp_supervision_defaults(self):
        args = build_parser().parse_args(["run", "motifs"])
        assert args.worker_timeout == 30.0
        assert args.max_worker_retries == 2

    def test_rejects_zero_procs_with_value_in_message(self):
        with pytest.raises(SystemExit, match="num_procs must be >= 1, got 0"):
            main(["run", "cliques", "--dataset", "mico", "--scale", "0.3",
                  "--backend", "multiprocess", "--num-procs", "0"])

    def test_no_fork_platform_message_is_actionable(self, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        with pytest.warns(RuntimeWarning) as caught:
            assert main(
                ["run", "cliques", "--dataset", "mico", "--scale", "0.3",
                 "--k", "3", "--backend", "multiprocess"]
            ) == 0
        message = str(caught[0].message)
        assert "fork" in message
        assert "--backend simulator" in message

    def test_degradation_is_printed_on_the_stand_in_backend(
        self, monkeypatch, capsys
    ):
        import multiprocessing

        from repro.runtime.mp_backend import fork_unavailable_message

        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        with pytest.warns(RuntimeWarning):
            assert main(
                ["run", "cliques", "--dataset", "mico", "--scale", "0.3",
                 "--k", "3", "--backend", "multiprocess"]
            ) == 0
        out = capsys.readouterr().out
        assert "backend: multiprocess" not in out
        assert (
            f"degraded to sequential ({fork_unavailable_message()})" in out
        )

    def test_motif_table_does_not_depend_on_the_backend(self, capsys):
        # Representatives come from the canonical code and count ties are
        # broken by it, so the printed rows are the same on every engine.
        def rows(*extra):
            assert main(
                ["run", "motifs", "--dataset", "mico", "--scale", "0.2",
                 "--k", "3", *extra]
            ) == 0
            lines = capsys.readouterr().out.splitlines()
            return [line for line in lines if line.startswith("(")]

        sequential = rows()
        assert len(sequential) == 20
        assert rows("--workers", "2", "--cores", "2") == sequential
        assert rows("--backend", "multiprocess", "--num-procs", "2") == sequential

    def test_multiprocess_fault_injection(self, capsys):
        # Real-process failure injection: seeded plan, recovery printed,
        # run still succeeds with correct results.
        assert main(
            ["run", "cliques", "--dataset", "mico", "--scale", "0.3",
             "--k", "3", "--backend", "multiprocess", "--num-procs", "2",
             "--worker-timeout", "5", "--inject-failures", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "3-cliques" in out
        assert "backend: multiprocess (2 procs" in out
        assert "mp recovery:" in out

    def test_multiprocess_fault_plan_file(self, capsys, tmp_path):
        from repro.runtime.faults import FaultPlan, MpWorkerKill

        plan = FaultPlan(
            mp_worker_kills=(MpWorkerKill(worker_id=0, after_chunks=0),)
        )
        path = tmp_path / "plan.json"
        plan.save(str(path))
        assert main(
            ["run", "cliques", "--dataset", "mico", "--scale", "0.3",
             "--k", "3", "--backend", "multiprocess", "--num-procs", "2",
             "--worker-timeout", "5", "--fault-plan", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "mp recovery:" in out
        assert "workers lost" in out

    def test_run_multiprocess(self, capsys):
        assert main(
            ["run", "cliques", "--dataset", "mico", "--scale", "0.3",
             "--k", "3", "--backend", "multiprocess", "--num-procs", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "3-cliques" in out
        assert "backend: multiprocess (2 procs" in out
        assert "s (driver fold " in out and "s cpu)" in out
        assert "worker automaton: " in out
        # A query the driver counted itself forked nothing, and says so
        # instead of printing a start method it never used.
        assert main(
            ["run", "query", "--dataset", "orkut", "--scale", "0.2",
             "--query", "q1", "--backend", "multiprocess"]
        ) == 0
        out = capsys.readouterr().out
        assert "pattern kernel: decomposed" in out
        assert "counted in driver (orbit), no workers forked" in out
        assert "start method ?" not in out

    def test_explicit_simulator_backend(self, capsys):
        # --backend simulator engages the cluster even at 1x1.
        assert main(
            ["run", "cliques", "--dataset", "mico", "--scale", "0.3",
             "--k", "3", "--backend", "simulator"]
        ) == 0
        assert "scheduler:" in capsys.readouterr().out
