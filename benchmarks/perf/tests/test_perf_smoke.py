"""The runner end to end at smoke scale."""

import json
import subprocess
import sys
from pathlib import Path

from names import END_TO_END

PERF_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = PERF_DIR.parents[1]


def _smoke(*extra):
    done = subprocess.run(
        [sys.executable, str(PERF_DIR / "run.py"), "--smoke", *extra],
        capture_output=True, text=True, cwd=str(REPO_ROOT), timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    results = {}
    for path in (REPO_ROOT / ".benchmarks" / "perf").glob("result-*.json"):
        result = json.loads(path.read_text())
        results[result["workload"]] = result
    return done.stdout, results


def test_smoke_exits_zero_and_sim_s_ignores_the_hash_seed():
    from workloads import WORKLOAD_NAMES

    stdout, first = _smoke()
    assert set(first) == set(WORKLOAD_NAMES)
    for name, result in first.items():
        assert result["correct"] and result["failed"] == 0, result["failures"]
        assert result["digest_source"].startswith("reference")
        assert f"== {name} " in stdout
    for metric in END_TO_END:
        assert metric.name in stdout
    _, second = _smoke("--hashseed", "123")
    for name in first:
        assert (first[name]["end_to_end"]["sim_s"]
                == second[name]["end_to_end"]["sim_s"]), name


def test_single_workload_prints_the_contract_line_in_both_modes():
    from names import PER_LAYER, UNAVAILABLE_VALUE

    for trace, declared in ((0, END_TO_END), (1, PER_LAYER)):
        stdout, _ = _smoke("--workload", "query-list", "--trace", str(trace))
        line = json.loads(stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert list(line["metrics"]) == [m.name for m in declared]
        for metric in declared:
            entry = line["metrics"][metric.name]
            assert entry["unit"] == metric.unit
            assert isinstance(entry["value"], (int, float))
        if trace:
            metrics = line["metrics"]
            assert metrics["core.freeze_calls"]["value"] > 0
            assert metrics["runtime.mp.fork_s"]["value"] == UNAVAILABLE_VALUE
            assert "unavailable (" in stdout


def test_directory_without_the_program_fails_without_a_result(tmp_path):
    import shutil

    bare = tmp_path / "benchmarks" / "perf"
    shutil.copytree(PERF_DIR, bare, ignore=shutil.ignore_patterns(
        "__pycache__", "tests"))
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "fsm-sim",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=170,
    )
    assert done.returncode != 0
    assert "metrics" not in done.stdout
