"""The vocabulary: names, limits, and BENCHMARK.json agreeing with it."""

import json
import re
from pathlib import Path

from names import END_TO_END, PER_LAYER
from spans import SEAM_NAMES

REPO_ROOT = Path(__file__).resolve().parents[3]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_names_and_units_are_well_formed_and_unique():
    from workloads import WORKLOAD_NAMES

    metric_names = [m.name for m in END_TO_END + PER_LAYER]
    for name in list(WORKLOAD_NAMES) + metric_names + list(SEAM_NAMES):
        assert NAME.match(name), name
    for metric in END_TO_END + PER_LAYER:
        assert UNIT.match(metric.unit), metric
        assert metric.better in ("lower", "higher"), metric
    assert len(set(metric_names)) == len(metric_names)
    assert len(set(WORKLOAD_NAMES)) == len(WORKLOAD_NAMES) == 6
    assert 1 <= len(END_TO_END) <= 16
    assert 1 <= len(PER_LAYER) <= 128


def test_bounds_and_setup_metric():
    for metric in END_TO_END:
        assert 0 < metric.bound <= 0.25, metric
    setup = next(m for m in END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in END_TO_END)


def test_benchmark_json_matches_the_declarations():
    from workloads import WORKLOADS

    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/perf"]
    assert spec["command"] == ["python3", "benchmarks/perf/run.py"]
    assert [w["name"] for w in spec["workloads"]] == [w.name for w in WORKLOADS]
    for entry in spec["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
