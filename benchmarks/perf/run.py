#!/usr/bin/env python3
"""One benchmark for ``execute()``: six workloads, end to end and by layer.

    python3 benchmarks/perf/run.py                     # all six, untraced
    python3 benchmarks/perf/run.py --trace 1           # plus per-layer pass
    python3 benchmarks/perf/run.py --workload fsm-sim --seed 3 --seconds 8
    python3 benchmarks/perf/run.py --check-repeat      # two passes, compared
    python3 benchmarks/perf/run.py --smoke             # tenth scale, 1 rep

Closed loop, one client.  Each workload runs in its own fresh child
process with ``PYTHONHASHSEED`` pinned: set-up, one untimed warm-up
repetition, then the timed repetitions, with ``gc.collect()`` between
repetitions outside the timed region.  See README.md beside this file for
the glossary and how to read the output.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import multiprocessing
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
WORK_DIR = REPO_ROOT / ".benchmarks" / "perf"

from host import calibrate, host_block, host_factor  # noqa: E402
from names import END_TO_END, PER_LAYER, UNAVAILABLE_VALUE  # noqa: E402

DEFAULT_REPS = 5
MIN_REPS = 3
MAX_REPS = 25
TRACED_REPS = 2
# Untraced repetitions kept when a traced pass follows in the same run.
UNTRACED_REPS_WHEN_TRACING = 3
SETUP_MIN_REPEATS = 11
SETUP_MIN_SECONDS = 0.25
IMPORT_SAMPLES = 7
CHILD_TIMEOUT_S = 170


# ----------------------------------------------------------------------
# Child: one workload in this process
# ----------------------------------------------------------------------


def _cpu_seconds() -> float:
    """User+sys CPU of this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _import_seconds() -> float:
    """Median ``import repro`` of fresh interpreters, at reference speed."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import repro; "
        "print(time.perf_counter() - t)"
    )
    samples = []
    calib = calibrate()
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", code, str(SRC_DIR)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        calib_before, calib = calib, calibrate()
        samples.append(float(out.stdout) / host_factor(calib_before, calib))
    return statistics.median(samples)


def _measure_setup(workload, inputs):
    """Repeat what a user does before the first query; keep the graphs."""
    from repro import FractalContext
    from repro.graph.io import load_edge_list

    totals: List[float] = []
    loads: List[float] = []
    builds: List[float] = []
    graphs = {}
    started = time.perf_counter()
    while (
        len(totals) < SETUP_MIN_REPEATS
        or time.perf_counter() - started < SETUP_MIN_SECONDS
    ):
        load_s = build_s = 0.0
        t_start = time.perf_counter()
        for spec in workload.graphs:
            t0 = time.perf_counter()
            graph = load_edge_list(inputs[spec.key]["path"])
            t1 = time.perf_counter()
            graph.csr()
            graph.labeled_adjacency()
            graph.label_stats()
            t2 = time.perf_counter()
            FractalContext().from_graph(graph)
            load_s += t1 - t0
            build_s += t2 - t1
            graphs[spec.key] = graph
        totals.append(time.perf_counter() - t_start)
        loads.append(load_s)
        builds.append(build_s)
    return graphs, {
        "graphs_s": statistics.median(totals),
        "load_s": statistics.median(loads),
        "index_build_s": statistics.median(builds),
        "repeats": len(totals),
        "vertices": sum(g.n_vertices for g in graphs.values()),
        "edges": sum(g.n_edges for g in graphs.values()),
    }


def _result_info(op, result) -> Dict[str, int]:
    if op.kind == "motifs":
        return {"distinct_patterns": len(result)}
    if op.kind == "list":
        return {"distinct_patterns": len({r.pattern for r in result})}
    if op.kind == "fsm":
        return {"distinct_patterns": len(result.frequent),
                "rounds": result.rounds, "frequent": len(result.frequent)}
    return {}


def _mp_problem(workload, reports) -> Optional[str]:
    """A multiprocess call that did not really run on live workers."""
    if workload.engine != "mp":
        return None
    for report in reports:
        summary = report.backend_summary()
        if summary.get("backend") != "multiprocess":
            return f"ran on backend {summary.get('backend')!r}"
        if summary.get("degraded_to"):
            return f"degraded to {summary['degraded_to']}"
        if summary.get("workers_lost"):
            return f"{summary['workers_lost']} workers lost"
    return None


class _Repetition:
    """Runs the workload's call sequence once on a fresh context."""

    def __init__(self, workload, graphs, inputs, expected, tracer=None):
        self.workload = workload
        self.graphs = graphs
        self.inputs = inputs
        self.expected = expected
        self.tracer = tracer
        self.failures: List[str] = []

    def run(self, tag: str, sequential: bool = False) -> Dict[str, object]:
        from digests import digest
        from repro import FractalContext
        from workloads import engine_for, run_op

        workload = self.workload
        if sequential:
            workload = dataclasses.replace(workload, engine="sequential")
        engine = engine_for(workload)
        tracer = self.tracer
        gc.collect()
        context = FractalContext()
        fractal_graphs = {
            key: context.from_graph(graph) for key, graph in self.graphs.items()
        }
        outcomes = []
        op_records = []
        if tracer is not None:
            tracer.tag = tag
        calib_before = calibrate()
        cpu0 = _cpu_seconds()
        start = time.perf_counter()
        for op in workload.ops:
            span = None
            try:
                if tracer is None:
                    outcome = run_op(op, fractal_graphs[op.graph], engine)
                else:
                    with tracer.span(f"apps.{op.name}") as span:
                        outcome = run_op(op, fractal_graphs[op.graph], engine)
            except Exception:
                outcome = None
                self.failures.append(
                    f"{tag} {op.name}: raised\n{traceback.format_exc()}"
                )
            outcomes.append(outcome)
            if span is not None:
                op_records.append(
                    {"name": op.name, "wall": span["end"] - span["start"]}
                )
        wall = time.perf_counter() - start
        cpu = _cpu_seconds() - cpu0
        factor = host_factor(calib_before, calibrate())

        # Everything below is outside the timed region.
        sim = 0.0
        failed = 0
        reports = []
        for i, (op, outcome) in enumerate(zip(workload.ops, outcomes)):
            if tracer is not None:
                op_records[i]["info"] = (
                    _result_info(op, outcome[0]) if outcome is not None else {}
                )
            if outcome is None:
                failed += 1
                continue
            result, op_reports = outcome
            reports.extend(op_reports)
            sim += sum(r.total_seconds for r in op_reports)
            got = digest(
                op, result, self.graphs[op.graph],
                self.inputs[op.graph]["inverse"],
            )
            if got != self.expected[op.name]:
                problem = f"digest {got} != expected {self.expected[op.name]}"
            else:
                problem = _mp_problem(workload, op_reports)
            if problem is not None:
                failed += 1
                self.failures.append(f"{tag} {op.name}: {problem}")
        return {
            "wall": wall / factor, "cpu": cpu / factor, "raw_wall": wall,
            "host_factor": factor, "sim": sim, "failed": failed,
            "attempted": len(workload.ops),
            # Reports pin whole aggregation views; only the traced pass,
            # which reads their counters, keeps them.
            "reports": reports if tracer is not None else [],
            "op_records": op_records,
            "interner": (context.interner.hits, context.interner.misses),
            "tag": tag,
        }


def _mp_blocker(workload, num_procs: int) -> Optional[str]:
    """Why a multiprocess workload cannot run on this host, if it cannot."""
    if workload.engine != "mp":
        return None
    if (os.cpu_count() or 1) < num_procs:
        return f"host has {os.cpu_count()} cpu(s); it needs {num_procs}"
    if "fork" not in multiprocessing.get_all_start_methods():
        return "the fork start method is unavailable on this platform"
    return None


def _timed_repetitions(untraced: "_Repetition", args) -> List[dict]:
    """Warm up once, then repeat for ``--reps`` or ``--seconds``."""
    untraced.run("warm-up")
    timed: List[dict] = []
    while True:
        timed.append(untraced.run(f"rep-{len(timed)}"))
        if args.seconds is None:
            if len(timed) >= args.reps:
                return timed
        elif len(timed) >= MIN_REPS and (
            sum(r["raw_wall"] for r in timed) >= args.seconds
            or len(timed) >= MAX_REPS
        ):
            return timed


def _measure_shm(graphs) -> Dict[str, float]:
    """Direct timing of attaching to a shared copy of the graphs."""
    from repro.graph.shm import SharedGraphBuffers

    shm = {"attach_s": 0.0, "bytes": 0}
    for graph in graphs.values():
        shared = SharedGraphBuffers(graph)
        try:
            t0 = time.perf_counter()
            shared.attach()
            shm["attach_s"] += time.perf_counter() - t0
            shm["bytes"] += shared.nbytes
        finally:
            shared.unlink()
    return shm


def _traced_pass(workload, graphs, inputs, expected, untraced, collected_so_far):
    """Warm-up + TRACED_REPS repetitions under the tracer; returns the
    per-layer metrics and what goes into the result beside them."""
    import layers
    from spans import Tracer

    sequential_run = None
    if workload.engine != "sequential":
        # What the mp speedup and the scheduler overhead are measured
        # against: the same calls on the sequential engine, warmed up.
        untraced.run("sequential-warm-up", sequential=True)
        one = untraced.run("sequential", sequential=True)
        sequential_run = {"wall_s": one["wall"], "cpu_s": one["cpu"]}
    shm = _measure_shm(graphs) if workload.engine == "mp" else None
    tracer = Tracer()
    traced = _Repetition(workload, graphs, inputs, expected, tracer)
    tag_prefix = f"{workload.name}/traced-"
    tracer.install()
    try:
        traced.run(f"{workload.name}/warm-up")
        traced_reps = [traced.run(f"{tag_prefix}{i}") for i in range(TRACED_REPS)]
    finally:
        tracer.uninstall()
    per_layer = layers.compute(layers.Collected(
        tracer=tracer, traced_reps=traced_reps, shm=shm,
        sequential_run=sequential_run, **collected_so_far,
    ))
    trace_path = WORK_DIR / f"trace-{workload.name}.json"
    tracer.dump(trace_path, host_factors={
        r["tag"]: r["host_factor"] for r in traced_reps
    })
    return {
        "per_layer": {
            m.name: (
                {"value": None, "reason": str(per_layer[m.name])}
                if isinstance(per_layer[m.name], layers.Unavailable)
                else {"value": per_layer[m.name]}
            )
            for m in PER_LAYER
        },
        "self_time_share": layers.self_time_share(
            tracer, tag_prefix, sum(r["raw_wall"] for r in traced_reps)
        ),
        "missing_seams": tracer.missing,
        "trace_file": str(trace_path.relative_to(REPO_ROOT)),
    }, traced.failures


def run_child(args) -> int:
    import digests
    import workloads

    workload = workloads.by_name(args.workload[0])
    blocker = _mp_blocker(workload, workloads.NUM_PROCS)
    if blocker is not None:
        print(f"error: {workload.name} cannot run: {blocker}", file=sys.stderr)
        return 3

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    inputs = {
        spec.key: workloads.build_input(spec, args.seed, WORK_DIR, args.smoke)
        for spec in workload.graphs
    }
    failures = digests.oracle_check(workload)
    setup_calib = calibrate()
    graphs, setup = _measure_setup(workload, inputs)
    setup["host_factor"] = host_factor(setup_calib, calibrate())
    for key in ("graphs_s", "load_s", "index_build_s"):
        setup[key] /= setup["host_factor"]
    setup["import_s"] = _import_seconds()
    expected = digests.expected_digests(workload, inputs, graphs, args.smoke)

    # ---- untraced pass: the end-to-end numbers ----------------------
    untraced = _Repetition(workload, graphs, inputs, expected["ops"])
    timed = _timed_repetitions(untraced, args)
    walls = [r["wall"] for r in timed]
    sims = {r["sim"] for r in timed}
    if len(sims) != 1:
        failures.append(f"sim_s differs between repetitions: {sorted(sims)}")
    # Read before the traced pass and the sequential comparison run, so
    # neither can raise the high-water mark.
    worker_rss = _rss_mb(resource.RUSAGE_CHILDREN) if workload.engine == "mp" else 0.0
    end_to_end = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(r["cpu"] for r in timed),
        "setup_s": setup["graphs_s"] + setup["import_s"],
        "peak_rss_mb": (
            _rss_mb(resource.RUSAGE_SELF) + workloads.NUM_PROCS * worker_rss
        ),
        "sim_s": timed[0]["sim"],
    }
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "digest_source": expected["source"],
        "end_to_end": end_to_end,
        "wall_min": min(walls), "wall_max": max(walls), "reps": len(walls),
        "raw_wall_s": statistics.median(r["raw_wall"] for r in timed),
        "host_factor": statistics.median(r["host_factor"] for r in timed),
        "attempted": sum(r["attempted"] for r in timed),
        "failed": sum(r["failed"] for r in timed),
        "setup": setup,
    }

    # ---- traced pass: the per-layer numbers -------------------------
    if args.trace:
        traced_result, traced_failures = _traced_pass(
            workload, graphs, inputs, expected["ops"], untraced,
            dict(engine=workload.engine, num_procs=workloads.NUM_PROCS,
                 untraced_walls=walls, untraced_cpu_s=end_to_end["cpu_s"],
                 setup=setup, worker_peak_rss_mb=worker_rss),
        )
        result.update(traced_result)
        failures += traced_failures

    # Warm-up and sequential-comparison failures count against
    # ``correct``, not against the timed operations' ``failed``.
    result["failures"] = failures + untraced.failures
    result["correct"] = not result["failures"]
    Path(args.result).write_text(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# Parent: spawn children, print, compare
# ----------------------------------------------------------------------


def _spawn(name: str, args) -> Optional[dict]:
    """Run one workload in a fresh interpreter; None if it did not finish."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    result_path = WORK_DIR / f"result-{name}.json"
    result_path.unlink(missing_ok=True)
    command = [
        sys.executable, str(PERF_DIR / "run.py"), "--child",
        "--workload", name, "--seed", str(args.seed),
        "--trace", str(args.trace), "--result", str(result_path),
    ]
    if args.smoke:
        command.append("--smoke")
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    else:
        command += ["--reps", str(args.reps)]
    env = dict(os.environ, PYTHONHASHSEED=str(args.hashseed))
    calib_before = calibrate()
    # Own session, so a timeout can take the workers down with the child.
    child = subprocess.Popen(command, env=env, start_new_session=True)
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        print(f"error: {name} exceeded {CHILD_TIMEOUT_S}s", file=sys.stderr)
        return None
    if code != 0 or not result_path.exists():
        print(f"error: {name} exited with code {code}", file=sys.stderr)
        return None
    result = json.loads(result_path.read_text())
    result["host.calib_s"] = {"before": calib_before, "after": calibrate()}
    return result


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def _print_workload(result: dict) -> None:
    e2e = result["end_to_end"]
    print(f"\n== {result['workload']} (seed {result['seed']}, "
          f"digests: {result['digest_source']}) ==")
    for metric in END_TO_END:
        extra = ""
        if metric.name == "wall_s":
            extra = (f"  (min {result['wall_min']:.4f}, max "
                     f"{result['wall_max']:.4f}, n={result['reps']})")
        print(f"  {metric.name:<14}{e2e[metric.name]:>12.4f} {metric.unit:<6}"
              f" bound +{metric.bound:.0%}{extra}")
    share = result["failed"] / result["attempted"]
    print(f"  {'failed_share':<14}{share:>12.4f} {'ratio':<6} bound +0%"
          f"  ({result['failed']} failed / {result['attempted']} attempted)")
    calib = result["host.calib_s"]
    print(f"  {'host.calib_s':<14}{calib['before']:>12.4f} s      "
          f"after {calib['after']:.4f}; host factor {result['host_factor']:.3f} "
          f"(raw wall {result['raw_wall_s']:.4f} s)")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    if "per_layer" in result:
        print(f"  -- per layer (per repetition; trace: {result['trace_file']}; "
              f"self times sum to {result['self_time_share']:.1%} of traced wall)")
        for metric in PER_LAYER:
            entry = result["per_layer"][metric.name]
            if entry["value"] is None:
                shown = f"unavailable ({entry['reason']})"
            else:
                shown = f"{_fmt(entry['value'])} {metric.unit}"
            print(f"  {metric.name:<38}{shown}")


def _run_pass(names, args) -> Optional[Dict[str, dict]]:
    results = {}
    for name in names:
        result = _spawn(name, args)
        if result is None:
            return None
        results[name] = result
    return results


def _fill_costmodel_qerror(results: Dict[str, dict]) -> None:
    """The one per-layer metric that compares the six workloads."""
    from layers import costmodel_qerror
    from workloads import WORKLOAD_NAMES

    if len(results) == len(WORKLOAD_NAMES) and all(
        "per_layer" in r for r in results.values()
    ):

        ns = {
            name: r["per_layer"]["runtime.costmodel.ns_per_unit"]["value"]
            for name, r in results.items()
        }
        for name, q in costmodel_qerror(ns).items():
            results[name]["per_layer"]["runtime.costmodel.qerror"] = {"value": q}


def _contract_line(result: dict, trace: int) -> str:
    if trace:
        metrics = {}
        for metric in PER_LAYER:
            value = result["per_layer"][metric.name]["value"]
            metrics[metric.name] = {
                "value": UNAVAILABLE_VALUE if value is None else value,
                "unit": metric.unit,
            }
    else:
        metrics = {
            metric.name: {"value": result["end_to_end"][metric.name],
                          "unit": metric.unit}
            for metric in END_TO_END
        }
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def _check_repeat(first: Dict[str, dict], second: Dict[str, dict]) -> bool:
    print("\n== check-repeat: second pass against the first ==")
    ok = True
    for name in first:
        for metric in END_TO_END:
            a = first[name]["end_to_end"][metric.name]
            b = second[name]["end_to_end"][metric.name]
            if metric.name == "sim_s":
                good = a == b
                verdict = "bit-equal" if good else "DIFFERS (must repeat exactly)"
            else:
                good = (b - a) / a <= metric.bound
                verdict = "ok" if good else "EXCEEDS"
            ok = ok and good
            print(f"  {name:<15}{metric.name:<13}{a:>12.4f}{b:>12.4f}"
                  f"  {(b - a) / a:+8.2%}  bound +{metric.bound:.0%}  {verdict}")
        for result in (first[name], second[name]):
            ok = ok and result["correct"]
    return ok


def main(argv=None) -> int:
    if not (SRC_DIR / "repro").is_dir():
        print(f"error: {SRC_DIR / 'repro'} not found; the benchmark runs the "
              "program from the repository's source", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    from workloads import WORKLOAD_NAMES

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=0,
                        help="draws each input's relabeling")
    parser.add_argument("--seconds", type=float, default=None,
                        help="keep repeating until this much time is measured "
                             f"(at least {MIN_REPS} repetitions)")
    parser.add_argument("--reps", type=int, default=DEFAULT_REPS,
                        help="timed repetitions when --seconds is not given")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 adds the traced pass and per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tenth-scale inputs, one repetition")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run the untraced pass twice and compare")
    parser.add_argument("--hashseed", type=int, default=0,
                        help="PYTHONHASHSEED of the workload processes")
    parser.add_argument("--record-golden", action="store_true",
                        help="recompute golden.json on the reference path "
                             "(after an intended change of results or sizes)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.reps < 1 or (args.seconds is not None and args.seconds <= 0):
        parser.error("--reps and --seconds must be positive")

    if args.child:
        return run_child(args)
    if args.record_golden:
        import digests

        digests.record_golden()
        return 0

    if args.smoke:
        args.seconds, args.reps = None, 1
    elif args.trace and args.seconds is not None:
        # The traced pass follows in the same process; cap the untraced one.
        args.seconds, args.reps = None, UNTRACED_REPS_WHEN_TRACING
    names = args.workload or list(WORKLOAD_NAMES)
    host = host_block(REPO_ROOT)
    print("== host == " + "  ".join(f"{k}={v}" for k, v in host.items()))

    started = time.perf_counter()
    results = _run_pass(names, args)
    if results is None:
        return 1
    _fill_costmodel_qerror(results)
    for result in results.values():
        _print_workload(result)
    seq, mp = results.get("motifs-ml-seq"), results.get("motifs-ml-mp2")
    if seq and mp:
        ratio = seq["end_to_end"]["wall_s"] / mp["end_to_end"]["wall_s"]
        print(f"\nmp_speedup (not gated) = wall_s(motifs-ml-seq) / "
              f"wall_s(motifs-ml-mp2) = {ratio:.3f}")
    ok = True
    if args.check_repeat:
        second = _run_pass(names, args)
        if second is None:
            return 1
        ok = _check_repeat(results, second)
    print(f"\ntotal {time.perf_counter() - started:.1f}s; "
          f"load_1min now {os.getloadavg()[0]:.2f}")
    if len(names) == 1:
        print(_contract_line(results[names[0]], args.trace))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
