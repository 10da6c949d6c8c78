"""The host block printed with every result: which machine, how busy.

Commit, dirty flag and ``host_cpus`` come from the repository's
``benchmarks/bench_schema.py`` (read-only reuse); outside a git checkout
they read ``unknown``, as that module documents.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict

CALIB_ITERATIONS = 3_000_000
# What the loop takes on the reference host (2-cpu Xeon @ 2.1 GHz VM) when
# nothing else competes for the core.  Timings are reported at this speed.
CALIB_REFERENCE_S = 0.07


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed right now.

    Timed before and after each workload so a slow or busy host shows
    beside the numbers it produced.
    """
    start = time.perf_counter()
    total = 0
    for i in range(CALIB_ITERATIONS):
        total += i & 7
    return time.perf_counter() - start


def host_factor(*calibrations: float) -> float:
    """How much slower than the reference speed the host was running.

    The reference host is a shared VM whose speed swings by a third over
    seconds to minutes (a neighbour on the sibling hardware thread), far
    more than any regression bound.  The swing is multiplicative and hits
    the calibration loop and the workloads alike, so dividing a timing by
    the factor measured right around it removes most of it (quartile
    spread of 5-repetition medians: 10-16% raw, 5% divided).
    """
    return sum(calibrations) / len(calibrations) / CALIB_REFERENCE_S


def host_block(repo_root: Path) -> Dict[str, object]:
    block: Dict[str, object] = {
        "commit": "unknown",
        "git_dirty": "unknown",
        "host_cpus": os.cpu_count() or 1,
        "python": platform.python_version(),
        "load_1min": os.getloadavg()[0],
    }
    sys.path.insert(0, str(repo_root / "benchmarks"))
    try:
        import bench_schema
    except ImportError:
        return block
    finally:
        sys.path.pop(0)
    header = bench_schema.make_header("perf", {}, "")
    for key in ("commit", "git_dirty", "host_cpus"):
        block[key] = header[key]
    return block
