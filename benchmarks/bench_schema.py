"""Common schema for checked-in ``BENCH_*.json`` result files.

Every benchmark result file carries the same header block so the
trajectory of performance numbers across PRs is machine-readable:

``schema_version``
    Integer, bumped on incompatible header changes.
``bench``
    Short benchmark name (``mp_backend``, ``fault_recovery``, ...).
``commit``
    The git commit the numbers were measured at (``HEAD`` at write
    time; ``unknown`` outside a git checkout).
``config``
    The knobs that shaped the run — mode, reps, cluster shape — as a
    flat JSON object.
``headline``
    One human-readable sentence with the benchmark's key number.
``host_cpus``
    (schema v2) ``os.cpu_count()`` of the measuring host — parallel
    speedups are meaningless without it.
``git_dirty``
    (schema v2) whether the working tree had uncommitted changes when
    the numbers were written (``true``/``false``), or the string
    ``"unknown"`` for files retrofitted from schema v1 where the
    information was never recorded.

Benchmark scripts call :func:`make_header` and merge the result into
their payload before writing; :mod:`benchmarks.bench_index` reads the
headers back to print the one-line-per-file trajectory summary.
"""

from __future__ import annotations

import json
import os
import subprocess
from pathlib import Path
from typing import Dict, Optional

SCHEMA_VERSION = 2
# Every schema version bench_index knows how to read.  load_bench
# rejects files claiming any other version — a header that merely *has*
# a ``schema_version`` key is not enough, its value must be one the
# tooling understands, or the trajectory summary would silently
# misrender future/corrupt files.  v2 added ``host_cpus``/``git_dirty``;
# v1 files remain readable (the fields are simply absent).
KNOWN_SCHEMA_VERSIONS = frozenset({1, 2})
REPO_ROOT = Path(__file__).resolve().parent.parent

__all__ = [
    "SCHEMA_VERSION",
    "KNOWN_SCHEMA_VERSIONS",
    "current_commit",
    "current_git_dirty",
    "make_header",
    "result_path",
    "load_bench",
    "iter_bench_files",
]


def current_commit() -> str:
    """Short hash of HEAD, or ``unknown`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(REPO_ROOT),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


def current_git_dirty():
    """Whether the working tree has uncommitted changes.

    ``True``/``False`` from ``git status --porcelain``; the string
    ``"unknown"`` when git is unavailable or errors.
    """
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=str(REPO_ROOT),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return bool(out.stdout.strip())


def make_header(
    bench: str,
    config: Dict[str, object],
    headline: str,
    commit: Optional[str] = None,
) -> Dict[str, object]:
    """The common header block, ready to merge into a result payload."""
    return {
        "schema_version": SCHEMA_VERSION,
        "bench": bench,
        "commit": commit if commit is not None else current_commit(),
        "config": config,
        "headline": headline,
        "host_cpus": os.cpu_count() or 1,
        "git_dirty": current_git_dirty(),
    }


def result_path(bench: str, smoke: bool) -> Path:
    """Where a run writes its result file when no ``--out`` is given.

    A full run records ``BENCH_<bench>.json`` at the repository root.  A
    smoke run is a check, not a record: it writes the same file under the
    gitignored ``.benchmarks/`` and leaves the checked-in one as it was.
    """
    name = f"BENCH_{bench}.json"
    if not smoke:
        return REPO_ROOT / name
    scratch = REPO_ROOT / ".benchmarks"
    scratch.mkdir(exist_ok=True)
    return scratch / name


def load_bench(path: Path) -> Dict[str, object]:
    """Load one result file, validating the schema header.

    Raises ``ValueError`` when header fields are absent, when
    ``schema_version`` is not a version this tooling knows
    (:data:`KNOWN_SCHEMA_VERSIONS`), or when a header field has the
    wrong shape — so off-schema files fail loudly in ``bench_index``
    and CI instead of printing garbage trajectory lines.
    """
    data = json.loads(Path(path).read_text())
    missing = [
        key
        for key in ("schema_version", "bench", "commit", "config", "headline")
        if key not in data
    ]
    if missing:
        raise ValueError(f"{path}: missing header fields {missing}")
    version = data["schema_version"]
    if version not in KNOWN_SCHEMA_VERSIONS:
        raise ValueError(
            f"{path}: unknown schema_version {version!r} "
            f"(known: {sorted(KNOWN_SCHEMA_VERSIONS)})"
        )
    for key in ("bench", "commit", "headline"):
        if not isinstance(data[key], str) or not data[key]:
            raise ValueError(
                f"{path}: header field {key!r} must be a non-empty "
                f"string, got {data[key]!r}"
            )
    if not isinstance(data["config"], dict):
        raise ValueError(
            f"{path}: header field 'config' must be a JSON object, "
            f"got {type(data['config']).__name__}"
        )
    if version >= 2:
        cpus = data.get("host_cpus")
        if not isinstance(cpus, int) or isinstance(cpus, bool) or cpus < 1:
            raise ValueError(
                f"{path}: schema v{version} requires 'host_cpus' to be "
                f"a positive integer, got {cpus!r}"
            )
        dirty = data.get("git_dirty")
        if not isinstance(dirty, bool) and dirty != "unknown":
            raise ValueError(
                f"{path}: schema v{version} requires 'git_dirty' to be "
                f"a boolean or \"unknown\", got {dirty!r}"
            )
    return data


def iter_bench_files(root: Optional[Path] = None):
    """All checked-in ``BENCH_*.json`` paths, sorted by name."""
    base = Path(root) if root is not None else REPO_ROOT
    return sorted(base.glob("BENCH_*.json"))
