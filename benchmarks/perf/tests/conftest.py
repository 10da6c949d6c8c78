"""Self-tests of the benchmark (``pytest benchmarks/perf/tests``).

Not part of the tier-1 suite: ``pyproject.toml`` collects ``tests/`` only.
"""

import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = PERF_DIR.parents[1]

for path in (REPO_ROOT / "src", PERF_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
