"""Benchmark configuration: run the files under ``benchmarks/`` without
installing the package (they are named explicitly, e.g.
``pytest benchmarks/bench_claims.py``; bare ``pytest`` does not collect them).
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
