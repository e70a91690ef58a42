"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/tests -q

Run from the root of a source checkout; ``repro`` is imported from its
``src`` directory.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))
