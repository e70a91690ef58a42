"""The runtime never loads scipy.

scipy is a test-only dependency: importing it costs a fresh interpreter
about a second, so nothing a simulation, figure, CLI or verify run
imports may pull it in.  The check runs in a fresh interpreter, because
this test process has scipy loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys

import repro
import repro.experiments.cli
import repro.obs.bench
import repro.verify.cli
from repro.experiments import runner
from repro.sim import ReplicationSummary

summary = ReplicationSummary()
for seed in (1, 2):
    result = runner.run_single(
        "queue-length", 12.0,
        settings=runner.RunSettings(scale=0.02, base_seed=seed))
    summary.add_replication(result.mean_response_time)
interval = summary.interval(0.95)
assert interval.half_width > 0.0, interval
loaded = sorted(name for name in sys.modules
                if name == "scipy" or name.startswith("scipy."))
print(",".join(loaded))
"""


def test_runtime_imports_and_interval_do_not_load_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run([sys.executable, "-c", PROBE], env=env,
                               capture_output=True, text=True, timeout=120,
                               check=True)
    assert completed.stdout.strip() == "", (
        f"scipy modules loaded at runtime: {completed.stdout.strip()}")
