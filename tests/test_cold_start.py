"""The runtime never loads scipy, nor an unused commit protocol.

scipy is a test-only dependency: importing it costs a fresh interpreter
about a second, so nothing a simulation, figure, CLI or verify run
imports may pull it in.  Likewise an optimistic run must not import the
``2pc`` or ``epoch`` modules (set-up time).  The checks run in a fresh
interpreter, because this test process has both loaded already.
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


PROTOCOL_PROBE = """
import sys

from repro.experiments import runner

runner.run_single("queue-length", 12.0,
                  settings=runner.RunSettings(scale=0.02))
print(",".join(sorted(name for name in sys.modules
                      if name.startswith("repro.hybrid.protocols"))))
"""


def test_optimistic_run_does_not_load_other_protocols():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run([sys.executable, "-c", PROTOCOL_PROBE],
                               env=env, capture_output=True, text=True,
                               timeout=120, check=True)
    assert completed.stdout.strip() == "", (
        f"protocol modules loaded: {completed.stdout.strip()}")
