"""Measure how steady the benchmark's end-to-end metrics are.

    python3 perfbench/steadiness.py --seeds 10 --out set1.json

Run from the root of a source checkout.  Runs ``run.py --trace 0`` once
per (seed, workload), for ``run_seconds`` of ``BENCHMARK.json``, seed by
seed with every workload interleaved, so that host drift over minutes
reaches every workload alike.  For each workload and metric it prints
the median of the runs and the spread: the distance between the first
and third quartiles (``statistics.quantiles(values, n=4)``) as a share
of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {done.stdout}")
    return {name: metric["value"]
            for name, metric in result["metrics"].items()}


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    seconds = json.loads(
        (Path.cwd() / "BENCHMARK.json").read_text())["run_seconds"]
    runs: dict[str, list[dict]] = {workload: [] for workload in WORKLOADS}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for workload in WORKLOADS:
            runs[workload].append(run_once(workload, seed, seconds))
            print(f"seed {seed} {workload}: {runs[workload][-1]}",
                  flush=True)
    report = {workload: {name: summary([run[name] for run in rows])
                         for name in rows[0]}
              for workload, rows in runs.items()}
    for workload, metrics in report.items():
        for name, stats in metrics.items():
            print(f"{workload:10s} {name:12s} median {stats['median']:.4f} "
                  f"spread {stats['spread']:.4f}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
