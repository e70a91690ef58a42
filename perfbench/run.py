"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload figure --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; ``repro`` is imported from its
``src`` directory.  With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``); with ``--trace 1`` it carries the per-layer metrics of
a traced run instead.  Every timing is the CPU time of the timed code
reported at the nominal reference speed (see :mod:`reference`); the
raw seconds and the reference gauge's chunk time are printed above it
for audit.  Exit status is non-zero, with no JSON line, when the
program cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
from spans import Recorder, patched  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fresh-interpreter set-up probes per run.  The median shrugs off the
#: first probe of a fresh checkout, which also writes the bytecode cache.
SETUP_PROBES = 3
#: Repetitions (with ``--trace 1``: plain and traced pairs) timed at
#: least, whatever ``--seconds`` says, by ``--trace``.
MIN_REPETITIONS = {0: 3, 1: 2}
#: Horizon of the pure-kernel probe behind ``engine.ns_per_event``.
KERNEL_PROBE_HORIZON = 300.0


class Tally:
    """Operations attempted and failed, with the reasons."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        stored = checks.load_fingerprints()
        self.expected = (stored.get(workload.name)
                         if seed == checks.DEFAULT_SEED else None)
        self.first: list | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, reason: str, operations: int = 1) -> None:
        self.failures.append(reason)
        self.failed += operations

    def settle(self, records, raised: BaseException | None) -> None:
        """Account one repetition's simulations."""
        simulations = self.workload.simulations
        self.attempted += max(len(records), simulations)
        failures = checks.unit_failures(records, self.expected, self.first)
        for failure in failures:
            self.fail(failure)
        missing = simulations - len(records)
        if missing > 0:
            self.fail(f"{missing} simulation(s) not run"
                      + (f": repetition raised {raised!r}" if raised
                         else ""), missing)
        if self.first is None and not failures and missing <= 0:
            self.first = [record.fingerprint for record in records]


def measure_setup(src: Path, seed: int, probes: int, log) -> dict:
    """Median adjusted seconds of ``probes`` fresh-interpreter set-ups."""
    command = [sys.executable, str(HERE / "setup_probe.py"), str(src),
               str(seed)]

    def probe() -> dict:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=120, check=True)
        return json.loads(done.stdout.strip().splitlines()[-1])

    rows = []
    for index in range(probes):
        raw = probe()
        chunk_s = raw.pop("chunk_s")
        rows.append({key: reference.adjust(value, chunk_s)
                     for key, value in raw.items()})
        log(f"setup probe {index}: import {raw['import_s']:.4f} s, build "
            f"{raw['build_s']:.4f} s raw CPU; reference chunk "
            f"{chunk_s * 1e6:.1f} us; adjusted total "
            f"{sum(rows[-1].values()):.4f} s")
    return {
        "setup_s": statistics.median(sum(row.values()) for row in rows),
        "setup.import_s": statistics.median(row["import_s"] for row in rows),
        "setup.build_s": statistics.median(row["build_s"] for row in rows),
    }


class Repeater:
    """Times repetitions of one workload unit beside a reference gauge."""

    def __init__(self, workload, seed: int, tally: Tally, log):
        self.workload = workload
        self.seed = seed
        self.tally = tally
        self.log = log
        self.ledger = checks.Ledger()

    def once(self, label: str, recorder: Recorder | None = None):
        """One checked repetition: (adjusted seconds, gauge, records)."""
        gc.collect()
        self.ledger.records.clear()
        self.ledger.check_s = 0.0
        raised = None
        with patched(self.ledger.targets()), \
                patched(layers.span_targets(recorder) if recorder else ()), \
                reference.Gauge() as gauge:
            began = time.thread_time()
            try:
                self.workload.unit(self.seed)
            except Exception as exc:  # reported as failed operations
                raised = exc
            # The output check's own time is not the program's.
            raw = time.thread_time() - began - self.ledger.check_s
        adjusted = gauge.adjust(raw)
        self.log(f"{label}: raw {raw:.4f} s CPU (output check "
                 f"{self.ledger.check_s:.4f} s excluded); reference chunk "
                 f"{gauge.chunk_s * 1e6:.1f} us x {gauge.chunks}; adjusted "
                 f"{adjusted:.4f} s")
        records = list(self.ledger.records)
        self.tally.settle(records, raised)
        return adjusted, gauge, records


def kernel_ns_per_event(log) -> float:
    """Adjusted nanoseconds per event of the pure-kernel mix."""
    from repro.obs import bench

    with reference.Gauge() as gauge:
        began = time.thread_time()
        env = bench.kernel_workload(horizon=KERNEL_PROBE_HORIZON)
        raw = time.thread_time() - began
    events = env.events_processed
    log(f"kernel probe: {events} events in {raw:.4f} s raw CPU; reference "
        f"chunk {gauge.chunk_s * 1e6:.1f} us")
    return gauge.adjust(raw) / events * 1e9


def run(workload_name: str, seed: int, seconds: float, trace: int,
        log=print) -> dict:
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no repro package under {src}")
    sys.path.insert(0, str(src))
    workload = WORKLOADS[workload_name]
    tally = Tally(workload, seed)
    reference.pin_to_one_cpu()

    setup = measure_setup(src, seed, SETUP_PROBES, log)
    import repro
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {src}")

    repeater = Repeater(workload, seed, tally, log)
    plain, traced, counts = [], [], None
    began = time.perf_counter()
    while (time.perf_counter() - began < seconds
           or len(plain) < MIN_REPETITIONS[trace]):
        plain.append(repeater.once(f"repetition {len(plain)}")[0])
        if not trace:
            continue
        recorder = Recorder(clock=time.thread_time)
        adjusted, gauge, records = repeater.once(
            f"traced repetition {len(traced)}", recorder)
        metrics = layers.layer_metrics(recorder, records, gauge.adjust)
        rep_counts = {name: value for name, value in metrics.items()
                      if name not in layers.TIMES}
        if counts is None:
            counts = rep_counts
        elif rep_counts != counts:
            tally.fail(f"traced counts differ between repetitions: "
                       f"{rep_counts} vs {counts}")
        metrics["wall_s"] = adjusted
        traced.append(metrics)

    for failure in tally.failures:
        log(f"FAILED {failure}")
    if not trace:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": (statistics.median(plain), "s"),
            "setup_s": (setup["setup_s"], "s"),
            "peak_rss_mb": (peak, "MB"),
        }
    else:
        values = {name: statistics.median(m[name] for m in traced)
                  for name in traced[0] if name in layers.TIMES}
        values.update(counts)
        for name in ("setup.import_s", "setup.build_s"):
            values[name] = setup[name]
        values["engine.ns_per_event"] = kernel_ns_per_event(log)
        values["trace.overhead_frac"] = (
            statistics.median(m["wall_s"] for m in traced)
            / statistics.median(plain) - 1.0)
        metrics = {name: (values[name], unit)
                   for name, unit in layers.METRICS.items()}
    return {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except (ImportError, FileNotFoundError, subprocess.SubprocessError) \
            as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
