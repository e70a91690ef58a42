"""Performance-regression gate: snapshot, compare, fail on slowdown.

``hybriddb-bench`` pins the quantities this codebase cares about --
kernel dispatch rate (events/sec), figure wall-clock, and the
(simulation-deterministic) replications-to-converge of adaptive
replication control -- into JSON records sharing the
``BENCH_*.json`` schema (flat records
with a ``benchmark`` key, parameters, measurements and a
``recorded_at`` stamp), then compares runs against a committed baseline
with tolerance bands::

    hybriddb-bench run --out BENCH_baseline.json --scale 0.1
    hybriddb-bench compare BENCH_baseline.json current.json
    hybriddb-bench gate --baseline BENCH_baseline.json --scale 0.1

``gate`` is ``run`` + ``compare`` in one step and is what CI executes:
exit status 1 on any regression beyond tolerance.  Tolerances are
deliberately generous (default +-30%) because shared CI runners are
noisy; the gate exists to catch the 2x-and-worse accidents (an O(n)
scan sneaking into the dispatch loop), not 5% drift.

``--handicap F`` scales the measured timings by ``F`` after the run --
a seeded slowdown that demonstrates the gate actually fails (used by
the CI self-test; never combine with ``--out`` snapshots you intend to
keep).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .logconf import add_logging_flags, get_logger, setup_cli_logging

__all__ = ["main", "run_benchmarks", "compare_records", "Comparison",
           "BENCHMARKS"]

log = get_logger("bench")

#: Default relative tolerance band of the gate.
DEFAULT_TOLERANCE = 0.30

#: metric field -> direction ("higher" / "lower" is better).
METRIC_DIRECTIONS = {
    "events_per_sec": "higher",
    "seconds": "lower",
    "replications": "lower",
}


@dataclass(frozen=True)
class BenchmarkDef:
    """One gated benchmark: how to run it and which field is gated."""

    name: str
    metric: str
    description: str


BENCHMARKS: dict[str, BenchmarkDef] = {
    "engine_throughput": BenchmarkDef(
        name="engine_throughput", metric="events_per_sec",
        description="raw kernel dispatch rate over a pure-DES event mix "
                    "with the canonical run's measured shares: timeouts "
                    "32%, timers 24%, bare events 23%, CPU requests 17%, "
                    "process terminations 3%, mean calendar depth ~54 "
                    "(no protocol code)"),
    "system_throughput": BenchmarkDef(
        name="system_throughput", metric="events_per_sec",
        description="end-to-end dispatch rate of the canonical run: "
                    "queue-length at 18 tps, 5 s warm-up + 60 s window "
                    "(kernel + full protocol stack; ignores --scale)"),
    "figure_4_1": BenchmarkDef(
        name="figure_4_1", metric="seconds",
        description="wall-clock of the Figure 4.1 sweep (serial, "
                    "uncached)"),
    "adaptive_convergence": BenchmarkDef(
        name="adaptive_convergence", metric="replications",
        description="replications needed to bring a seeded Figure 4.2 "
                    "slice within +-10% under common random numbers "
                    "(simulation-deterministic; guards adaptive "
                    "replication control)"),
}


def _utc_stamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def kernel_workload(horizon: float = 400.0):
    """Build and run the pure-kernel benchmark mix; returns the env.

    A deterministic event mix built from the kernel primitives the
    hybrid system uses, with zero protocol code in the loop, so the
    measured rate is the kernel's and a kernel regression cannot hide
    behind protocol cost:

    * contended capacity-1 CPU request/hold/release cycles (a queued
      request is granted when the holder releases),
    * short-lived processes spawned and joined, each one CPU burst
      (a transaction's start hop, grant, hold and termination),
    * one-shot :class:`~repro.sim.engine.Timer` deliveries into
      :class:`~repro.sim.resources.Store` mailboxes drained by
      receiver processes (the network's per-frame timers), and
    * zero-delay event chains (``succeed`` -- the immediate band).

    The loop counts and delays reproduce the dispatch mix and calendar
    depth the engine profiler measures on the canonical run
    (queue-length, 18 tps, 5 s warm-up + 60 s window, fault-free):
    timeouts 32%, timer hops 24%, bare events 23%, CPU requests 17%
    and process terminations 3%, at a mean calendar depth of about 54
    pending events.  Messages in flight are the only backlog.  Kinds
    the canonical run does not dispatch (interrupts, composite waits)
    are left out.  ``tests/test_obs_bench.py`` checks each share and
    the depth against a profiled run, so the mix cannot drift from the
    traffic unnoticed.
    """
    from functools import partial

    from ..sim.engine import Environment
    from ..sim.resources import Resource, Store

    env = Environment()

    def holder(cpu, hold):
        while True:
            with cpu.request() as req:
                yield req
                yield env.timeout(hold)

    def burst(cpu, hold):
        with cpu.request() as req:
            yield req
            yield env.timeout(hold)

    def spawner(cpu, gap, hold):
        while True:
            yield env.timeout(gap)
            yield env.process(burst(cpu, hold))

    def sender(mailbox, gap, delay):
        while True:
            yield env.timeout(gap)
            env.timer(delay, partial(mailbox.put, None))

    def receiver(mailbox):
        while True:
            yield mailbox.get()

    def chained(gap, length):
        while True:
            yield env.timeout(gap)
            for _ in range(length):
                event = env.event()
                event.succeed()
                yield event

    for i in range(8):
        cpu = Resource(env)
        for _ in range(2):
            env.process(holder(cpu, 0.14 + i * 0.003))
    for i in range(4):
        env.process(spawner(Resource(env), 0.25 + i * 0.007, 0.0625))
    for i in range(8):
        mailbox = Store(env)
        env.process(receiver(mailbox))
        env.process(sender(mailbox, 0.25 + i * 0.005, 1.0))
    for i in range(4):
        env.process(chained(0.33 + i * 0.011, 4))
    env.run(until=horizon)
    return env


def _run_engine_throughput(scale: float, repeat: int,
                           handicap: float) -> dict:
    """Best-of-``repeat`` raw kernel dispatch rate.

    The event count is simulation-deterministic (fixed workload, fixed
    horizon); only the elapsed wall-clock varies between attempts.
    """
    horizon = 400.0 * (scale / 0.1)
    best_rate = 0.0
    events = 0
    for attempt in range(repeat):
        began = time.perf_counter()
        env = kernel_workload(horizon=horizon)
        elapsed = time.perf_counter() - began
        events = env.events_processed
        rate = events / elapsed if elapsed > 0 else 0.0
        log.info("engine_throughput attempt %d/%d: %.0f events/s",
                 attempt + 1, repeat, rate)
        if rate > best_rate:
            best_rate = rate
    return {
        "benchmark": "engine_throughput",
        "scale": scale,
        "repeat": repeat,
        "horizon": horizon,
        "events": events,
        "events_per_sec": round(best_rate / handicap, 1),
        "seconds": round(events / best_rate * handicap, 3)
        if best_rate else 0.0,
        "recorded_at": _utc_stamp(),
    }


#: The canonical single-point run: queue-length routing at 18 tps with
#: a 5 s warm-up and a 60 s measurement window (about 100k events).
CANONICAL_RUN = {"strategy": "queue-length", "rate": 18.0,
                 "warmup_time": 5.0, "measure_time": 60.0}


def _run_system_throughput(scale: float, repeat: int,
                           handicap: float) -> dict:
    """Best-of-``repeat`` end-to-end dispatch rate (kernel + protocol).

    Always runs the canonical point, whatever ``scale`` says: a scaled
    horizon shrinks it to a few thousand events, which is mostly noise.
    """
    from ..experiments.runner import RunSettings, run_single

    settings = RunSettings(warmup_time=CANONICAL_RUN["warmup_time"],
                           measure_time=CANONICAL_RUN["measure_time"])
    best = None
    for attempt in range(repeat):
        result = run_single(CANONICAL_RUN["strategy"],
                            CANONICAL_RUN["rate"], settings=settings)
        log.info("system_throughput attempt %d/%d: %.0f events/s",
                 attempt + 1, repeat, result.engine_events_per_sec)
        if best is None or \
                result.engine_events_per_sec > best.engine_events_per_sec:
            best = result
    return {
        "benchmark": "system_throughput",
        "repeat": repeat,
        **CANONICAL_RUN,
        "events": best.engine_events,
        "events_per_sec": round(best.engine_events_per_sec / handicap, 1),
        "seconds": round(best.wall_clock_seconds * handicap, 3),
        "recorded_at": _utc_stamp(),
    }


def _run_figure(scale: float, repeat: int, handicap: float) -> dict:
    """Serial, uncached wall-clock of one full figure sweep."""
    from ..experiments.figures import ALL_FIGURES
    from ..experiments.runner import RunSettings

    settings = RunSettings(scale=scale)
    best = None
    for attempt in range(repeat):
        began = time.perf_counter()
        figure = ALL_FIGURES["4.1"](settings, workers=1, cache=None)
        elapsed = time.perf_counter() - began
        log.info("figure_4_1 attempt %d/%d: %.2fs",
                 attempt + 1, repeat, elapsed)
        if best is None or elapsed < best[0]:
            best = (elapsed, figure)
    elapsed, figure = best
    points = sum(len(curve.points) for curve in figure.curves)
    return {
        "benchmark": "figure_4_1",
        "scale": scale,
        "repeat": repeat,
        "workers": 1,
        "curves": len(figure.curves),
        "points": points,
        "seconds": round(elapsed * handicap, 3),
        "recorded_at": _utc_stamp(),
    }


def _run_adaptive_convergence(scale: float, repeat: int,
                              handicap: float) -> dict:
    """Replications-to-converge of a common-random-numbers slice.

    Unlike the wall-clock benchmarks this metric is fully
    simulation-determined: the adaptive scheduler's replication count
    depends only on seeds and the estimators, so the gate band catches
    *statistical* regressions (a seed-derivation change, an estimator
    that stopped tightening) rather than machine noise.  ``repeat`` is
    ignored (re-runs are bit-identical) and ``handicap`` multiplies the
    replication count so the CI gate self-test stays meaningful.
    """
    from ..experiments.adaptive import run_adaptive_curve_set
    from ..experiments.runner import PrecisionSettings

    strategies = ["queue-length", "min-average-population"]
    rates = [15.0, 25.0, 30.0]
    settings = PrecisionSettings(
        scale=scale, rel_precision=0.1, min_replications=2,
        max_replications=8, crn=True)
    outcome = run_adaptive_curve_set(
        [(name, name, list(rates)) for name in strategies],
        settings=settings, workers=1, cache=None)
    report = outcome.report
    return {
        "benchmark": "adaptive_convergence",
        "scale": scale,
        "repeat": 1,
        "strategies": strategies,
        "rates": rates,
        "rel_precision": settings.rel_precision,
        "max_replications": settings.max_replications,
        "points": report.n_points,
        "converged_points": sum(1 for p in report.points if p.converged),
        "replications": round(report.replications_total * handicap, 1),
        "fixed_grid_replications": report.fixed_grid_replications,
        "recorded_at": _utc_stamp(),
    }


_RUNNERS = {
    "engine_throughput": _run_engine_throughput,
    "system_throughput": _run_system_throughput,
    "figure_4_1": _run_figure,
    "adaptive_convergence": _run_adaptive_convergence,
}


def run_benchmarks(names=None, scale: float = 0.1, repeat: int = 3,
                   handicap: float = 1.0) -> list[dict]:
    """Execute the named benchmarks (every one by default); returns
    records."""
    selected = list(names) if names else sorted(BENCHMARKS)
    records = []
    for name in selected:
        if name not in _RUNNERS:
            raise KeyError(f"unknown benchmark {name!r} "
                           f"(choose from {sorted(BENCHMARKS)})")
        log.info("running benchmark %s (scale=%g)", name, scale)
        records.append(_RUNNERS[name](scale, repeat, handicap))
    return records


@dataclass(frozen=True)
class Comparison:
    """Gate verdict for one benchmark."""

    benchmark: str
    metric: str
    baseline: float | None
    current: float | None
    #: current/baseline (>1 means bigger; interpretation depends on the
    #: metric direction).  ``None`` when either side is missing.
    ratio: float | None
    status: str  # "ok" | "improved" | "regression" | "missing" | "new"

    @property
    def failed(self) -> bool:
        return self.status in ("regression", "missing")

    def describe(self) -> str:
        if self.status == "missing":
            return (f"{self.benchmark}: MISSING from current run "
                    f"(baseline {self.metric}={self.baseline:g})")
        if self.status == "new":
            return (f"{self.benchmark}: new (no baseline; "
                    f"{self.metric}={self.current:g})")
        direction = METRIC_DIRECTIONS[self.metric]
        arrow = {"ok": "within band", "improved": "IMPROVED",
                 "regression": "REGRESSION"}[self.status]
        return (f"{self.benchmark}: {self.metric} {self.baseline:g} -> "
                f"{self.current:g} ({self.ratio:.2f}x, {direction} is "
                f"better) {arrow}")


def compare_records(baseline: list[dict], current: list[dict],
                    tolerance: float = DEFAULT_TOLERANCE) -> list[Comparison]:
    """Pair up records by benchmark name and judge each gated metric.

    Records whose ``benchmark`` is not a gated one (e.g. the historical
    ``figure_4_2`` parallel-speedup snapshots that share the file
    format) are ignored.  A benchmark present in the baseline but
    absent from the current run fails the gate -- silently losing
    coverage must be loud.
    """
    by_name_base = {record["benchmark"]: record for record in baseline
                    if record.get("benchmark") in BENCHMARKS}
    by_name_cur = {record["benchmark"]: record for record in current
                   if record.get("benchmark") in BENCHMARKS}
    comparisons = []
    for name in sorted(set(by_name_base) | set(by_name_cur)):
        metric = BENCHMARKS[name].metric
        base = by_name_base.get(name, {}).get(metric)
        cur = by_name_cur.get(name, {}).get(metric)
        if cur is None:
            comparisons.append(Comparison(name, metric, base, None,
                                          None, "missing"))
            continue
        if base is None:
            comparisons.append(Comparison(name, metric, None, cur,
                                          None, "new"))
            continue
        ratio = cur / base if base else float("inf")
        direction = METRIC_DIRECTIONS[metric]
        if direction == "higher":
            regressed = cur < base * (1.0 - tolerance)
            improved = cur > base * (1.0 + tolerance)
        else:
            regressed = cur > base * (1.0 + tolerance)
            improved = cur < base * (1.0 - tolerance)
        status = ("regression" if regressed
                  else "improved" if improved else "ok")
        comparisons.append(Comparison(name, metric, base, cur, ratio,
                                      status))
    return comparisons


def _load_records(path: str | Path) -> list[dict]:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON list of records")
    return data


def _write_records(records: list[dict], path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(records, indent=2) + "\n")
    return path


def _print_comparisons(comparisons: list[Comparison],
                       tolerance: float) -> int:
    failures = 0
    for comparison in comparisons:
        print(f"  {comparison.describe()}")
        if comparison.failed:
            failures += 1
    if failures:
        print(f"\nFAIL: {failures} benchmark(s) regressed beyond "
              f"+-{tolerance:.0%}")
        return 1
    print(f"\nOK: all benchmarks within +-{tolerance:.0%} of baseline")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybriddb-bench",
        description="Snapshot and gate the simulator's performance "
                    "(events/sec and figure wall-clock).")
    sub = parser.add_subparsers(dest="command", required=True)

    def _add_run_flags(p):
        p.add_argument("--scale", type=float, default=0.1,
                       help="simulated-horizon scale (default 0.1)")
        p.add_argument("--repeat", type=int, default=3,
                       help="attempts per benchmark; best is kept "
                            "(default 3 -- best-of damps scheduler "
                            "noise on shared runners)")
        p.add_argument("--bench", action="append",
                       choices=sorted(BENCHMARKS), metavar="NAME",
                       help="run only this benchmark (repeatable)")
        p.add_argument("--handicap", type=float, default=1.0,
                       help="multiply measured timings by this factor "
                            "(gate self-test; default 1.0)")

    run = sub.add_parser("run", help="run the benchmarks, write records")
    _add_run_flags(run)
    run.add_argument("--out", metavar="PATH", required=True,
                     help="where to write the JSON records")
    add_logging_flags(run)

    compare = sub.add_parser("compare",
                             help="compare two record files")
    compare.add_argument("baseline", help="baseline records JSON")
    compare.add_argument("current", help="current records JSON")
    compare.add_argument("--tolerance", type=float,
                         default=DEFAULT_TOLERANCE,
                         help="relative tolerance band "
                              f"(default {DEFAULT_TOLERANCE})")
    add_logging_flags(compare)

    gate = sub.add_parser("gate",
                          help="run benchmarks and gate against a "
                               "baseline (CI entry point)")
    _add_run_flags(gate)
    gate.add_argument("--baseline", metavar="PATH", required=True,
                      help="baseline records JSON to gate against")
    gate.add_argument("--out", metavar="PATH",
                      help="also write the current records here")
    gate.add_argument("--tolerance", type=float,
                      default=DEFAULT_TOLERANCE,
                      help="relative tolerance band "
                           f"(default {DEFAULT_TOLERANCE})")
    add_logging_flags(gate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    setup_cli_logging(args)
    if args.command == "compare":
        comparisons = compare_records(_load_records(args.baseline),
                                      _load_records(args.current),
                                      tolerance=args.tolerance)
        print(f"Comparing {args.current} against {args.baseline}")
        return _print_comparisons(comparisons, args.tolerance)

    if args.scale <= 0:
        print("error: --scale must be positive", file=sys.stderr)
        return 2
    if args.repeat < 1:
        print("error: --repeat must be >= 1", file=sys.stderr)
        return 2
    if args.handicap <= 0:
        print("error: --handicap must be positive", file=sys.stderr)
        return 2
    if args.handicap != 1.0:
        log.warning("handicap %.2fx applied: timings are deliberately "
                    "distorted (gate self-test mode)", args.handicap)
    records = run_benchmarks(args.bench, scale=args.scale,
                             repeat=args.repeat, handicap=args.handicap)
    if args.command == "run":
        target = _write_records(records, args.out)
        print(f"{len(records)} benchmark record(s) written to {target}")
        for record in records:
            metric = BENCHMARKS[record["benchmark"]].metric
            print(f"  {record['benchmark']}: "
                  f"{metric}={record[metric]:g}")
        return 0

    # gate: run + compare
    if args.out:
        _write_records(records, args.out)
    baseline_records = _load_records(args.baseline)
    if args.bench:
        # A selective gate (--bench NAME) judges only the selected
        # benchmarks; baseline entries for unselected ones must not
        # count as "missing from current run".
        selected = set(args.bench)
        baseline_records = [record for record in baseline_records
                            if record.get("benchmark") in selected]
    comparisons = compare_records(baseline_records, records,
                                  tolerance=args.tolerance)
    print(f"Gating against {args.baseline} "
          f"(scale={args.scale:g}, tolerance=+-{args.tolerance:.0%})")
    return _print_comparisons(comparisons, args.tolerance)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
