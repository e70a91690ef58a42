"""Command-line entry point: reproduce any figure from the terminal.

Installed as ``hybriddb-experiment`` (see pyproject).  Examples::

    hybriddb-experiment --figure 4.1
    hybriddb-experiment --figure 4.2 --workers 4
    hybriddb-experiment --figure 4.4 --scale 0.5 --replications 2
    hybriddb-experiment --figure 4.2 --precision 0.05 --max-replications 16
    hybriddb-experiment --figure 4.2 --precision 0.1 --crn
    hybriddb-experiment --figure all --scale 0.3 --workers 0
    hybriddb-experiment --figure 4.3 --csv fig43.csv
    hybriddb-experiment --figure 4.1 --no-cache
    hybriddb-experiment --figure 4.1 --protocol 2pc
    hybriddb-experiment --scorecard --scale 0.3 --protocol epoch --workers 4
    hybriddb-experiment --sensitivity p_local --replications 2 --protocol 2pc
    hybriddb-experiment --list-protocols
    hybriddb-experiment --validate --workers 2
    hybriddb-experiment --verify
    hybriddb-experiment --list
    hybriddb-experiment --run queue-length --rate 35 \\
        --telemetry run.csv --trace-out run.jsonl
    hybriddb-experiment --run queue-length --profile --metrics-out m.json
    hybriddb-experiment --run threshold --audit --audit-out decisions.jsonl
    hybriddb-experiment --run static-optimal --fault-plan central-outage
    hybriddb-experiment --availability --scale 0.5
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace

from ..core import STRATEGIES
from ..hybrid.config import PROTOCOLS
from ..obs.logconf import add_logging_flags, setup_cli_logging
from ..sim.trace import Tracer
from .cache import ResultCache, default_cache_dir
from .export import write_figure_csv, write_telemetry, write_trace_jsonl
from .figures import ALL_FIGURES
from .parallel import resolve_workers
from .report import curve_summary, execution_summary, figure_report, \
    point_report, run_report
from .runner import PrecisionSettings, RunSettings, run_point, run_single
from .validation import validate_model

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybriddb-experiment",
        description="Reproduce the figures of 'Load Sharing in Hybrid "
                    "Distributed-Centralized Database Systems' "
                    "(Ciciani, Dias & Yu, ICDCS 1988).")
    parser.add_argument("--figure",
                        choices=sorted(ALL_FIGURES) + ["all"],
                        help="which figure to reproduce ('all' runs the "
                             "full evaluation section)")
    parser.add_argument("--list", action="store_true",
                        help="list available figures and exit")
    parser.add_argument("--validate", action="store_true",
                        help="run the analytic-model-vs-simulator "
                             "validation grid")
    parser.add_argument("--verify", action="store_true",
                        help="run the correctness-verification quick "
                             "suite (equivalent to hybriddb-verify "
                             "--quick) and exit")
    parser.add_argument("--scorecard", action="store_true",
                        help="regenerate every figure and machine-check "
                             "all of the paper's claims")
    parser.add_argument("--sensitivity", metavar="PARAM",
                        choices=["comm_delay", "central_mips", "p_local",
                                 "n_sites"],
                        help="sweep one system parameter (the conclusion "
                             "section's dependencies)")
    parser.add_argument("--csv", metavar="PATH",
                        help="also write the figure's data as CSV")
    parser.add_argument("--run", metavar="STRATEGY",
                        choices=sorted(STRATEGIES),
                        help="run one strategy once and report its "
                             "response-time decomposition, telemetry "
                             "and engine profile; with --replications N "
                             "(N > 1) the replications fan out over "
                             "--workers processes and the merged point "
                             "is reported instead")
    parser.add_argument("--rate", type=float, default=30.0,
                        help="total arrival rate for --run and "
                             "--availability (default 30.0 txn/s)")
    parser.add_argument("--comm-delay", type=float, default=0.2,
                        help="communication delay for --run and "
                             "--availability (default 0.2 s)")
    parser.add_argument("--telemetry", metavar="PATH",
                        help="with --run: write windowed telemetry "
                             "(CSV if PATH ends in .csv, JSON otherwise)")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="with --run: write the event trace as "
                             "JSON Lines")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="with --run: write the metrics-registry "
                             "snapshot as JSON")
    parser.add_argument("--profile", action="store_true",
                        help="with --run: attach the engine profiler and "
                             "print the per-event-type dispatch profile")
    parser.add_argument("--hot-paths", action="store_true",
                        help="with --run: run under cProfile and name "
                             "the hottest functions (slows the run; "
                             "ranking only, never benchmark with it)")
    parser.add_argument("--audit", action="store_true",
                        help="with --run: record every routing decision "
                             "with its estimator inputs and print the "
                             "per-strategy summary")
    parser.add_argument("--audit-out", metavar="PATH",
                        help="with --run: write the routing-decision "
                             "audit as JSON Lines (implies --audit)")
    parser.add_argument("--fault-plan", metavar="SPEC",
                        help="with --run: inject faults; SPEC is a canned "
                             "plan name (central-outage, lossy-links, "
                             "site-crash, chaos, central-outage-failover, "
                             "site-crash-rejoin, breaker-flap) or a "
                             "FaultPlan JSON file")
    parser.add_argument("--availability", action="store_true",
                        help="compare the reference strategies with and "
                             "without the standard central outage "
                             "(or the --fault-plan scenario)")
    parser.add_argument("--failover", action="store_true",
                        help="with --availability: add a third run per "
                             "strategy with hot-standby failover enabled "
                             "(avail@fo and mttr columns)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="simulated-horizon scale factor (default 1.0; "
                             "0.3 for a quick look)")
    parser.add_argument("--replications", type=int, default=1,
                        help="independent replications per point (with "
                             "--precision: the initial adaptive batch, "
                             "minimum 2)")
    parser.add_argument("--precision", type=float, metavar="REL",
                        help="adaptive replication control: keep adding "
                             "replications per point until the 95%% CI "
                             "half-width of the mean response time is "
                             "within REL of the mean (e.g. 0.05), or "
                             "--max-replications is reached")
    parser.add_argument("--max-replications", type=int, default=24,
                        help="replication cap per point in adaptive mode "
                             "(default 24; ignored without --precision)")
    parser.add_argument("--crn", action="store_true",
                        help="common random numbers: derive replication "
                             "seeds from (seed, rate, replication) so "
                             "every strategy at one rate shares sample "
                             "paths (sharpens strategy comparisons; "
                             "changes seeds and cache keys vs the "
                             "default seed+r scheme)")
    parser.add_argument("--protocol", default="optimistic",
                        metavar="NAME",
                        help="commit protocol for every simulation "
                             "(default optimistic; see "
                             "`hybriddb-experiment --list-protocols`)")
    parser.add_argument("--list-protocols", action="store_true",
                        help="list the commit protocols and exit")
    parser.add_argument("--seed", type=int, default=7_001,
                        help="base random seed")
    parser.add_argument("--workers", type=int, default=1,
                        help="simulation processes for every mode but a "
                             "single --run (1 = serial, 0 = one per CPU); "
                             "results are bit-identical to serial "
                             "execution")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")
    parser.add_argument("--cache-dir", metavar="PATH",
                        help="result-cache directory (default "
                             f"{default_cache_dir()}, or "
                             "$HYBRIDDB_CACHE_DIR)")
    add_logging_flags(parser)
    return parser


def _run_figure(figure_id: str, settings: RunSettings,
                csv_path: str | None, workers: int,
                cache: ResultCache | None) -> None:
    started = time.time()
    figure = ALL_FIGURES[figure_id](settings, workers=workers, cache=cache)
    elapsed = time.time() - started
    print(figure_report(figure))
    print()
    for curve in figure.curves:
        print(curve_summary(curve))
    if csv_path is not None:
        target = write_figure_csv(figure, csv_path)
        print(f"\n[data written to {target}]")
    print("\n" + execution_summary(elapsed, workers=workers, cache=cache))
    if isinstance(settings, PrecisionSettings):
        from .adaptive import curve_precisions, precision_summary

        points = curve_precisions(figure.curves, settings.rel_precision)
        print("[" + precision_summary(
            points, settings.rel_precision, settings.max_replications,
            f"{settings.confidence:.0%} confidence") + "]")


def _resolve_plan(args, settings: RunSettings):
    """Turn ``--fault-plan`` into a FaultPlan (None when not given)."""
    if not args.fault_plan:
        return None
    from ..sim.faults import resolve_fault_plan

    return resolve_fault_plan(args.fault_plan,
                              warmup_time=settings.warmup_time *
                              settings.scale,
                              measure_time=settings.measure_time *
                              settings.scale)


def _run_replicated_point(args, settings: RunSettings, workers: int,
                          cache: ResultCache | None) -> int:
    """``--run`` with ``--replications`` > 1: fan replications over the
    worker pool (``base_seed + r`` seeds, exactly like curve points) and
    report the merged point.  The merged numbers are independent of the
    worker count."""
    fault_plan = _resolve_plan(args, settings)
    started = time.time()
    point = run_point(args.run, args.rate, comm_delay=args.comm_delay,
                      settings=settings, workers=workers, cache=cache,
                      fault_plan=fault_plan)
    elapsed = time.time() - started
    print(point_report(point, comm_delay=args.comm_delay))
    print("\n" + execution_summary(elapsed, workers=workers, cache=cache))
    return 0


def _run_single(args, settings: RunSettings) -> int:
    tracer = Tracer(max_records=200_000) if args.trace_out else None
    fault_plan = _resolve_plan(args, settings)

    audit = None
    if args.audit or args.audit_out:
        from ..obs.audit import RoutingAudit

        audit = RoutingAudit()
    profiler = None

    def instrument(system) -> None:
        nonlocal profiler
        if args.profile:
            from ..obs.profiler import EngineProfiler

            profiler = EngineProfiler(system.env)

    started = time.time()
    kwargs = dict(comm_delay=args.comm_delay, settings=settings,
                  tracer=tracer, fault_plan=fault_plan, audit=audit,
                  instrument=instrument)
    hot = None
    if args.hot_paths:
        from ..obs.profiler import hot_path_profile

        result, hot = hot_path_profile(run_single, args.run, args.rate,
                                       **kwargs)
    else:
        result = run_single(args.run, args.rate, **kwargs)
    elapsed = time.time() - started

    print(run_report(result, fault_plan_active=fault_plan is not None))
    if profiler is not None:
        print()
        print(profiler.report())
    if hot is not None:
        from ..obs.profiler import format_hot_paths

        print()
        print("Hot paths (cProfile, ranking only):")
        print(format_hot_paths(hot))
    if audit is not None:
        print()
        print(audit.summary().format())
    if args.telemetry:
        target = write_telemetry(result, args.telemetry)
        print(f"[telemetry written to {target}]")
    if args.trace_out:
        target = write_trace_jsonl(tracer, args.trace_out)
        print(f"[{len(tracer.records)} trace record(s) written to "
              f"{target}]")
    if args.metrics_out:
        with open(args.metrics_out, "w") as handle:
            json.dump({"strategy": result.strategy,
                       "total_rate": result.total_rate,
                       "comm_delay": result.comm_delay,
                       "seed": result.seed,
                       "metrics": result.metrics}, handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"[metrics snapshot written to {args.metrics_out}]")
    if args.audit_out:
        written = audit.write_jsonl(args.audit_out)
        print(f"[{written} audit record(s) written to {args.audit_out}]")
    print("\n" + execution_summary(elapsed))
    return 0


def _run_validation(settings: RunSettings, workers: int,
                    cache: ResultCache | None) -> None:
    started = time.time()
    report = validate_model(
        settings=replace(settings, warmup_time=25.0, measure_time=75.0),
        workers=workers, cache=cache)
    print("Analytic model vs discrete-event simulator")
    print()
    print(report.to_table())
    print(f"\nmean |error| = {report.mean_abs_error:.1%}, "
          f"max |error| = {report.max_abs_error:.1%}")
    print("\n" + execution_summary(time.time() - started,
                                   workers=workers, cache=cache))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    setup_cli_logging(args)
    if args.list:
        for figure_id, builder in sorted(ALL_FIGURES.items()):
            doc = (builder.__doc__ or "").strip().splitlines()[0]
            print(f"  {figure_id}: {doc}")
        return 0
    if args.list_protocols:
        from ..hybrid.system import site_classes

        for name in PROTOCOLS:
            doc = (site_classes(name)[0].__doc__ or "").strip().splitlines()
            print(f"  {name}: {doc[0] if doc else ''}")
        return 0
    if args.protocol not in PROTOCOLS:
        print(f"error: unknown --protocol {args.protocol!r}; known "
              f"protocols: {', '.join(PROTOCOLS)}",
              file=sys.stderr)
        return 2
    if args.verify:
        from ..verify.cli import main as verify_main

        return verify_main(["--quick"])
    if args.scale <= 0:
        print("error: --scale must be positive", file=sys.stderr)
        return 2
    if args.replications < 1:
        print("error: --replications must be >= 1", file=sys.stderr)
        return 2
    if args.workers < 0:
        print("error: --workers must be >= 0", file=sys.stderr)
        return 2
    if args.precision is not None:
        if args.precision <= 0:
            print("error: --precision must be positive", file=sys.stderr)
            return 2
        if args.max_replications < 2:
            print("error: --max-replications must be >= 2",
                  file=sys.stderr)
            return 2
        min_replications = max(2, args.replications)
        if min_replications > args.max_replications:
            print("error: --replications (the initial adaptive batch) "
                  "cannot exceed --max-replications", file=sys.stderr)
            return 2
        settings: RunSettings = PrecisionSettings(
            base_seed=args.seed, scale=args.scale,
            rel_precision=args.precision,
            min_replications=min_replications,
            max_replications=args.max_replications,
            crn=args.crn, protocol=args.protocol)
    else:
        settings = RunSettings(replications=args.replications,
                               base_seed=args.seed, scale=args.scale,
                               crn=args.crn, protocol=args.protocol)
    workers = resolve_workers(args.workers)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    if (args.telemetry or args.trace_out or args.metrics_out or
            args.profile or args.hot_paths or args.audit or
            args.audit_out) and not args.run:
        print("error: --telemetry/--trace-out/--metrics-out/--profile/"
              "--hot-paths/--audit/--audit-out require --run",
              file=sys.stderr)
        return 2
    if args.profile and args.hot_paths:
        print("error: --profile and --hot-paths are mutually exclusive "
              "(cProfile tracing would distort the dispatch timings)",
              file=sys.stderr)
        return 2
    if args.run and args.rate <= 0:
        print("error: --rate must be positive", file=sys.stderr)
        return 2
    if args.fault_plan and not (args.run or args.availability):
        print("error: --fault-plan requires --run or --availability",
              file=sys.stderr)
        return 2
    if args.availability and (args.replications > 1 or
                              args.precision is not None):
        print("error: --availability compares single runs; drop "
              "--replications/--precision", file=sys.stderr)
        return 2
    if args.failover and not args.availability:
        print("error: --failover requires --availability",
              file=sys.stderr)
        return 2
    if args.run and args.replications > 1 and (
            args.telemetry or args.trace_out or args.metrics_out or
            args.profile or args.hot_paths or args.audit or args.audit_out):
        print("error: --telemetry/--trace-out/--metrics-out/--profile/"
              "--hot-paths/--audit/--audit-out observe one in-process "
              "run; use --replications 1 with them", file=sys.stderr)
        return 2
    if args.run:
        if args.replications > 1:
            code = _run_replicated_point(args, settings, workers=workers,
                                         cache=cache)
        else:
            code = _run_single(args, settings)
        if not args.figure:
            return code
    if args.availability:
        from .availability import run_availability

        started = time.time()
        comparison = run_availability(
            total_rate=args.rate, comm_delay=args.comm_delay,
            plan=_resolve_plan(args, settings),
            settings=settings, workers=workers, cache=cache,
            failover=args.failover)
        print("Strategies with and without faults "
              f"@ rate={comparison.total_rate:g} txn/s, "
              f"delay={args.comm_delay:g} s")
        print()
        print(comparison.to_table())
        episodes = comparison.episode_summary()
        if episodes:
            print("\nEpisodes")
            print(episodes)
        print("\n" + execution_summary(time.time() - started,
                                       workers=workers, cache=cache))
        if not args.figure:
            return 0
    if args.validate:
        _run_validation(settings, workers, cache)
        if not args.figure and not args.scorecard:
            return 0
    if args.scorecard:
        from .scorecard import run_scorecard

        started = time.time()
        card = run_scorecard(settings, workers=workers, cache=cache)
        print(card.to_text())
        print("\n" + execution_summary(time.time() - started,
                                       workers=workers, cache=cache))
        if not args.figure:
            return 0 if card.all_essential_pass else 1
    if args.sensitivity:
        from .sensitivity import DEFAULT_SWEEPS, sweep_parameter

        started = time.time()
        sweep = sweep_parameter(
            args.sensitivity, DEFAULT_SWEEPS[args.sensitivity],
            settings=replace(settings, scale=1.0,
                             warmup_time=20.0 * settings.scale + 5.0,
                             measure_time=60.0 * settings.scale + 10.0),
            workers=workers, cache=cache)
        print(sweep.to_table())
        print("\n" + execution_summary(time.time() - started,
                                       workers=workers, cache=cache))
        if not args.figure:
            return 0
    if not args.figure:
        print("error: choose --figure, --run, --validate, --scorecard, "
              "--sensitivity, --availability or --list", file=sys.stderr)
        return 2
    if args.figure == "all":
        if args.csv:
            print("error: --csv works with a single figure",
                  file=sys.stderr)
            return 2
        for figure_id in sorted(ALL_FIGURES):
            _run_figure(figure_id, settings, None, workers, cache)
            print("=" * 72)
        return 0
    _run_figure(args.figure, settings, args.csv, workers, cache)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
