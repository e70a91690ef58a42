"""Micro-benchmarks of the substrate components.

These are genuine pytest-benchmark timing runs (many rounds) for the
pieces whose speed determines how large an experiment the harness can
sweep: the DES kernel, the lock manager, the analytic model and the
static optimiser.

``test_bench_figure_suite_parallel_speedup`` additionally records its
wall-clock numbers into ``BENCH_parallel.json`` at the repository root,
so the serial-vs-parallel perf trajectory accumulates across PRs.
"""

import json
import os
import time
from pathlib import Path

from repro.core import AnalyticModel, optimize_static
from repro.db import LockManager, LockMode
from repro.experiments import PrecisionSettings, RunSettings
from repro.experiments.figures import figure_4_2
from repro.hybrid import HybridSystem, paper_config
from repro.core.router import AlwaysLocalRouter
from repro.sim import Environment, Resource

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_bench_engine_event_throughput(benchmark):
    """Schedule-and-dispatch cost of the raw event loop."""

    def run():
        env = Environment()

        def ping(env):
            for _ in range(2000):
                yield env.timeout(1.0)

        for _ in range(5):
            env.process(ping(env))
        env.run()
        return env.now

    assert benchmark(run) == 2000.0


def test_bench_engine_step_fast_path(benchmark):
    """Pins the kernel's raw step rate (the ``__slots__`` fast path).

    One process cycling 50 K timeouts isolates ``_enqueue``/``step``/
    ``_resume`` from any model code.  The asserted floor is deliberately
    conservative (any regression that re-introduces per-event ``__dict__``
    allocation or per-push peak tracking costs far more than 2x).
    """
    n_events = 50_000

    def run():
        env = Environment()

        def ticker(env):
            for _ in range(n_events):
                yield env.timeout(1.0)

        env.process(ticker(env))
        started = time.perf_counter()
        env.run()
        elapsed = time.perf_counter() - started
        return env.events_processed / elapsed

    events_per_sec = benchmark(run)
    assert events_per_sec > 100_000, (
        f"kernel fast path regressed: {events_per_sec:,.0f} events/s")


def test_bench_figure_suite_parallel_speedup():
    """Times figure 4.2 serial vs parallel; records BENCH_parallel.json.

    Not a pytest-benchmark fixture run: the point is one honest
    wall-clock comparison per invocation, appended to the repository's
    perf trajectory.  The scale is small enough for CI but large enough
    that pool start-up does not dominate.
    """
    scale = float(os.environ.get("REPRO_PARALLEL_BENCH_SCALE", "0.1"))
    workers = min(4, os.cpu_count() or 1)
    settings = RunSettings(scale=scale)

    started = time.perf_counter()
    serial = figure_4_2(settings, workers=1)
    serial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    parallel = figure_4_2(settings, workers=workers)
    parallel_seconds = time.perf_counter() - started

    assert serial.curves == parallel.curves  # bit-identical reassembly

    record = {
        "benchmark": "figure_4_2",
        "scale": scale,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "speedup": round(serial_seconds / parallel_seconds, 3)
        if parallel_seconds > 0 else None,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    target = REPO_ROOT / "BENCH_parallel.json"
    history = []
    if target.exists():
        try:
            history = json.loads(target.read_text())
        except (ValueError, OSError):
            history = []
    if not isinstance(history, list):
        history = [history]
    history.append(record)
    target.write_text(json.dumps(history, indent=2) + "\n")

    # On a single-core runner the pool cannot win; only enforce the
    # speedup where hardware parallelism actually exists.
    if (os.cpu_count() or 1) >= 4:
        assert serial_seconds / parallel_seconds >= 2.0, (
            f"parallel figure suite too slow: {record}")


def test_bench_adaptive_replication_savings():
    """Adaptive precision targeting vs the fixed grid it is capped by.

    Runs figure 4.2 once with a :class:`PrecisionSettings` (precision
    target 10 %, cap 8 replications per point) and once with the
    equivalent fixed grid (8 replications everywhere), then records the
    replication counts, simulated work and wall-clock of both into
    ``BENCH_adaptive.json`` so the savings trajectory accumulates
    across PRs.  Like the parallel benchmark above this is one honest
    wall-clock comparison per invocation, not a pytest-benchmark run.
    (The cap was 4 through PR 8; with 4 the knee points ran to the cap
    unconverged, so the cap is now 8 and the unconverged tail is
    reported instead of silently truncated.)
    """
    scale = float(os.environ.get("REPRO_ADAPTIVE_BENCH_SCALE", "0.1"))
    precision = PrecisionSettings(scale=scale, rel_precision=0.1,
                                  min_replications=2, max_replications=8)
    fixed_settings = precision.fixed_equivalent()

    started = time.perf_counter()
    fixed = figure_4_2(fixed_settings, workers=1)
    fixed_seconds = time.perf_counter() - started

    started = time.perf_counter()
    adaptive = figure_4_2(precision, workers=1)
    adaptive_seconds = time.perf_counter() - started

    fixed_points = [p for c in fixed.curves for p in c.points]
    adaptive_points = [p for c in adaptive.curves for p in c.points]
    fixed_reps = sum(p.n_replications for p in fixed_points)
    adaptive_reps = sum(p.n_replications for p in adaptive_points)

    # The whole point: the precision target saves simulated work.
    assert adaptive_reps < fixed_reps, (
        f"adaptive ran {adaptive_reps} replications vs {fixed_reps} fixed")

    converged = 0
    for point_f, point_a in zip(fixed_points, adaptive_points):
        # Every point either met the target or ran to the cap ...
        met = point_a.rt_relative_half_width <= precision.rel_precision
        assert met or point_a.n_replications == precision.max_replications
        converged += met
        # ... and its replications are a prefix of the fixed grid's
        # (common random numbers: replication r always seeds base+r).
        assert (point_a.replications ==
                point_f.replications[:point_a.n_replications])

    record = {
        "benchmark": "figure_4_2_adaptive",
        "scale": scale,
        "rel_precision": precision.rel_precision,
        "min_replications": precision.min_replications,
        "max_replications": precision.max_replications,
        "points": len(adaptive_points),
        "points_converged": converged,
        "fixed_replications": fixed_reps,
        "adaptive_replications": adaptive_reps,
        "replications_saved": fixed_reps - adaptive_reps,
        "fixed_engine_events": sum(r.engine_events
                                   for p in fixed_points
                                   for r in p.replications),
        "adaptive_engine_events": sum(r.engine_events
                                      for p in adaptive_points
                                      for r in p.replications),
        "fixed_seconds": round(fixed_seconds, 3),
        "adaptive_seconds": round(adaptive_seconds, 3),
        "speedup": round(fixed_seconds / adaptive_seconds, 3)
        if adaptive_seconds > 0 else None,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    target = REPO_ROOT / "BENCH_adaptive.json"
    history = []
    if target.exists():
        try:
            history = json.loads(target.read_text())
        except (ValueError, OSError):
            history = []
    if not isinstance(history, list):
        history = [history]
    history.append(record)
    target.write_text(json.dumps(history, indent=2) + "\n")


def test_bench_variance_reduction_savings():
    """Adaptive CRN vs the plain fixed grid, to +-10%.

    Runs a figure 4.2 slice (two strategies over three rates) three
    ways -- the fixed 8-replication grid with CRN off, the adaptive
    scheduler with CRN off, and the adaptive scheduler under common
    random numbers -- and records all three into
    ``BENCH_variance.json``.  The headline claims enforced here:

    * the CRN run reaches the +-10% target with at least 2x fewer
      replications than the fixed grid;
    * its point estimates agree with the fixed grid's within
      overlapping 95% confidence intervals (variance reduction must
      not move the answers).
    """
    from repro.experiments.adaptive import run_adaptive_curve_set
    from repro.experiments.runner import run_curve_set

    scale = float(os.environ.get("REPRO_VARIANCE_BENCH_SCALE", "0.1"))
    strategies = ["queue-length", "min-average-population"]
    rates = [15.0, 25.0, 30.0]
    entries = [(name, name, list(rates)) for name in strategies]

    fixed_settings = RunSettings(scale=scale, replications=8)
    started = time.perf_counter()
    fixed_curves = run_curve_set(entries, settings=fixed_settings,
                                 workers=1)
    fixed_seconds = time.perf_counter() - started

    plain_settings = PrecisionSettings(scale=scale, rel_precision=0.1,
                                       min_replications=2,
                                       max_replications=8)
    plain = run_adaptive_curve_set(entries, settings=plain_settings,
                                   workers=1)

    vr_settings = PrecisionSettings(scale=scale, rel_precision=0.1,
                                    min_replications=2,
                                    max_replications=8, crn=True)
    started = time.perf_counter()
    reduced = run_adaptive_curve_set(entries, settings=vr_settings,
                                     workers=1)
    reduced_seconds = time.perf_counter() - started

    fixed_points = [p for c in fixed_curves for p in c.points]
    fixed_reps = sum(p.n_replications for p in fixed_points)
    reduced_points = [p for c in reduced.curves for p in c.points]
    reduced_reps = reduced.report.replications_total

    # Headline claim: >= 2x fewer replications to the same target.
    assert reduced_reps * 2 <= fixed_reps, (
        f"CRN needed {reduced_reps} replications vs {fixed_reps} "
        f"fixed -- less than the promised 2x saving")
    assert reduced.report.all_converged, reduced.report.summary()

    # The estimates must agree: overlapping 95% CIs point by point.
    for point_f, point_r in zip(fixed_points, reduced_points):
        gap = abs(point_f.mean_response_time - point_r.mean_response_time)
        budget = point_f.rt_half_width + point_r.rt_half_width
        assert gap <= budget, (
            f"estimates diverged at rate {point_f.total_rate}: "
            f"fixed {point_f.mean_response_time:.4f} vs CRN "
            f"{point_r.mean_response_time:.4f} (CI budget {budget:.4f})")

    record = {
        "benchmark": "figure_4_2_variance_reduction",
        "scale": scale,
        "strategies": strategies,
        "rates": rates,
        "rel_precision": 0.1,
        "max_replications": 8,
        "points": len(reduced_points),
        "fixed_replications": fixed_reps,
        "adaptive_plain_replications": plain.report.replications_total,
        "adaptive_plain_converged": sum(
            1 for p in plain.report.points if p.converged),
        "crn_replications": reduced_reps,
        "crn_converged": sum(
            1 for p in reduced.report.points if p.converged),
        "replication_ratio_vs_fixed": round(fixed_reps / reduced_reps, 3),
        "fixed_seconds": round(fixed_seconds, 3),
        "crn_seconds": round(reduced_seconds, 3),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    target = REPO_ROOT / "BENCH_variance.json"
    history = []
    if target.exists():
        try:
            history = json.loads(target.read_text())
        except (ValueError, OSError):
            history = []
    if not isinstance(history, list):
        history = [history]
    history.append(record)
    target.write_text(json.dumps(history, indent=2) + "\n")


def test_bench_observability_overhead_budget():
    """The full observer stack must cost <= 10% of a bare run.

    Times a hot run bare, then the same run with every pure observer
    attached at once -- routing audit and a zero-buffer streaming
    tracer; the metrics registry is part of every run -- and enforces
    the overhead budget
    that keeps instrumentation on by default.  Best-of-N wall-clock on
    both sides damps scheduler noise (a single-shot ratio on a shared
    runner drifts far more than the budget itself).
    """
    from repro.experiments.runner import run_single
    from repro.obs.audit import RoutingAudit
    from repro.sim.trace import Tracer

    settings = RunSettings(warmup_time=5.0, measure_time=30.0,
                           base_seed=11)
    attempts = 5

    def best_of(runner):
        best = float("inf")
        reference = None
        for _ in range(attempts):
            started = time.perf_counter()
            result = runner()
            elapsed = time.perf_counter() - started
            if elapsed < best:
                best = elapsed
            reference = result
        return best, reference

    bare_seconds, bare = best_of(
        lambda: run_single("queue-length", 18.0, settings=settings))
    observed_seconds, observed = best_of(
        lambda: run_single("queue-length", 18.0, settings=settings,
                           audit=RoutingAudit(),
                           tracer=Tracer(max_records=0)))

    # The observers must not have changed the run they were measuring.
    assert observed.identity_dict() == bare.identity_dict()

    overhead = observed_seconds / bare_seconds - 1.0
    assert overhead <= 0.10, (
        f"observability overhead {overhead:.1%} exceeds the 10% budget "
        f"(bare {bare_seconds:.3f}s, observed {observed_seconds:.3f}s)")


def test_bench_resource_contention(benchmark):
    """Request/queue/release cycling through a contended resource."""

    def run():
        env = Environment()
        cpu = Resource(env)
        done = []

        def user(env):
            for _ in range(100):
                with cpu.request() as req:
                    yield req
                    yield env.timeout(0.001)
            done.append(1)

        for _ in range(20):
            env.process(user(env))
        env.run()
        return len(done)

    assert benchmark(run) == 20


def test_bench_lock_manager_acquire_release(benchmark):
    """Uncontended acquire/release pairs (the protocol's hot path)."""

    env = Environment()
    manager = LockManager(env)

    def run():
        for txn in range(100):
            for entity in range(10):
                manager.acquire(txn, entity * 31 + txn, LockMode.EXCLUSIVE)
            manager.release_all(txn)
        return manager.locks_granted

    benchmark(run)


def test_bench_analytic_model_evaluate(benchmark):
    """One fixed-point solve of the Section 3.1 model."""
    model = AnalyticModel(paper_config(total_rate=20.0))
    estimate = benchmark(lambda: model.evaluate(0.5, 2.0))
    assert estimate.response_average > 0


def test_bench_static_optimizer(benchmark):
    """Full grid optimisation of p_ship (41 + 21 model solves)."""
    config = paper_config(total_rate=20.0)
    optimum = benchmark.pedantic(lambda: optimize_static(config),
                                 rounds=3, iterations=1)
    assert 0.0 <= optimum.p_ship <= 1.0


def test_bench_simulation_point(benchmark):
    """End-to-end cost of one short simulated run at 20 tps."""
    config = paper_config(total_rate=20.0, warmup_time=5.0,
                          measure_time=15.0)

    result = benchmark.pedantic(
        lambda: HybridSystem(config, lambda c, i: AlwaysLocalRouter()).run(),
        rounds=3, iterations=1)
    assert result.completed > 0
