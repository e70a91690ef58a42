"""Ablation benchmarks for the design choices called out in DESIGN.md.

Each ablation flips one modelling/protocol choice and reports its effect
at a loaded operating point (25 tps, 0.2 s delay):

* **state staleness** -- dynamic routing with instantaneous central state
  vs the paper's delayed (authentication-piggybacked) state;
* **rerun lock retention** -- Section 3.1 models aborted transactions as
  keeping their surviving locks across the re-run; the ablation releases
  everything on abort.
"""

from conftest import BENCH_SCALE, run_once

from repro.core import STRATEGIES
from repro.hybrid import HybridSystem, paper_config

RATE = 25.0


def _point(strategy_name, **overrides):
    config = paper_config(
        total_rate=RATE,
        warmup_time=30.0 * BENCH_SCALE,
        measure_time=90.0 * BENCH_SCALE,
        **overrides)
    factory = STRATEGIES[strategy_name](config)
    return HybridSystem(config, factory).run()


def test_ablation_state_staleness(benchmark):
    """Delayed vs instantaneous central state for the best dynamic."""

    def run():
        delayed = _point("min-average-population")
        instant = _point("min-average-population",
                         instant_central_state=True)
        fresher = _point("min-average-population",
                         snapshot_on_update_acks=True)
        return delayed, instant, fresher

    delayed, instant, fresher = run_once(benchmark, run)
    print(f"\n  delayed-state RT:  {delayed.mean_response_time:.3f}s "
          f"(ship {delayed.shipped_fraction:.2f})")
    print(f"  ack-refreshed RT:  {fresher.mean_response_time:.3f}s "
          f"(ship {fresher.shipped_fraction:.2f})")
    print(f"  instant-state RT:  {instant.mean_response_time:.3f}s "
          f"(ship {instant.shipped_fraction:.2f})")
    # Fresher information should not make routing substantially worse.
    assert instant.mean_response_time < delayed.mean_response_time * 1.15
    # All variants keep the system stable at this operating point.
    for result in (delayed, instant, fresher):
        assert result.throughput > RATE * 0.9


def test_ablation_rerun_lock_retention(benchmark):
    """Keep locks across re-runs (paper) vs release-all on abort."""

    def run():
        keep = _point("none")
        release = _point("none", keep_locks_on_abort=False)
        return keep, release

    keep, release = run_once(benchmark, run)
    print(f"\n  keep-locks RT:    {keep.mean_response_time:.3f}s "
          f"(aborts/txn {keep.abort_rate:.3f})")
    print(f"  release-all RT:   {release.mean_response_time:.3f}s "
          f"(aborts/txn {release.abort_rate:.3f})")
    # Both remain stable; the choice is second-order at this load.
    assert keep.throughput > RATE * 0.6   # 'none' saturates near 20 tps
    assert release.throughput > RATE * 0.6


def test_ablation_update_mix(benchmark):
    """Share/exclusive reference mix: fewer updates, fewer aborts.

    The paper's workload is update-intensive (every collision can
    abort); lowering p_update converts cross-site conflicts into
    shareable accesses and shrinks both the abort rate and the
    propagation traffic.
    """
    from dataclasses import replace

    from repro.hybrid import HybridSystem

    def run():
        results = {}
        for p_update in (1.0, 0.5):
            config = paper_config(
                total_rate=RATE,
                warmup_time=30.0 * BENCH_SCALE,
                measure_time=90.0 * BENCH_SCALE)
            config = config.with_options(
                workload=replace(config.workload, p_update=p_update))
            factory = STRATEGIES["min-average-population"](config)
            results[p_update] = HybridSystem(config, factory).run()
        return results

    results = run_once(benchmark, run)
    print()
    for p_update, result in sorted(results.items(), reverse=True):
        print(f"  p_update={p_update}: RT="
              f"{result.mean_response_time:.3f}s aborts/txn="
              f"{result.abort_rate:.4f} msgs-to-central="
              f"{result.messages_to_central}")
    # Halving the update fraction roughly halves the cross-site
    # conflict surface (message *count* is unchanged -- one propagation
    # per committing transaction -- only its contents shrink).
    assert results[0.5].abort_rate < results[1.0].abort_rate


def test_ablation_local_fraction(benchmark):
    """Sensitivity to the class A fraction (p_local)."""

    def run():
        results = {}
        for p_local in (0.6, 0.75, 0.9):
            config = paper_config(
                total_rate=RATE,
                warmup_time=30.0 * BENCH_SCALE,
                measure_time=90.0 * BENCH_SCALE)
            config = config.with_options(
                workload=config.workload.__class__(
                    n_sites=config.workload.n_sites,
                    lockspace=config.workload.lockspace,
                    locks_per_txn=config.workload.locks_per_txn,
                    p_local=p_local,
                    p_update=config.workload.p_update,
                    arrival_rate_per_site=(
                        config.workload.arrival_rate_per_site)))
            factory = STRATEGIES["min-average-population"](config)
            results[p_local] = HybridSystem(config, factory).run()
        return results

    results = run_once(benchmark, run)
    print()
    for p_local, result in sorted(results.items()):
        print(f"  p_local={p_local}: RT={result.mean_response_time:.3f}s "
              f"ship={result.shipped_fraction:.2f} "
              f"u_c={result.mean_central_utilization:.2f}")
    # More class B work (lower p_local) pushes more load to the central
    # site.
    assert results[0.6].mean_central_utilization > \
        results[0.9].mean_central_utilization
