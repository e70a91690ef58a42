"""Integration tests for fault injection against the hybrid system."""

import dataclasses

import pytest

from repro.core import STRATEGIES
from repro.db.locks import LockMode
from repro.db.transaction import Reference, Transaction, TransactionClass
from repro.hybrid import HybridSystem, paper_config
from repro.hybrid.checker import attach_checker
from repro.sim.faults import (
    CENTRAL_OUTAGE,
    CPU_SLOWDOWN,
    FaultEpisode,
    FaultPlan,
    RetryPolicy,
    breaker_flap_plan,
    site_crash_plan,
)

#: A tight retry budget so recovery fits in short test horizons.
FAST_RETRY = RetryPolicy(message_timeout=0.5, backoff=2.0,
                         max_message_timeout=2.0, shipment_timeout=1.0,
                         shipment_attempts=2, snapshot_max_age=5.0)


def build(strategy="static-optimal", total_rate=20.0, seed=11,
          warmup=5.0, measure=40.0, fault_plan=None):
    config = paper_config(total_rate=total_rate, warmup_time=warmup,
                          measure_time=measure, seed=seed)
    return HybridSystem(config, STRATEGIES[strategy](config),
                        fault_plan=fault_plan)


def outage_plan(start=10.0, duration=4.0, retry=FAST_RETRY):
    return FaultPlan(episodes=(FaultEpisode(
        kind=CENTRAL_OUTAGE, start=start, duration=duration),),
        retry=retry)


def _normalize(result):
    return dataclasses.replace(result, engine_events_per_sec=0.0,
                               wall_clock_seconds=0.0)


# -- bit-identity and determinism -------------------------------------------


def test_empty_plan_is_bit_identical_to_no_plan():
    plain = build().run()
    empty = build(fault_plan=FaultPlan.empty()).run()
    assert _normalize(plain) == _normalize(empty)
    # Including the engine profile: not one extra event was scheduled.
    assert plain.engine_events == empty.engine_events


def test_same_seed_same_plan_is_deterministic():
    plan = outage_plan()
    first = build(fault_plan=plan).run()
    second = build(fault_plan=plan).run()
    assert _normalize(first) == _normalize(second)
    assert first.engine_events == second.engine_events
    assert first.messages_dropped == second.messages_dropped
    assert first.messages_retransmitted == second.messages_retransmitted


def test_different_seed_differs_under_faults():
    plan = outage_plan()
    first = build(seed=11, fault_plan=plan).run()
    second = build(seed=12, fault_plan=plan).run()
    assert first.throughput != second.throughput


# -- central outage ----------------------------------------------------------


def test_outage_degrades_then_recovers():
    plan = outage_plan()
    result = build(fault_plan=plan).run()
    assert result.fault_events == 2  # apply + revert
    assert result.messages_dropped > 0
    assert result.messages_retransmitted > 0
    (report,) = result.fault_episodes
    assert report.kind == CENTRAL_OUTAGE
    assert report.degraded_throughput < report.baseline_throughput
    assert report.time_to_recover is not None


def test_no_shipped_transaction_hangs_after_recovery():
    """Every shipment from the outage window must be settled (committed,
    failed over, or failed) once recovery plus the retry budget passed;
    only shipments from just before the horizon may still be pending."""
    plan = outage_plan(start=10.0, duration=4.0)
    system = build(fault_plan=plan)
    result = system.run()
    horizon = system.config.run_until
    # Worst-case settle time: full shipment budget plus cancel round trip.
    budget = (FAST_RETRY.shipment_timeout *
              (1 + FAST_RETRY.backoff) + 4 * FAST_RETRY.max_message_timeout)
    for site in system.sites:
        for txn in site._pending_ship.values():
            assert txn.arrival_time > horizon - budget, (
                f"txn {txn.txn_id} from t={txn.arrival_time:.1f} "
                f"still unsettled at t={horizon:.1f}")
    # The outage produced real protocol work.
    assert result.txns_timed_out > 0
    assert result.txns_timed_out >= (result.txns_failed_over +
                                     result.txns_failed)


def test_class_a_fails_over_and_class_b_fails():
    result = build(fault_plan=outage_plan(), measure=60.0).run()
    assert result.txns_failed_over > 0   # class A re-ran locally
    assert result.txns_failed > 0        # class B has nowhere to go
    assert result.availability < 1.0
    assert result.availability > 0.9


def test_failure_aware_routing_kicks_in():
    result = build(fault_plan=outage_plan(), measure=60.0).run()
    # While central is suspected, class A arrivals route locally without
    # consulting the router.
    assert result.fallback_routings > 0


def test_half_open_breaker_draws_once_per_strategy_routed_arrival():
    """The breaker's half-open probe is drawn once per class A arrival
    that reaches the router, not again while building the observation."""
    system = build(fault_plan=breaker_flap_plan(5.0, 40.0))
    site = system.sites[0]
    site.breaker.state = "half-open"
    site.breaker.probe = 1.0  # the probe always passes
    rng = site.breaker._rng_factory()
    draws = []

    class CountingRng:
        def random(self):
            draws.append(1)
            return rng.random()

    site.breaker._rng_factory = CountingRng
    decide = site.router.decide
    observations = []

    def routed(txn, observation):
        observations.append(observation)
        return decide(txn, observation)

    site.router.decide = routed
    low, _high = system.partition.site_range(0)
    txn = Transaction(txn_id=10**6, txn_class=TransactionClass.A,
                      home_site=0,
                      references=(Reference(low, LockMode.SHARE),),
                      arrival_time=0.0)
    site.submit(txn)
    assert len(observations) == 1  # routed by the strategy
    assert len(draws) == 1


def test_checker_stays_clean_through_outage():
    plan = outage_plan()
    system = build(fault_plan=plan)
    checker = attach_checker(system)
    system.run()  # raises InvariantViolation on any protocol breach
    assert checker.stats.completions_checked > 100
    assert checker.stats.updates_checked > 0


# -- other fault kinds -------------------------------------------------------


def test_site_crash_rejects_arrivals():
    plan = site_crash_plan(warmup_time=5.0, measure_time=40.0, site=0,
                           retry=FAST_RETRY)
    result = build(fault_plan=plan).run()
    assert result.arrivals_rejected > 0
    assert result.fault_events == 2


def test_central_cpu_slowdown_reduces_throughput():
    slow = FaultPlan(episodes=(FaultEpisode(
        kind=CPU_SLOWDOWN, start=6.0, duration=38.0, slowdown=8.0),),
        retry=FAST_RETRY)
    baseline = build(strategy="static-optimal").run()
    slowed = build(strategy="static-optimal", fault_plan=slow).run()
    assert slowed.throughput < baseline.throughput


def test_service_scale_identity_is_exact():
    """service_scale 1.0 must not perturb service times at all."""
    from repro.hybrid.base import SiteBase
    from repro.sim.engine import Environment

    config = paper_config(total_rate=10.0)
    site = SiteBase(Environment(), config, mips=1.0, name="s")
    healthy = site.service_time(30_000)
    site.service_scale = 1.0
    assert site.service_time(30_000) == healthy
    site.service_scale = 2.0
    assert site.service_time(30_000) == 2 * healthy


# -- experiments-layer integration ------------------------------------------


def test_fault_plan_changes_cache_key_but_empty_does_not():
    from repro.experiments.cache import ResultCache

    config = paper_config(total_rate=20.0, warmup_time=5.0,
                          measure_time=20.0, seed=3)
    plain = ResultCache.key_for(config, "name:static-optimal")
    empty = ResultCache.key_for(config, "name:static-optimal",
                                fault_plan=FaultPlan.empty())
    none_plan = ResultCache.key_for(config, "name:static-optimal",
                                    fault_plan=None)
    faulted = ResultCache.key_for(config, "name:static-optimal",
                                  fault_plan=outage_plan())
    assert plain == empty == none_plan
    assert faulted != plain
    # Retry policy alone (no episodes -> no behaviour change) is inert;
    # with episodes, a different retry policy is a different simulation.
    other_retry = outage_plan(retry=RetryPolicy())
    assert ResultCache.key_for(config, "name:static-optimal",
                               fault_plan=other_retry) != faulted


def test_parallel_runner_caches_faulted_jobs(tmp_path):
    from repro.experiments.cache import ResultCache
    from repro.experiments.parallel import JobSpec, ParallelRunner

    config = paper_config(total_rate=15.0, warmup_time=4.0,
                          measure_time=12.0, seed=5)
    spec = JobSpec(strategy="static-optimal", config=config,
                   fault_plan=outage_plan(start=6.0, duration=2.0))
    cache = ResultCache(tmp_path)
    first_runner = ParallelRunner(cache=cache)
    (first,) = first_runner.run_jobs([spec])
    assert first_runner.jobs_executed == 1
    second_runner = ParallelRunner(cache=cache)
    (second,) = second_runner.run_jobs([spec])
    assert second_runner.jobs_cached == 1
    assert first == second


def test_run_single_accepts_fault_plan():
    from repro.experiments.runner import RunSettings, run_single

    settings = RunSettings(warmup_time=4.0, measure_time=12.0, scale=1.0)
    result = run_single("static-optimal", 15.0, settings=settings,
                        fault_plan=outage_plan(start=6.0, duration=2.0))
    assert result.fault_events == 2
    assert result.throughput > 0


def test_availability_experiment_compares_strategies():
    from repro.experiments.availability import run_availability
    from repro.experiments.runner import RunSettings

    settings = RunSettings(warmup_time=4.0, measure_time=16.0)
    comparison = run_availability(
        total_rate=15.0, strategies=("none", "static-optimal"),
        plan=outage_plan(start=8.0, duration=3.0), settings=settings)
    assert len(comparison.points) == 2
    for point in comparison.points:
        assert point.baseline.throughput > 0
        assert point.faulted.throughput > 0
        assert 0.0 <= point.faulted.availability <= 1.0
    table = comparison.to_table()
    assert "static-optimal" in table


def test_telemetry_json_carries_availability_section():
    import json

    from repro.experiments.export import telemetry_to_json

    result = build(fault_plan=outage_plan()).run()
    document = json.loads(telemetry_to_json(result))
    section = document["availability"]
    assert section["ratio"] == pytest.approx(result.availability)
    assert section["episodes"][0]["kind"] == CENTRAL_OUTAGE
