"""Chaos smoke: the CI gate for fault-injection robustness.

Runs the canned ``chaos`` scenario (lossy links bracketing a central
outage plus a CPU-slowdown on re-entry) with the protocol-invariant
checker attached, and asserts the system's liveness contract: committed
throughput stays nonzero, every transaction from the fault window is
settled (committed, failed over, or counted failed), and not a single
protocol invariant is violated through degradation and recovery.
"""

from dataclasses import replace

import pytest

from repro.core import STRATEGIES
from repro.db.locks import LockManager
from repro.db.replica import replica_divergence
from repro.hybrid import HybridSystem, LocalSite, paper_config
from repro.hybrid.checker import attach_checker
from repro.hybrid.protocol import AuthReply
from repro.sim.faults import (
    RetryPolicy,
    breaker_flap_plan,
    chaos_plan,
    failover_outage_plan,
    rejoin_crash_plan,
    standard_outage_plan,
)

WARMUP = 5.0
MEASURE = 45.0

#: A retry policy quick enough for the short smoke horizon.
RETRY = RetryPolicy(message_timeout=0.5, backoff=2.0,
                    max_message_timeout=2.0, shipment_timeout=1.0,
                    shipment_attempts=2, snapshot_max_age=5.0)


def run_with_checker(plan, strategy="static-optimal", total_rate=22.0):
    config = paper_config(total_rate=total_rate, warmup_time=WARMUP,
                          measure_time=MEASURE, seed=29)
    system = HybridSystem(config, STRATEGIES[strategy](config),
                          fault_plan=plan)
    checker = attach_checker(system)
    result = system.run()  # raises InvariantViolation on any breach
    return system, checker, result


def test_chaos_plan_keeps_committing_with_zero_violations():
    plan = chaos_plan(warmup_time=WARMUP, measure_time=MEASURE,
                      retry=RETRY)
    system, checker, result = run_with_checker(plan)
    # Nonzero committed throughput through lossy links + outage.
    assert result.throughput > 1.0
    assert result.completed > 100
    # All three episode kinds applied and reverted.
    assert result.fault_events == 6
    assert len(result.fault_episodes) == 3
    # The faults actually bit: losses and retransmissions happened.
    assert result.messages_dropped > 0
    assert result.messages_retransmitted > 0
    # Zero checker violations (a breach raises) and real coverage.
    assert checker.stats.audits > 50
    assert checker.stats.completions_checked > 100


def test_outage_settles_every_fault_window_transaction():
    plan = standard_outage_plan(warmup_time=WARMUP, measure_time=MEASURE,
                                retry=RETRY)
    system, checker, result = run_with_checker(plan)
    (episode,) = system.fault_plan.episodes
    # Nothing shipped during the outage window may still be pending:
    # recovery happened at episode.end, the shipment budget is ~3s plus
    # the cancel round trip, and the horizon leaves ample slack.
    for site in system.sites:
        for txn in site._pending_ship.values():
            assert txn.arrival_time > episode.end, (
                f"txn {txn.txn_id} (arrived {txn.arrival_time:.1f}s, "
                f"outage {episode.start:.1f}..{episode.end:.1f}s) "
                f"never settled")
    assert result.throughput > 1.0
    # The fate accounting is complete: timeouts either failed over,
    # failed permanently, or turned out to be completions.
    assert result.txns_timed_out >= (result.txns_failed_over +
                                     result.txns_failed)


def test_failover_keeps_class_b_completing_through_outage():
    """Hot-standby takeover mid-outage beats degrade-only riding it out.

    Same outage schedule, same seed, same retry policy -- the only
    difference is the recovery policy, so any availability gain is the
    failover protocol's doing.
    """
    plan = failover_outage_plan(warmup_time=WARMUP, measure_time=MEASURE,
                                retry=RETRY)
    baseline = standard_outage_plan(warmup_time=WARMUP,
                                    measure_time=MEASURE, retry=RETRY)
    system, checker, result = run_with_checker(plan)
    _, _, degraded = run_with_checker(baseline)
    (episode,) = system.fault_plan.episodes
    # The standby declared the primary dead and took over exactly once.
    assert system.standby is not None and system.standby.is_active
    assert result.failover_takeovers == 1
    # Class-B work stranded mid-auth-round was re-shipped to the standby
    # and completed during the episode instead of failing over to class A.
    assert result.txns_reshipped > 0
    assert result.availability > degraded.availability
    # The repair was measured: MTTR populated and attached to the episode.
    assert result.mttr is not None and result.mttr > 0.0
    assert result.fault_episodes[0].recovery_time == pytest.approx(
        result.mttr)
    # Zero transactions hang past sim end: anything still pending at the
    # horizon arrived after the outage, not during it.
    for site in system.sites:
        for txn in site._pending_ship.values():
            assert txn.arrival_time > episode.end, (
                f"txn {txn.txn_id} from the outage window never settled")
    assert checker.stats.audits > 50
    assert checker.stats.completions_checked > 100


def test_rejoin_restores_crashed_site_with_catchup():
    plan = rejoin_crash_plan(warmup_time=WARMUP, measure_time=MEASURE,
                             site=0, retry=RETRY)
    system, checker, result = run_with_checker(plan)
    (episode,) = system.fault_plan.episodes
    site = system.sites[0]
    # The site rejoined via snapshot catch-up and is serving again.
    assert result.site_rejoins == 1
    assert not site.crashed and not site.recovering
    # The crash destroyed in-flight work; the rejoin measured its repair.
    assert result.txns_lost_in_crash > 0
    assert result.mttr is not None and result.mttr > 0.0
    assert result.fault_episodes[0].recovery_time == pytest.approx(
        result.mttr)
    # Arrivals queued during recovery were admitted after catch-up, not
    # dropped wholesale: the lock manager is replaced wholesale at crash
    # time, so every grant it has seen happened after the crash.
    assert site.locks.locks_granted > 0
    assert len(site._admission_queue) == 0
    assert checker.stats.audits > 50


@pytest.mark.parametrize("protocol", ["optimistic", "epoch"])
def test_drained_rejoin_leaves_nothing_behind(protocol):
    """After a crash-rejoin and a drain, the rejoined site's replica
    matches central's and no lock, transaction or update is stranded.

    Guards two rejoin faults: commit orders applied while the snapshot
    installed were overwritten by it (replica divergence), and central
    re-sent an auth request the rejoined site was already answering, so
    the second grant was never released (a local transaction waited on
    it forever).
    """
    config = paper_config(total_rate=22.0, warmup_time=WARMUP,
                          measure_time=MEASURE, seed=29, protocol=protocol)
    plan = rejoin_crash_plan(warmup_time=WARMUP, measure_time=MEASURE,
                             site=0, retry=RETRY)
    system = HybridSystem(config, STRATEGIES["static-optimal"](config),
                          fault_plan=plan)
    attach_checker(system)
    system.env.run(until=WARMUP + MEASURE)
    for arrival in system.arrivals:
        arrival.process.interrupt("stop")
    system.env.run(until=WARMUP + MEASURE + 120.0)
    assert [record.kind for record in system.metrics.recoveries] == \
        ["rejoin"]
    assert replica_divergence(system) == {}
    assert not system.central.active
    for site in system.sites:
        assert not site.active, (site.site_id, sorted(site.active))
        assert not site._pending_ship, site.site_id
        assert not site._unacked_updates, site.site_id


def test_crashed_site_neither_grants_nor_replies_to_auth(monkeypatch):
    """A master authentication check in flight when its site crashes
    dies with the site: no force-grant into the fresh lock table and no
    AuthReply from the dead site (seed 21 had one such check)."""
    config = paper_config(total_rate=22.0, warmup_time=WARMUP,
                          measure_time=MEASURE, seed=21)
    plan = rejoin_crash_plan(warmup_time=WARMUP, measure_time=MEASURE,
                             site=0, retry=RETRY)
    system = HybridSystem(config, STRATEGIES["static-optimal"](config),
                          fault_plan=plan)
    site = system.sites[0]
    while_crashed = []
    send_central = LocalSite._send_central
    force_grant = LockManager.force_grant

    def send(self, payload):
        if self.crashed and isinstance(payload, AuthReply):
            while_crashed.append(("auth-reply", payload.auth_id))
        return send_central(self, payload)

    def grant(self, txn_id, entity, mode):
        if self is site.locks and site.crashed:
            while_crashed.append(("force-grant", txn_id))
        return force_grant(self, txn_id, entity, mode)

    monkeypatch.setattr(LocalSite, "_send_central", send)
    monkeypatch.setattr(LockManager, "force_grant", grant)
    system.env.run(until=WARMUP + MEASURE)
    assert [record.kind for record in system.metrics.recoveries] == \
        ["rejoin"]
    assert while_crashed == []


def test_breaker_flaps_and_recovers_under_link_degradation():
    plan = breaker_flap_plan(warmup_time=WARMUP, measure_time=MEASURE,
                             retry=RETRY)
    # The canned 12s deadline suits the default retry budget; the quick
    # smoke retry exhausts its budget in ~3.5s, so tighten the deadline
    # below it or timeouts would always preempt the cancel path.
    plan = plan.with_recovery(replace(plan.recovery, deadline=2.0))
    system, checker, result = run_with_checker(plan)
    # The breaker actually cycled: opened on consecutive timeouts and
    # closed again via half-open probes once the link healed.
    assert result.breaker_transitions > 0
    states = {site.breaker.state for site in system.sites
              if site.breaker is not None}
    assert states == {"closed"}, f"breakers stuck at end: {states}"
    # Deadline propagation cancelled doomed shipments early.
    assert result.txns_deadline_cancelled > 0
    assert result.throughput > 1.0
    assert checker.stats.audits > 50


@pytest.mark.slow
def test_chaos_is_reproducible():
    plan = chaos_plan(warmup_time=WARMUP, measure_time=MEASURE,
                      retry=RETRY)
    _, _, first = run_with_checker(plan)
    _, _, second = run_with_checker(plan)
    assert first.throughput == second.throughput
    assert first.engine_events == second.engine_events
    assert first.messages_dropped == second.messages_dropped


@pytest.mark.slow
def test_failover_is_reproducible():
    plan = failover_outage_plan(warmup_time=WARMUP, measure_time=MEASURE,
                                retry=RETRY)
    _, _, first = run_with_checker(plan)
    _, _, second = run_with_checker(plan)
    assert first.throughput == second.throughput
    assert first.engine_events == second.engine_events
    assert first.failover_takeovers == second.failover_takeovers
    assert first.txns_reshipped == second.txns_reshipped
