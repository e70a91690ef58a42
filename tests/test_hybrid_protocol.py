"""Integration tests of the hybrid protocol (coherence, authentication).

These tests build a quiescent :class:`HybridSystem` (background arrival
rate ~0) and inject hand-crafted transactions to exercise specific
protocol interactions from Section 2 of the paper:

* asynchronous update propagation and coherence counts;
* authentication grants, local invalidation (eviction + abort mark);
* negative acknowledgements when updates are in flight;
* invalidation of central transactions by asynchronous updates;
* deadlock abort-and-rerun at a site.
"""

import itertools

import pytest

from repro.core.router import AlwaysLocalRouter, AlwaysShipRouter
from repro.db import LockMode, Placement, Reference, Transaction, \
    TransactionClass
from repro.hybrid import HybridSystem, paper_config

IDS = itertools.count(10_000)


def quiet_system(router_factory=None, **overrides):
    """A paper-parameterised system with (effectively) no arrivals."""
    cfg = paper_config(total_rate=1e-6, warmup_time=0.0,
                      measure_time=1000.0, **overrides)
    factory = router_factory or (lambda c, i: AlwaysLocalRouter())
    return HybridSystem(cfg, factory)


def make_txn(entities, txn_class=TransactionClass.A, site=0, now=0.0,
             mode=LockMode.EXCLUSIVE):
    return Transaction(
        txn_id=next(IDS), txn_class=txn_class, home_site=site,
        references=tuple(Reference(e, mode) for e in entities),
        arrival_time=now)


# ---------------------------------------------------------------------------
# Local commit and asynchronous propagation
# ---------------------------------------------------------------------------

def test_local_commit_increments_then_clears_coherence():
    # A 1-second link keeps the acknowledgement in flight long enough to
    # observe the pending coherence counts.
    system = quiet_system(comm_delay=1.0)
    site = system.sites[0]
    txn = make_txn([5, 6, 7])
    site.submit(txn)
    # Run until the transaction commits locally (~0.4 s) but before the
    # update acknowledgement returns (>= 2 s round trip).
    system.env.run(until=1.0)
    assert txn.completed_at is not None
    counts_after_commit = [site.locks.coherence_count(e) for e in (5, 6, 7)]
    assert counts_after_commit == [1, 1, 1]
    # ...and the counts clear once the round trip completes.
    system.env.run(until=5.0)
    assert [site.locks.coherence_count(e) for e in (5, 6, 7)] == [0, 0, 0]


def test_local_commit_releases_locks_before_ack():
    """Commit must not wait for the central acknowledgement."""
    system = quiet_system()
    site = system.sites[0]
    txn = make_txn([11, 12])
    site.submit(txn)
    system.env.run(until=2.0)
    # Committed and locks released well before the ACK round trip ends.
    assert txn.completed_at is not None
    assert txn.completed_at < 2.0
    assert site.locks.entities_locked_by(txn.txn_id) == []


def test_local_response_time_excludes_propagation():
    """A purely local transaction's RT is set by CPU+I/O, not comm delay."""
    system = quiet_system()
    site = system.sites[0]
    txn = make_txn([3])
    site.submit(txn)
    system.env.run(until=3.0)
    # 1 reference: io_initial + overhead 0.15s + call 0.03s + io 0.025
    # + commit 0.03s  ~=  0.26s; far below one comm delay round trip.
    assert txn.response_time < 0.4


def test_consecutive_updates_same_entity_stack_coherence():
    system = quiet_system(comm_delay=1.0)
    site = system.sites[0]
    first = make_txn([42])
    second = make_txn([42])
    site.submit(first)
    site.submit(second)
    system.env.run(until=1.0)  # both committed, ACKs still in flight
    assert site.locks.coherence_count(42) == 2
    system.env.run(until=6.0)
    assert site.locks.coherence_count(42) == 0


# ---------------------------------------------------------------------------
# Shipped execution and authentication
# ---------------------------------------------------------------------------

def test_shipped_transaction_completes_with_comm_delays():
    system = quiet_system(router_factory=lambda c, i: AlwaysShipRouter())
    site = system.sites[0]
    txn = make_txn([20, 21])
    site.submit(txn)
    system.env.run(until=10.0)
    assert txn.completed_at is not None
    # At minimum: ship 0.2 + auth round trip 0.4 + response 0.2.
    assert txn.response_time >= 0.8
    assert txn.placement is Placement.SHIPPED


def test_shipped_in_flight_counter_roundtrip():
    system = quiet_system(router_factory=lambda c, i: AlwaysShipRouter())
    site = system.sites[0]
    txn = make_txn([30])
    site.submit(txn)
    assert site.shipped_in_flight == 1
    system.env.run(until=10.0)
    assert site.shipped_in_flight == 0


def test_authentication_evicts_conflicting_local_transaction():
    """A committing shipped transaction aborts a conflicting local one."""
    system = quiet_system()
    env = system.env
    site = system.sites[0]

    shipped = make_txn([50, 51])
    shipped.route(Placement.SHIPPED)
    # A long local transaction: it holds entity 50 from ~0.18 s until
    # ~0.45 s, squarely across the shipped transaction's authentication
    # (which reaches the master around ~0.3 s).
    local = make_txn([50, 52, 53, 54, 55, 56, 57])

    site.submit(local)
    system.central.admit(shipped)
    env.run(until=15.0)
    assert shipped.completed_at is not None
    assert local.completed_at is not None
    # The local transaction was marked, aborted and re-run at least once.
    assert local.aborts >= 1
    assert local.run_count >= 2


def test_authentication_nak_on_inflight_update():
    """Authentication overlapping an unacknowledged update gets NAK'd."""
    system = quiet_system()
    env = system.env
    site = system.sites[0]

    local = make_txn([60])
    shipped = make_txn([60, 61])
    shipped.route(Placement.SHIPPED)

    naks_before = system.metrics.counts()["auth_negative_acks"]

    # Local commits around t~0.26 and its update needs ~0.4 s to be
    # acknowledged.  A central transaction authenticating on the same
    # entity inside that window (auth reaches the master ~0.3 s) must
    # receive a negative acknowledgement.
    site.submit(local)
    system.central.admit(shipped)
    env.run(until=20.0)
    assert local.completed_at is not None
    assert shipped.completed_at is not None
    assert system.metrics.counts()["auth_negative_acks"] > naks_before
    assert shipped.run_count >= 2  # re-executed after the NAK


def test_central_transaction_invalidated_by_async_update():
    """A central transaction holding entities later updated locally aborts."""
    system = quiet_system()
    env = system.env
    site = system.sites[3]

    # Entity in site 3's partition.
    start, _ = system.partition.site_range(3)
    entity = start + 5
    # A slow class B transaction (10 database calls ~0.3 s of execution
    # before authentication) that locks the contested entity early.
    central_txn = make_txn([entity + offset for offset in range(10)],
                           txn_class=TransactionClass.B, site=3)
    central_txn.route(Placement.CENTRAL)
    # A fast local transaction updating the same entity: it commits at
    # ~0.26 s and its asynchronous update reaches the central site at
    # ~0.46 s, while the class B transaction is still executing.
    local_txn = make_txn([entity], site=3)

    system.central.admit(central_txn)
    site.submit(local_txn)
    env.run(until=20.0)
    assert local_txn.completed_at is not None
    assert central_txn.completed_at is not None
    assert central_txn.aborts >= 1


def test_class_b_authenticates_at_every_master():
    system = quiet_system()
    env = system.env
    # One entity in each of three different partitions.
    entities = [system.partition.site_range(s)[0] for s in (0, 4, 7)]
    txn = make_txn(entities, txn_class=TransactionClass.B, site=0)
    txn.route(Placement.CENTRAL)
    system.central.admit(txn)
    env.run(until=10.0)
    assert txn.completed_at is not None
    # Authentication messages must have reached sites 0, 4 and 7; their
    # lock managers saw forced grants.
    for s in (0, 4, 7):
        assert system.sites[s].locks.forced_grants >= 1


def test_commit_order_releases_master_locks():
    system = quiet_system()
    env = system.env
    site = system.sites[0]
    txn = make_txn([70, 71])
    txn.route(Placement.SHIPPED)
    system.central.admit(txn)
    env.run(until=10.0)
    assert txn.completed_at is not None
    # After commit the master holds no locks for the shipped transaction.
    assert site.locks.entities_locked_by(txn.txn_id) == []
    assert site.locks.total_locks_held() == 0


# ---------------------------------------------------------------------------
# Deadlock handling
# ---------------------------------------------------------------------------

def test_local_deadlock_aborts_and_completes():
    system = quiet_system()
    env = system.env
    site = system.sites[0]
    # Opposite acquisition orders on a shared entity pair.
    txn_a = make_txn([100, 101, 102, 103])
    txn_b = make_txn([103, 102, 101, 100])

    site.submit(txn_a)
    site.submit(txn_b)
    env.run(until=30.0)
    assert txn_a.completed_at is not None
    assert txn_b.completed_at is not None
    # With identical arrival times and interleaved CPU bursts the lock
    # orders cross; at least one deadlock abort should have occurred.
    assert txn_a.deadlock_aborts + txn_b.deadlock_aborts >= 1


# ---------------------------------------------------------------------------
# Determinism and accounting
# ---------------------------------------------------------------------------

def test_same_seed_reproduces_results_exactly():
    def run():
        cfg = paper_config(total_rate=12.0, warmup_time=5.0,
                           measure_time=20.0, seed=99)
        return HybridSystem(cfg, lambda c, i: AlwaysLocalRouter()).run()

    first, second = run(), run()
    assert first.mean_response_time == second.mean_response_time
    assert first.completed == second.completed
    assert first.aborts_total == second.aborts_total


def test_different_seeds_differ():
    def run(seed):
        cfg = paper_config(total_rate=12.0, warmup_time=5.0,
                           measure_time=20.0, seed=seed)
        return HybridSystem(cfg, lambda c, i: AlwaysLocalRouter()).run()

    assert run(1).mean_response_time != run(2).mean_response_time


def test_throughput_matches_arrival_rate_when_stable():
    cfg = paper_config(total_rate=10.0, warmup_time=10.0, measure_time=60.0)
    result = HybridSystem(cfg, lambda c, i: AlwaysLocalRouter()).run()
    assert result.throughput == pytest.approx(10.0, rel=0.1)


def test_all_ship_fraction_is_one():
    cfg = paper_config(total_rate=5.0, warmup_time=5.0, measure_time=30.0)
    result = HybridSystem(cfg, lambda c, i: AlwaysShipRouter()).run()
    assert result.shipped_fraction == 1.0


def test_no_sharing_fraction_is_zero():
    cfg = paper_config(total_rate=5.0, warmup_time=5.0, measure_time=30.0)
    result = HybridSystem(cfg, lambda c, i: AlwaysLocalRouter()).run()
    assert result.shipped_fraction == 0.0


def test_central_utilization_higher_when_shipping():
    cfg = paper_config(total_rate=10.0, warmup_time=10.0, measure_time=40.0)
    local = HybridSystem(cfg, lambda c, i: AlwaysLocalRouter()).run()
    shipped = HybridSystem(cfg, lambda c, i: AlwaysShipRouter()).run()
    assert shipped.mean_central_utilization > local.mean_central_utilization
    assert shipped.mean_local_utilization < local.mean_local_utilization


def test_instant_central_state_ablation_flag():
    system = quiet_system(instant_central_state=True)
    observation = system.sites[0].observe()
    # Instant state reflects "now", not a stale snapshot.
    assert observation.central.time == system.env.now
    assert observation.central_state_age == 0.0


def test_delayed_central_state_starts_stale():
    system = quiet_system()
    observation = system.sites[0].observe()
    assert observation.central_state_age == float("inf")


