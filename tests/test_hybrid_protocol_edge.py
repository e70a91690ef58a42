"""Trickier protocol interaction scenarios.

Beyond the basic flows of test_hybrid_protocol.py: sequences involving
repeated negative acknowledgements, waiting local transactions across an
authentication, stale-snapshot routing behaviour, and conflict between
two centrally running transactions.
"""

import itertools

import pytest

from repro.core.router import AlwaysLocalRouter
from repro.db import LockMode, Placement, Reference, Transaction, \
    TransactionClass
from repro.hybrid import HybridSystem, paper_config

IDS = itertools.count(50_000)


def quiet_system(**overrides):
    cfg = paper_config(total_rate=1e-6, warmup_time=0.0,
                       measure_time=1000.0, **overrides)
    return HybridSystem(cfg, lambda c, i: AlwaysLocalRouter())


def make_txn(entities, txn_class=TransactionClass.A, site=0,
             mode=LockMode.EXCLUSIVE):
    return Transaction(
        txn_id=next(IDS), txn_class=txn_class, home_site=site,
        references=tuple(Reference(e, mode) for e in entities),
        arrival_time=0.0)


def test_local_waiter_proceeds_after_central_commit():
    """A local transaction queued behind an authentication-held lock is
    granted once the commit order releases it (the paper's P_w wait)."""
    system = quiet_system()
    env = system.env
    site = system.sites[0]

    shipped = make_txn([500])
    shipped.route(Placement.SHIPPED)
    system.central.admit(shipped)
    # Let the shipped transaction reach authentication (~0.3 s), then
    # start a local transaction needing the same entity.
    env.run(until=0.35)
    assert site.locks.is_held_by(500, shipped.txn_id)
    local = make_txn([500])
    site.submit(local)
    env.run(until=10.0)
    assert shipped.completed_at is not None
    assert local.completed_at is not None
    # The local transaction waited for the commit order, so its response
    # time includes part of the authentication round trip.
    assert local.response_time > 0.2
    # Crucially it committed WITHOUT being aborted (it was a waiter, not
    # a holder, at authentication time).
    assert local.aborts == 0


def test_two_shipped_transactions_serialize_at_central():
    """Conflicting central executions use ordinary 2PL at the complex."""
    system = quiet_system()
    env = system.env
    first = make_txn([600, 601])
    second = make_txn([600, 601])
    for txn in (first, second):
        txn.route(Placement.SHIPPED)
        system.central.admit(txn)
    env.run(until=15.0)
    assert first.completed_at is not None
    assert second.completed_at is not None
    # Serialized: the later one finishes measurably after the earlier.
    assert abs(first.completed_at - second.completed_at) > 0.01
    # Neither aborted: same-site conflicts are waits, not aborts.
    assert first.aborts == 0 and second.aborts == 0


def test_conflict_stream_forces_reruns_then_commit():
    """A central transaction contending with a stream of local commits
    on the same entity re-executes (via negative acknowledgement or
    update invalidation, whichever the timing produces) and still
    commits once the stream ends."""
    system = quiet_system(comm_delay=0.3)
    env = system.env
    site = system.sites[0]

    shipped = make_txn([700, 701])
    shipped.route(Placement.SHIPPED)

    # Three local transactions updating entity 700 back to back keep it
    # in conflict through the first commit attempts.
    locals_ = [make_txn([700]) for _ in range(3)]
    for txn in locals_:
        site.submit(txn)
    system.central.admit(shipped)
    env.run(until=60.0)
    # Everyone eventually commits...
    assert shipped.completed_at is not None
    assert all(txn.completed_at is not None for txn in locals_)
    # ...and the cross-site contention resolved through at least one of
    # the protocol's three mechanisms (NAK, central invalidation, local
    # eviction), whichever the exact interleaving produced.
    counts = system.metrics.counts()
    conflicts = (counts["auth_negative_acks"] +
                 counts["aborts_central_invalidated"] +
                 counts["aborts_local_invalidated"])
    assert conflicts >= 1
    # The coherence machinery fully drained afterwards.
    assert site.locks.coherence_count(700) == 0


def test_deadlock_victim_retry_succeeds_and_both_commit():
    system = quiet_system()
    env = system.env
    site = system.sites[2]
    start, _ = system.partition.site_range(2)
    a = make_txn([start, start + 1, start + 2, start + 3], site=2)
    b = make_txn([start + 3, start + 2, start + 1, start], site=2)
    site.submit(a)
    site.submit(b)
    env.run(until=60.0)
    assert a.completed_at is not None and b.completed_at is not None
    assert site.locks.total_locks_held() == 0


def test_stale_snapshot_defaults_optimistic():
    """Before any central message arrives the snapshot reads empty --
    heuristics comparing queue lengths see central as idle."""
    from repro.core import QueueLengthRouter

    system = quiet_system()
    observation = system.sites[0].observe()
    assert observation.central.queue_length == 0
    assert observation.central_state_age == float("inf")
    router = QueueLengthRouter()
    txn = make_txn([1])
    # Local queue 0 vs central 0: strict comparison retains.
    assert router.decide(txn, observation) is Placement.LOCAL


def test_shared_mode_shipped_coexists_with_local_reader():
    """S-mode authentication grants alongside compatible local sharers."""
    system = quiet_system()
    env = system.env
    site = system.sites[0]

    local_reader = make_txn([800, 801, 802, 803, 804, 805],
                            mode=LockMode.SHARE)
    shipped_reader = make_txn([800], mode=LockMode.SHARE)
    shipped_reader.route(Placement.SHIPPED)

    site.submit(local_reader)
    system.central.admit(shipped_reader)
    env.run(until=15.0)
    assert local_reader.completed_at is not None
    assert shipped_reader.completed_at is not None
    # Compatible share modes: the local reader must NOT have aborted.
    assert local_reader.aborts == 0


def test_update_ack_does_not_refresh_snapshot_by_default():
    """Section 4.2: central state refreshes only via authentication
    traffic unless the ablation flag is set."""
    system = quiet_system()
    env = system.env
    site = system.sites[0]
    site.submit(make_txn([900]))  # commit -> update -> ack round trip
    env.run(until=5.0)
    assert site.locks.coherence_count(900) == 0  # ack arrived...
    assert site.central_snapshot.time == float("-inf")  # ...ignored

    ablated = quiet_system(snapshot_on_update_acks=True)
    ablated_site = ablated.sites[0]
    ablated_site.submit(make_txn([900]))
    ablated.env.run(until=5.0)
    assert ablated_site.central_snapshot.time > 0  # ack refreshed it
