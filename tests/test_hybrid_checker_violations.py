"""Violation-path tests for the invariant checker.

`tests/test_hybrid_checker.py` proves clean runs raise nothing; this
module proves the opposite direction -- each structural invariant
actually *fires* when the protocol state is corrupted.  States are
corrupted directly in a unit harness (forged lock-table entries,
negative coherence counts, injected waits-for cycles, tampered update
sequence numbers), because a correct simulator cannot be made to produce
them.
"""

import pytest

from repro.core import STRATEGIES
from repro.db.locks import Lock, LockMode
from repro.hybrid import HybridSystem, paper_config
from repro.hybrid.checker import InvariantViolation, attach_checker


def build(total_rate=15.0, seed=11, **overrides):
    config = paper_config(total_rate=total_rate, warmup_time=2.0,
                          measure_time=20.0, seed=seed, **overrides)
    return HybridSystem(config, STRATEGIES["none"](config))


def checker_for(system):
    checker = attach_checker(system)
    system.env.run(until=5.0)  # populate live protocol state
    return checker


def test_incompatible_lock_modes_detected():
    system = build()
    checker = checker_for(system)
    lock = Lock(entity=424_242)
    lock.holders[1] = LockMode.EXCLUSIVE
    lock.holders[2] = LockMode.EXCLUSIVE
    system.sites[0].locks._locks[424_242] = lock
    with pytest.raises(InvariantViolation, match="incompatible modes"):
        checker.audit()


def test_exclusive_plus_share_detected():
    system = build()
    checker = checker_for(system)
    lock = Lock(entity=424_243)
    lock.holders[1] = LockMode.SHARE
    lock.holders[2] = LockMode.EXCLUSIVE
    system.central.locks._locks[424_243] = lock
    with pytest.raises(InvariantViolation, match="central.*incompatible"):
        checker.audit()


def test_shared_holders_are_legal():
    system = build()
    checker = checker_for(system)
    locks = system.sites[0].locks
    assert locks.acquire(1, 424_244, LockMode.SHARE).triggered
    assert locks.acquire(2, 424_244, LockMode.SHARE).triggered
    checker.audit()  # two readers are fine


def test_holder_missing_from_index_detected():
    system = build()
    checker = checker_for(system)
    lock = Lock(entity=424_246)
    lock.holders[1] = LockMode.SHARE
    system.sites[1].locks._locks[424_246] = lock
    with pytest.raises(InvariantViolation, match="running grant count"):
        checker.audit()


def test_stale_index_entry_detected():
    system = build()
    checker = checker_for(system)
    locks = system.central.locks
    assert locks.acquire(900_003, 424_247, LockMode.EXCLUSIVE).triggered
    locks._locks[424_247].holders.clear()
    locks._held_count -= 1
    with pytest.raises(InvariantViolation, match="held-lock index"):
        checker.audit()


def test_queued_request_missing_from_index_detected():
    system = build()
    checker = checker_for(system)
    locks = system.central.locks
    assert locks.acquire(900_004, 424_248, LockMode.EXCLUSIVE).triggered
    assert not locks.acquire(900_005, 424_248, LockMode.SHARE).triggered
    del locks._queued[900_005]
    with pytest.raises(InvariantViolation, match="queued-request index"):
        checker.audit()


def test_negative_coherence_count_detected():
    system = build()
    checker = checker_for(system)
    lock = Lock(entity=424_245)
    lock.coherence_count = -1
    system.sites[2].locks._locks[424_245] = lock
    with pytest.raises(InvariantViolation, match="negative coherence"):
        checker.audit()


def test_surviving_waits_for_cycle_detected():
    system = build()
    checker = checker_for(system)
    graph = system.central.locks._waits_for
    graph.add_waiter(900_001, [900_002])
    graph.add_waiter(900_002, [900_001])
    with pytest.raises(InvariantViolation, match="cycle survived"):
        checker.audit()


def test_overapplied_update_batches_detected():
    """Central applying more batches than a site sent must fire.

    Tampering the applied sequence number upward simulates a duplicated
    or forged update batch: the next genuine application pushes the
    applied count past the sent count.
    """
    system = build(total_rate=20.0)
    checker = attach_checker(system)
    checker._applied_seq[0] = 10_000
    with pytest.raises(InvariantViolation, match="more batches"):
        system.env.run(until=30.0)


def test_non_positive_response_time_detected():
    from repro.db import (
        LockMode as Mode,
        Placement,
        Reference,
        Transaction,
        TransactionClass,
    )

    system = build()
    attach_checker(system)
    txn = Transaction(txn_id=777_777, txn_class=TransactionClass.A,
                      home_site=0,
                      references=(Reference(1, Mode.EXCLUSIVE),),
                      arrival_time=5.0)
    txn.route(Placement.LOCAL)
    txn.complete(now=5.0)  # zero elapsed time
    with pytest.raises(InvariantViolation, match="non-positive"):
        system.metrics.record_completion(txn)


def test_audit_counts_accumulate():
    system = build()
    checker = checker_for(system)
    before = checker.stats.audits
    checker.audit()
    assert checker.stats.audits == before + 1
