"""Tests for the fully distributed class B mode (remote calls).

Section 3 of the paper: "Potentially, these transactions could be run at
a local site, making remote function calls to the central site to obtain
required data; however, we do not analyze this possibility here."  This
module tests the implementation of exactly that possibility.
"""

from dataclasses import replace

import pytest

from repro.core import STRATEGIES
from repro.core.router import AlwaysLocalRouter
from repro.db import (
    LockMode,
    Placement,
    Reference,
    Transaction,
    TransactionClass,
    TransactionKind,
)
from repro.db.replica import replica_divergence
from repro.hybrid import HybridSystem, paper_config
from repro.hybrid.protocol import TxnDecision, TxnPrepare


def build(total_rate=10.0, p_b_local=None, seed=41, **overrides):
    overrides.setdefault("warmup_time", 10.0)
    overrides.setdefault("measure_time", 40.0)
    config = paper_config(total_rate=total_rate, seed=seed,
                          class_b_mode="remote-call", **overrides)
    if p_b_local is not None:
        config = config.with_options(
            workload=replace(config.workload, p_b_local=p_b_local))
    return HybridSystem(config, STRATEGIES["none"](config))


def test_config_validates_mode():
    with pytest.raises(ValueError):
        paper_config(total_rate=5.0, class_b_mode="teleport")


def test_class_b_runs_distributed():
    system = build()
    result = system.run()
    kinds = set(result.response_time_by_kind)
    assert TransactionKind.DISTRIBUTED_NEW in kinds
    assert TransactionKind.CENTRAL_NEW not in kinds


def test_route_validation():
    from repro.db import LockMode, Reference, Transaction

    txn = Transaction(txn_id=1, txn_class=TransactionClass.B, home_site=0,
                      references=(Reference(1, LockMode.EXCLUSIVE),),
                      arrival_time=0.0)
    txn.route(Placement.DISTRIBUTED)
    assert txn.placement is Placement.DISTRIBUTED
    txn_a = Transaction(txn_id=2, txn_class=TransactionClass.A,
                        home_site=0,
                        references=(Reference(1, LockMode.EXCLUSIVE),),
                        arrival_time=0.0)
    with pytest.raises(ValueError):
        txn_a.route(Placement.DISTRIBUTED)


def test_remote_calls_cost_round_trips():
    """Class B RT grows with the number of remote references."""
    low_locality = build(p_b_local=0.2, seed=7).run()
    high_locality = build(p_b_local=0.95, seed=7).run()
    rt_low = low_locality.response_time_by_class[TransactionClass.B]
    rt_high = high_locality.response_time_by_class[TransactionClass.B]
    assert rt_low > rt_high + 0.5  # several 0.4s round trips difference


def test_expected_remote_calls_property():
    from repro.db import WorkloadParams

    base = WorkloadParams()
    assert base.expected_remote_calls == pytest.approx(9.0)
    local = WorkloadParams(p_b_local=0.9)
    assert local.expected_remote_calls == pytest.approx(1.0)
    with pytest.raises(ValueError):
        WorkloadParams(p_b_local=1.5)


def test_class_b_locality_respected():
    from repro.db import TransactionFactory, WorkloadParams
    from repro.sim import RandomStreams

    params = WorkloadParams(p_local=0.0, p_b_local=0.9)
    factory = TransactionFactory(params, RandomStreams(seed=5))
    home_hits = 0
    total = 0
    for _ in range(200):
        txn = factory.make_transaction(site=3, now=0.0)
        low, high = factory.partition.site_range(3)
        for ref in txn.references:
            total += 1
            if low <= ref.entity < high:
                home_hits += 1
    assert home_hits / total == pytest.approx(0.9, abs=0.03)


def test_distributed_replicas_converge():
    """The exactly-once replica invariant holds in remote-call mode."""
    system = build(total_rate=15.0, p_b_local=0.5, seed=19)
    system.env.run(until=40.0)
    for arrival in system.arrivals:
        arrival.process.interrupt("stop")
    system.env.run(until=160.0)
    assert replica_divergence(system) == {}
    assert system.n_local_total == 0
    assert system.central.locks.total_locks_held() == 0
    assert not system.central._remote_holders


def test_distributed_mode_drains_all_transactions():
    system = build(total_rate=12.0, seed=23, warmup_time=0.0)
    system.env.run(until=40.0)
    for arrival in system.arrivals:
        arrival.process.interrupt("stop")
    system.env.run(until=200.0)
    generated = sum(a.generated for a in system.arrivals)
    assert system.metrics.counts()["completed"] == generated
    for site in system.sites:
        assert site.locks.total_locks_held() == 0
        assert not site._pending_remote_calls


def test_remote_invalidation_causes_rerun():
    """A local class A update invalidates a remote-held lock."""
    system = build(total_rate=18.0, p_b_local=0.0, seed=3,
                   comm_delay=0.5)
    result = system.run()
    # With all class B references remote and a long delay, invalidations
    # of remote-held locks must occur at this load.
    assert result.aborts_central_invalidated + \
        result.aborts_local_invalidated > 0


def test_class_a_routing_unaffected_by_mode():
    system = build(total_rate=10.0)
    result = system.run()
    assert TransactionKind.LOCAL_NEW in result.response_time_by_kind
    assert result.shipped_fraction == 0.0  # "none" router retains all A


def test_2pc_decision_invalidates_remote_call_holders():
    """Under 2PC, a site's commit decision that updates an entity a
    remote-call transaction holds at central marks that transaction at
    its home site (as the optimistic update application does): it must
    not commit on the stale read."""
    config = paper_config(total_rate=1e-6, warmup_time=0.0,
                          measure_time=100.0, protocol="2pc",
                          class_b_mode="remote-call")
    system = HybridSystem(config, lambda c, i: AlwaysLocalRouter())
    central = system.central
    entity = system.partition.site_range(1)[0]
    holder = Transaction(txn_id=90_001, txn_class=TransactionClass.B,
                         home_site=3,
                         references=(Reference(entity, LockMode.SHARE),),
                         arrival_time=0.0)
    system.sites[3].active[holder.txn_id] = holder
    central.locks.acquire(holder.txn_id, entity, LockMode.SHARE)
    central._remote_holders[holder.txn_id] = 3

    def decide():
        yield from central._handle_prepare(
            TxnPrepare(txn_id=90_002, site=1, updates=(entity,)))
        yield from central._handle_decision(TxnDecision(
            txn_id=90_002, site=1, commit=True, updates=(entity,)))

    system.env.process(decide())
    system.env.run(until=5.0)
    assert holder.marked_for_abort
    assert holder.abort_reason == "remote-lock-invalidated"
