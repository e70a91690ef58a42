"""Randomized protocol fuzzing: arbitrary small workloads must drain clean.

Hypothesis generates little batches of transactions (mixed classes,
sites, entity overlaps, staggered submission times, both routing
targets) and fires them through a quiet system.  Whatever the
interleaving, after the drain every invariant must hold: all
transactions commit, no locks or coherence counts survive, replicas
converge, and no authentication or remote call is left pending.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.router import AlwaysLocalRouter
from repro.db import LockMode, Placement, Reference, Transaction, \
    TransactionClass
from repro.db.replica import replica_divergence
from repro.hybrid import HybridSystem, paper_config

IDS = itertools.count(500_000)

N_SITES = 3

txn_strategy = st.fixed_dictionaries({
    "site": st.integers(0, N_SITES - 1),
    "is_class_a": st.booleans(),
    "ship": st.booleans(),
    # Small entity offsets force overlap between transactions.
    "offsets": st.lists(st.integers(0, 5), min_size=1, max_size=4,
                        unique=True),
    "exclusive": st.booleans(),
    "delay": st.floats(min_value=0.0, max_value=1.5),
})

#: Protocol option combinations the fuzz also exercises.
option_strategy = st.fixed_dictionaries({
    "keep_locks_on_abort": st.booleans(),
    "comm_delay": st.sampled_from([0.05, 0.2, 0.5]),
})


def _build_txn(spec, partition):
    site = spec["site"]
    low, high = partition.site_range(site)
    if spec["is_class_a"]:
        txn_class = TransactionClass.A
        entities = [low + offset for offset in spec["offsets"]]
    else:
        txn_class = TransactionClass.B
        # Class B: spread entities over all partitions deterministically.
        entities = [partition.site_range(
            (site + index) % N_SITES)[0] + offset
            for index, offset in enumerate(spec["offsets"])]
        entities = list(dict.fromkeys(entities))
    mode = LockMode.EXCLUSIVE if spec["exclusive"] else LockMode.SHARE
    return Transaction(
        txn_id=next(IDS), txn_class=txn_class, home_site=site,
        references=tuple(Reference(entity, mode) for entity in entities),
        arrival_time=0.0)


@given(st.lists(txn_strategy, min_size=1, max_size=8), option_strategy)
@settings(max_examples=40, deadline=None)
def test_random_workload_drains_clean(specs, options):
    config = paper_config(total_rate=1e-6, warmup_time=0.0,
                          measure_time=1000.0, seed=1, **options)
    config = config.with_options(
        workload=config.workload.__class__(
            n_sites=N_SITES,
            lockspace=config.workload.lockspace,
            locks_per_txn=config.workload.locks_per_txn,
            p_local=config.workload.p_local,
            p_update=config.workload.p_update,
            arrival_rate_per_site=1e-6))
    system = HybridSystem(config, lambda c, i: AlwaysLocalRouter())
    env = system.env

    transactions = []

    def scenario():
        for spec in sorted(specs, key=lambda s: s["delay"]):
            yield env.timeout(max(spec["delay"] - env.now, 0.0))
            txn = _build_txn(spec, system.partition)
            transactions.append((spec, txn))
            site = system.sites[spec["site"]]
            if txn.txn_class is TransactionClass.B:
                site.submit(txn)
            elif spec["ship"]:
                txn.route(Placement.SHIPPED)
                system.metrics.record_routing(txn)
                site.shipped_in_flight += 1
                site._ship(txn)
            else:
                site.submit(txn)

    env.process(scenario())
    env.run(until=120.0)

    # Every transaction committed.
    for spec, txn in transactions:
        assert txn.completed_at is not None, (spec, txn)
        assert txn.response_time > 0

    # No residue anywhere.
    for site in system.sites:
        assert site.locks.total_locks_held() == 0
        assert site.locks.waiting_requests() == 0
        assert not site.locks._locks  # coherence fully drained
        assert not site.locks._held and not site.locks._queued
        assert site.shipped_in_flight == 0
    assert system.central.locks.total_locks_held() == 0
    assert not system.central._pending_auth
    assert replica_divergence(system) == {}


@given(st.lists(txn_strategy, min_size=1, max_size=6))
@settings(max_examples=25, deadline=None)
def test_random_workload_drains_clean_remote_call_mode(specs):
    """Same fuzz, with class B in the fully distributed mode."""
    config = paper_config(total_rate=1e-6, warmup_time=0.0,
                          measure_time=1000.0, seed=2,
                          class_b_mode="remote-call")
    config = config.with_options(
        workload=config.workload.__class__(
            n_sites=N_SITES,
            lockspace=config.workload.lockspace,
            locks_per_txn=config.workload.locks_per_txn,
            p_local=config.workload.p_local,
            p_update=config.workload.p_update,
            arrival_rate_per_site=1e-6))
    system = HybridSystem(config, lambda c, i: AlwaysLocalRouter())
    env = system.env
    transactions = []

    def scenario():
        for spec in sorted(specs, key=lambda s: s["delay"]):
            yield env.timeout(max(spec["delay"] - env.now, 0.0))
            txn = _build_txn(spec, system.partition)
            transactions.append(txn)
            system.sites[spec["site"]].submit(txn)

    env.process(scenario())
    env.run(until=150.0)

    for txn in transactions:
        assert txn.completed_at is not None, txn
    for site in system.sites:
        assert site.locks.total_locks_held() == 0
        assert not site._pending_remote_calls
        assert not site.locks._locks
        assert not site.locks._held and not site.locks._queued
    assert system.central.locks.total_locks_held() == 0
    assert not system.central._remote_holders
    assert replica_divergence(system) == {}
