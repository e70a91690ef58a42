"""End-to-end replica-consistency verification.

The strongest correctness statement this reproduction makes: after a
loaded run drains, every entity's update counter at the central replica
equals the counter at its master site -- every committed update (local
or central, through asynchrony, NAKs, invalidations and re-executions)
was applied exactly once on both sides.
"""

import pytest

from repro.core import STRATEGIES
from repro.db.replica import ReplicaStore, replica_divergence
from repro.hybrid import HybridSystem, paper_config


# ---------------------------------------------------------------------------
# ReplicaStore unit behaviour
# ---------------------------------------------------------------------------

def test_store_counts():
    store = ReplicaStore()
    assert store.count(5) == 0
    assert store.apply_update(5) == 1
    assert store.apply_update(5) == 2
    store.apply_updates([5, 6])
    assert store.count(5) == 3
    assert store.count(6) == 1
    assert store.total_updates == 4


def test_store_snapshot_and_entities():
    store = ReplicaStore()
    store.apply_updates([1, 1, 3])
    assert store.snapshot() == {1: 2, 3: 1}
    assert store.updated_entities() == frozenset({1, 3})


# ---------------------------------------------------------------------------
# System-level consistency
# ---------------------------------------------------------------------------

def drained_system(strategy: str, total_rate: float, seed: int = 61,
                   **overrides) -> HybridSystem:
    config = paper_config(total_rate=total_rate, warmup_time=0.0,
                          measure_time=60.0, seed=seed, **overrides)
    system = HybridSystem(config, STRATEGIES[strategy](config))
    system.env.run(until=40.0)
    for arrival in system.arrivals:
        arrival.process.interrupt("stop")
    system.env.run(until=160.0)
    return system


@pytest.mark.parametrize("strategy,rate", [
    ("none", 15.0),
    ("queue-length", 20.0),
    ("min-average-population", 25.0),
    ("measured-response", 18.0),
])
def test_replicas_converge_after_drain(strategy, rate):
    system = drained_system(strategy, rate)
    assert replica_divergence(system) == {}
    # And real update traffic flowed in both directions.
    assert system.central.data.total_updates > 100


def test_replicas_converge_with_large_delay():
    system = drained_system("min-average-population", 18.0,
                            comm_delay=0.5)
    assert replica_divergence(system) == {}


def test_central_commits_reach_masters():
    """Exactly-once on both sides, accounting for the unowned tail."""
    system = drained_system("min-average-population", 22.0)
    # Per-entity totals: every *owned* entity's central count must equal
    # its master count (tail entities have no master replica).
    central_owned_total = sum(
        count for entity, count in system.central.data.snapshot().items()
        if system.partition.owner(entity) is not None)
    master_total = sum(site.data.total_updates for site in system.sites)
    assert central_owned_total == master_total
    # Shipped/class B commits really flowed: the central replica holds
    # updates beyond any single site's own.
    assert system.central.data.total_updates >= central_owned_total


def test_transient_divergence_exists_mid_run():
    """Mid-run the central replica legitimately lags the masters."""
    config = paper_config(total_rate=20.0, warmup_time=0.0,
                          measure_time=30.0, seed=9, comm_delay=0.5)
    system = HybridSystem(
        config, STRATEGIES["none"](config))
    system.env.run(until=20.0)
    # With 0.5s one-way delay there is essentially always an update in
    # flight at 20 tps -- divergence is expected *now*...
    assert replica_divergence(system) != {}
    # ...and heals once drained.
    for arrival in system.arrivals:
        arrival.process.interrupt("stop")
    system.env.run(until=120.0)
    assert replica_divergence(system) == {}
