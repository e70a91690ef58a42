"""System-level invariants: conservation, drain, leak-freedom.

These run a whole hybrid system under load, stop the arrival streams,
drain the remaining work, and check the global invariants that a correct
protocol implementation must maintain:

* every admitted transaction eventually commits (no lost transactions);
* after the drain no lock is held at any site or at the central complex;
* all coherence counts return to zero (every asynchronous update was
  acknowledged);
* no authentication round is left pending at the central site.
"""

import pytest

from repro.core import STRATEGIES
from repro.hybrid import HybridSystem, paper_config


def drained_system(strategy: str, total_rate: float, seed: int = 31,
                   **overrides):
    """Run with arrivals for a while, then drain to quiescence."""
    config = paper_config(total_rate=total_rate, warmup_time=0.0,
                          measure_time=60.0, seed=seed, **overrides)
    system = HybridSystem(config, STRATEGIES[strategy](config))
    env = system.env
    env.run(until=40.0)
    # Cut the arrival streams, then let everything in flight finish.
    for arrival in system.arrivals:
        arrival.process.interrupt("stop-arrivals")
    env.run(until=140.0)
    return system


@pytest.fixture(scope="module", params=["none", "queue-length",
                                        "min-average-population"])
def drained(request):
    return drained_system(request.param, total_rate=15.0)


def test_all_transactions_complete(drained):
    generated = sum(a.generated for a in drained.arrivals)
    assert generated > 100
    # Nothing is still active anywhere.
    assert drained.n_local_total == 0
    assert drained.n_central == 0


def test_no_locks_leaked(drained):
    for site in drained.sites:
        assert site.locks.total_locks_held() == 0, site.name
        assert site.locks.waiting_requests() == 0, site.name
    assert drained.central.locks.total_locks_held() == 0
    assert drained.central.locks.waiting_requests() == 0


def test_all_coherence_counts_drained(drained):
    for site in drained.sites:
        # Lock records are garbage collected when fully free, so any
        # surviving record would indicate a stuck coherence count.
        assert not site.locks._locks, site.name
        assert not site.locks._held, site.name
        assert not site.locks._queued, site.name


def test_no_pending_authentication(drained):
    assert not drained.central._pending_auth


def test_no_messages_in_flight(drained):
    for site in drained.sites:
        assert site.to_central.in_flight == 0
        assert site.from_central.in_flight == 0


def test_cpus_idle_after_drain(drained):
    for site in drained.sites:
        assert site.cpu.count == 0
        assert len(site.cpu.queue) == 0
    assert drained.central.cpu.count == 0


def test_drain_under_heavy_shipping():
    system = drained_system("min-average-population", total_rate=28.0,
                            seed=77)
    assert system.n_local_total == 0
    assert system.n_central == 0
    assert system.central.locks.total_locks_held() == 0
    assert not system.central._pending_auth


def test_drain_with_large_delay():
    system = drained_system("queue-length", total_rate=12.0, seed=5,
                            comm_delay=0.5)
    assert system.n_local_total == 0
    for site in system.sites:
        assert not site.locks._locks
        assert not site.locks._held
        assert not site.locks._queued


def test_completions_equal_generated_minus_none():
    """Committed count equals generated count after a full drain."""
    system = drained_system("none", total_rate=10.0, seed=13)
    generated = sum(a.generated for a in system.arrivals)
    assert system.metrics.counts()["completed"] == generated
