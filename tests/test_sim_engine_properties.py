"""Property tests of the DES kernel's scheduling guarantees."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.db import LockManager, LockMode


@given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                          allow_nan=False), min_size=1, max_size=60))
@settings(max_examples=50, deadline=None)
def test_events_fire_in_nondecreasing_time_order(delays):
    """Whatever the scheduling order, firing order is time order."""
    env = Environment()
    fired = []

    def proc(env, delay):
        yield env.timeout(delay)
        fired.append(env.now)

    for delay in delays:
        env.process(proc(env, delay))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(st.lists(st.floats(min_value=0.01, max_value=10.0,
                          allow_nan=False), min_size=1, max_size=40))
@settings(max_examples=40, deadline=None)
def test_clock_never_goes_backwards(delays):
    env = Environment()
    observed = []

    def proc(env, delay):
        yield env.timeout(delay)
        observed.append(env.now)
        yield env.timeout(delay / 2)
        observed.append(env.now)

    for delay in delays:
        env.process(proc(env, delay))
    env.run()
    assert observed == sorted(observed)


@given(st.integers(1, 40))
@settings(max_examples=20, deadline=None)
def test_chained_processes_complete_exactly_once(depth):
    """A chain of processes each awaiting the next completes cleanly."""
    env = Environment()
    completions = []

    def link(env, level):
        if level > 0:
            yield env.process(link(env, level - 1))
        else:
            yield env.timeout(1)
        completions.append(level)
        return level

    result = env.run(until=env.process(link(env, depth)))
    assert result == depth
    assert completions == list(range(depth + 1))


@given(st.lists(st.tuples(st.integers(1, 6), st.integers(0, 9),
                          st.booleans()),
                min_size=1, max_size=25))
@settings(max_examples=50, deadline=None)
def test_lock_manager_total_grants_conserved(operations):
    """Random acquire sequences followed by release_all leave the table
    empty and every granted event triggered exactly once."""
    env = Environment()
    manager = LockManager(env)
    granted_events = []
    for txn_id, entity, exclusive in operations:
        mode = LockMode.EXCLUSIVE if exclusive else LockMode.SHARE
        event = manager.acquire(txn_id, entity, mode)
        if event.triggered and not event._ok:
            event.defused()
        else:
            granted_events.append(event)
    for txn_id in {txn for txn, _, _ in operations}:
        manager.release_all(txn_id)
    env.run()
    # Table fully drained.
    assert manager.total_locks_held() == 0
    assert manager.waiting_requests() == 0
    assert not manager._locks
    assert not manager._held and not manager._queued
    # Every surviving request was eventually granted (released later) or
    # was dropped by its owner's release_all before grant -- but none is
    # left half-granted.
    for event in granted_events:
        if event.triggered:
            assert event._ok
