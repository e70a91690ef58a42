"""Edge-case tests for the DES kernel beyond the basic suite."""

import pytest

from repro.sim import (
    Environment,
    Interrupt,
    Resource,
    Store,
)


def test_interrupt_while_holding_resource():
    """An interrupted holder must release via its context manager."""
    env = Environment()
    cpu = Resource(env)
    log = []

    def holder(env):
        try:
            with cpu.request() as req:
                yield req
                yield env.timeout(100)
        except Interrupt:
            log.append(("interrupted", env.now))

    def successor(env):
        with cpu.request() as req:
            yield req
            log.append(("acquired", env.now))

    def attacker(env, target):
        yield env.timeout(5)
        target.interrupt()

    target = env.process(holder(env))
    env.process(attacker(env, target))

    def late(env):
        yield env.timeout(6)
        yield env.process(successor(env))

    env.process(late(env))
    env.run(until=50)
    assert ("interrupted", 5) in log
    assert ("acquired", 6) in log


def test_interrupt_race_with_completion():
    """Interrupt landing at the exact completion instant must not crash."""
    env = Environment()
    outcomes = []

    def victim(env):
        try:
            yield env.timeout(5)
            outcomes.append("finished")
        except Interrupt:
            outcomes.append("interrupted")

    def attacker(env, target):
        yield env.timeout(5)
        if target.is_alive:
            target.interrupt()

    target = env.process(victim(env))
    env.process(attacker(env, target))
    env.run()
    assert len(outcomes) == 1  # exactly one outcome, either is legal


def test_run_until_failed_process_raises():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise KeyError("gone")

    proc = env.process(bad(env))
    with pytest.raises(KeyError):
        env.run(until=proc)


def test_double_interrupt_delivers_both():
    env = Environment()
    hits = []

    def victim(env):
        for _ in range(2):
            try:
                yield env.timeout(100)
            except Interrupt as interrupt:
                hits.append(interrupt.cause)

    def attacker(env, target):
        yield env.timeout(1)
        target.interrupt("first")
        yield env.timeout(1)
        target.interrupt("second")

    target = env.process(victim(env))
    env.process(attacker(env, target))
    env.run(until=300)
    assert hits == ["first", "second"]


def test_survived_interrupt_is_not_woken_by_the_abandoned_event():
    """Interrupted at t=5 out of timeout(100), the victim then sleeps
    200: it must wake at 205, not when the old timeout fires at 100."""
    env = Environment()
    woke = []

    def victim(env):
        try:
            yield env.timeout(100)
        except Interrupt:
            pass
        yield env.timeout(200)
        woke.append(env.now)

    def attacker(env, target):
        yield env.timeout(5)
        target.interrupt()

    target = env.process(victim(env))
    env.process(attacker(env, target))
    env.run()
    assert woke == [205]


def test_same_time_double_interrupt_detaches_each_wait_once():
    """Two interrupts queued at one instant: the first detaches the
    original wait, the second the wait its handler started."""
    env = Environment()
    hits = []

    def victim(env):
        for _ in range(3):
            try:
                yield env.timeout(100)
                hits.append(("slept", env.now))
            except Interrupt as interrupt:
                hits.append((interrupt.cause, env.now))

    def attacker(env, target):
        yield env.timeout(1)
        target.interrupt("first")
        target.interrupt("second")

    target = env.process(victim(env))
    env.process(attacker(env, target))
    env.run()
    assert hits == [("first", 1), ("second", 1), ("slept", 101)]


def test_abandoned_event_failing_later_is_not_defused_by_its_victim():
    """Once an interrupt detaches the victim, a later failure of the
    event it was waiting on is unhandled like any other."""
    env = Environment()
    abandoned = env.event()

    def victim(env):
        try:
            yield abandoned
        except Interrupt:
            return

    def attacker(env, target):
        yield env.timeout(1)
        target.interrupt()
        yield env.timeout(1)
        abandoned.fail(RuntimeError("nobody is listening"))

    target = env.process(victim(env))
    env.process(attacker(env, target))
    with pytest.raises(RuntimeError, match="nobody is listening"):
        env.run()


def test_survived_interrupt_is_not_woken_by_a_processed_event():
    """A process that yields an already processed event waits on the
    mirror event re-delivering it; an interrupt at the same instant
    detaches that mirror, so the victim's next sleep runs in full."""
    env = Environment()
    done = env.event()
    done.succeed("old")
    woke = []

    def victim(env):
        yield env.timeout(1)
        try:
            yield done  # processed at t=0
        except Interrupt:
            pass
        value = yield env.timeout(200)
        woke.append((env.now, value))

    def attacker(env, target):
        yield env.timeout(1)
        target.interrupt()

    target = env.process(victim(env))
    env.process(attacker(env, target))
    env.run()
    assert woke == [(201, None)]


def test_store_get_then_cancelish_pattern():
    """A consumer abandoning a get() must not steal later items."""
    env = Environment()
    store = Store(env)
    got = []

    def impatient(env):
        # Gives up after 1 s without ever yielding the get: the event is
        # abandoned, not withdrawn.
        get_event = store.get()
        yield env.timeout(1)
        if get_event.triggered:
            got.append(("impatient", get_event.value))

    def patient(env):
        yield env.timeout(2)
        item = yield store.get()
        got.append(("patient", item))

    env.process(impatient(env))
    env.process(patient(env))

    def producer(env):
        yield env.timeout(5)
        store.put("thing")

    env.process(producer(env))
    env.run()
    # The impatient consumer timed out; but its get() is still first in
    # the queue (documented Store behaviour: gets are not cancellable),
    # so the item resolves the abandoned event.  The patient consumer
    # must then NOT hang forever on a lost item -- verify by checking
    # that exactly the abandoned get consumed it.
    assert got == []  # neither delivered: impatient gave up, patient queued
    assert len(store._getters) == 1  # patient still waiting


def test_resource_queue_length_under_churn():
    env = Environment()
    cpu = Resource(env, capacity=2)

    def user(env, delay, hold):
        yield env.timeout(delay)
        with cpu.request() as req:
            yield req
            yield env.timeout(hold)

    for index in range(10):
        env.process(user(env, index * 0.1, 1.0))
    env.run()
    assert cpu.count == 0
    assert cpu.queue_length == 0


def test_timeout_zero_fires_same_timestep_in_order():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(0)
        order.append(tag)

    for tag in range(5):
        env.process(proc(env, tag))
    env.run()
    assert order == [0, 1, 2, 3, 4]
