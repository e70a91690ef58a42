"""Unit tests for the DES kernel (repro.sim.engine)."""

import pytest

from repro.sim import (
    Environment,
    Interrupt,
    SimulationError,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(3.5)
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [3.5]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_timeout_value_passed_to_process():
    env = Environment()
    seen = []

    def proc(env):
        value = yield env.timeout(1, value="hello")
        seen.append(value)

    env.process(proc(env))
    env.run()
    assert seen == ["hello"]


def test_sequential_timeouts_accumulate():
    env = Environment()
    times = []

    def proc(env):
        for _ in range(4):
            yield env.timeout(2)
            times.append(env.now)

    env.process(proc(env))
    env.run()
    assert times == [2, 4, 6, 8]


def test_run_until_time_stops_clock_at_horizon():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(10)

    env.process(proc(env))
    env.run(until=25)
    assert env.now == 25


def test_run_until_time_in_past_raises():
    env = Environment(initial_time=10)
    with pytest.raises(SimulationError):
        env.run(until=5)


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2)
        return 42

    result = env.run(until=env.process(proc(env)))
    assert result == 42
    assert env.now == 2


def test_process_waits_for_other_process():
    env = Environment()
    order = []

    def child(env):
        yield env.timeout(5)
        order.append("child")
        return "payload"

    def parent(env):
        value = yield env.process(child(env))
        order.append("parent")
        assert value == "payload"

    env.process(parent(env))
    env.run()
    assert order == ["child", "parent"]


def test_same_time_events_fire_fifo():
    env = Environment()
    order = []

    def make(tag):
        def proc(env):
            yield env.timeout(1)
            order.append(tag)
        return proc

    for tag in "abcde":
        env.process(make(tag)(env))
    env.run()
    assert order == list("abcde")


def test_manual_event_succeed():
    env = Environment()
    evt = env.event()
    got = []

    def waiter(env):
        value = yield evt
        got.append((env.now, value))

    def firer(env):
        yield env.timeout(7)
        evt.succeed("done")

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert got == [(7, "done")]


def test_event_double_trigger_raises():
    env = Environment()
    evt = env.event()
    evt.succeed(1)
    with pytest.raises(SimulationError):
        evt.succeed(2)


def test_event_fail_raises_in_waiter():
    env = Environment()
    evt = env.event()
    caught = []

    def waiter(env):
        try:
            yield evt
        except RuntimeError as err:
            caught.append(str(err))

    def firer(env):
        yield env.timeout(1)
        evt.fail(RuntimeError("boom"))

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert caught == ["boom"]


def test_fail_requires_exception_instance():
    env = Environment()
    evt = env.event()
    with pytest.raises(SimulationError):
        evt.fail("not an exception")


def test_unhandled_process_failure_propagates_to_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise ValueError("kaput")

    proc = env.process(bad(env))
    with pytest.raises(ValueError, match="kaput"):
        env.run(until=proc)


def test_interrupt_wakes_waiting_process():
    env = Environment()
    log = []

    def victim(env):
        try:
            yield env.timeout(100)
        except Interrupt as interrupt:
            log.append((env.now, interrupt.cause))

    def attacker(env, target):
        yield env.timeout(3)
        target.interrupt(cause="abort")

    target = env.process(victim(env))
    env.process(attacker(env, target))
    env.run()
    assert log == [(3, "abort")]


def test_interrupt_before_first_resume_enters_try_block():
    """Regression: interrupting a not-yet-started process must not bypass
    its try/except (throwing into an unstarted generator would raise at
    the def line, outside any handler)."""
    env = Environment()
    log = []

    def guarded(env):
        try:
            while True:
                yield env.timeout(10)
        except Interrupt:
            log.append("handled")

    proc = env.process(guarded(env))
    proc.interrupt("immediate")  # before env.run(): generator unstarted
    env.run(until=50)
    assert log == ["handled"]
    assert not proc.is_alive


def test_interrupt_dead_process_raises():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    proc = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_process_cannot_interrupt_itself():
    env = Environment()
    errors = []

    def selfish(env):
        yield env.timeout(1)
        try:
            holder[0].interrupt()
        except SimulationError as err:
            errors.append(str(err))

    holder = [None]
    holder[0] = env.process(selfish(env))
    env.run()
    assert errors and "itself" in errors[0]


def test_interrupted_process_can_continue():
    env = Environment()
    log = []

    def victim(env):
        try:
            yield env.timeout(100)
        except Interrupt:
            log.append("interrupted")
        yield env.timeout(5)
        log.append(env.now)

    def attacker(env, target):
        yield env.timeout(10)
        target.interrupt()

    target = env.process(victim(env))
    env.process(attacker(env, target))
    env.run()
    assert log == ["interrupted", 15]


def test_yield_non_event_raises():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_process_is_alive_transitions():
    env = Environment()

    def proc(env):
        yield env.timeout(4)

    p = env.process(proc(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_peek_returns_next_event_time():
    env = Environment()
    env.timeout(9)
    assert env.peek() == 9


def test_peek_empty_calendar_is_inf():
    env = Environment()
    assert env.peek() == float("inf")


def test_waiting_on_already_processed_event():
    env = Environment()
    evt = env.event()
    evt.succeed("early")
    got = []

    def late_waiter(env):
        yield env.timeout(5)
        value = yield evt
        got.append((env.now, value))

    env.process(late_waiter(env))
    env.run()
    assert got == [(5, "early")]


def test_many_processes_deterministic_order():
    """Two identical runs produce the same event ordering."""

    def run_once():
        env = Environment()
        order = []

        def proc(env, tag, delay):
            yield env.timeout(delay)
            order.append(tag)
            yield env.timeout(delay)
            order.append(tag.upper())

        for i in range(20):
            env.process(proc(env, f"p{i}", (i % 5) + 1))
        env.run()
        return order

    assert run_once() == run_once()


def test_nested_process_return_values():
    env = Environment()

    def inner(env):
        yield env.timeout(1)
        return 10

    def middle(env):
        value = yield env.process(inner(env))
        return value + 5

    def outer(env):
        value = yield env.process(middle(env))
        return value * 2

    assert env.run(until=env.process(outer(env))) == 30


# ---------------------------------------------------------------------------
# Failure delivery through Process._resume (regression: the resume path
# once special-cased defused Interrupts through a branch whose two arms
# were identical -- both interrupt and plain failures must be *thrown*
# into the generator and marked defused by the delivery itself).
# ---------------------------------------------------------------------------

def test_interrupt_failure_delivered_as_throw():
    env = Environment()
    caught = []

    def victim(env):
        try:
            yield env.timeout(10)
        except Interrupt as interrupt:
            caught.append(interrupt.cause)
            yield env.timeout(1)

    def attacker(env, target):
        yield env.timeout(2)
        target.interrupt("abort-reason")

    target = env.process(victim(env))
    env.process(attacker(env, target))
    env.run()
    assert caught == ["abort-reason"]
    # The abandoned timeout(10) still fires (for no waiters) at t=10.
    assert env.now == 10.0


def test_non_interrupt_failure_delivered_as_throw():
    env = Environment()
    caught = []

    def waiter(env, event):
        try:
            yield event
        except RuntimeError as error:
            caught.append(str(error))
            yield env.timeout(1)

    event = env.event()
    env.process(waiter(env, event))

    def failer(env, event):
        yield env.timeout(2)
        event.fail(RuntimeError("boom"))

    env.process(failer(env, event))
    env.run()
    assert caught == ["boom"]
    assert env.now == 3.0


def test_unhandled_non_interrupt_failure_still_crashes_waiter():
    env = Environment()

    def waiter(env, event):
        yield event  # no try/except: the failure propagates

    event = env.event()
    waiting = env.process(waiter(env, event))

    def failer(env, event):
        yield env.timeout(1)
        event.fail(ValueError("unhandled"))

    env.process(failer(env, event))
    with pytest.raises(ValueError, match="unhandled"):
        env.run()
    assert not waiting.is_alive


def test_events_scheduled_counter_tracks_enqueues():
    env = Environment()

    def proc(env):
        for _ in range(3):
            yield env.timeout(1)

    env.process(proc(env))
    env.run()
    # init event + 3 timeouts + process-completion event.
    assert env.events_scheduled == 5
    assert env.events_processed >= 4


def test_heap_peak_reflects_calendar_maximum():
    env = Environment()

    def proc(env):
        yield env.timeout(1)

    for _ in range(10):
        env.process(proc(env))
    env.run()
    assert env.heap_peak >= 10
