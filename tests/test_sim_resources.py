"""Unit tests for resources, stores and links (repro.sim)."""

import pytest

from repro.sim import (
    Environment,
    Interrupt,
    Link,
    Message,
    Resource,
    SimulationError,
    Store,
)


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------

def test_resource_grants_immediately_when_free():
    env = Environment()
    cpu = Resource(env)
    granted = []

    def user(env):
        with cpu.request() as req:
            yield req
            granted.append(env.now)
            yield env.timeout(2)

    env.process(user(env))
    env.run()
    assert granted == [0.0]


def test_resource_serializes_two_users():
    env = Environment()
    cpu = Resource(env, capacity=1)
    spans = []

    def user(env, tag, hold):
        with cpu.request() as req:
            yield req
            start = env.now
            yield env.timeout(hold)
            spans.append((tag, start, env.now))

    env.process(user(env, "a", 5))
    env.process(user(env, "b", 3))
    env.run()
    assert spans == [("a", 0, 5), ("b", 5, 8)]


def test_resource_capacity_two_runs_in_parallel():
    env = Environment()
    cpu = Resource(env, capacity=2)
    ends = []

    def user(env, hold):
        with cpu.request() as req:
            yield req
            yield env.timeout(hold)
            ends.append(env.now)

    for _ in range(2):
        env.process(user(env, 4))
    env.run()
    assert ends == [4, 4]


def test_resource_fifo_order():
    env = Environment()
    cpu = Resource(env)
    order = []

    def user(env, tag):
        with cpu.request() as req:
            yield req
            order.append(tag)
            yield env.timeout(1)

    for tag in range(6):
        env.process(user(env, tag))
    env.run()
    assert order == [0, 1, 2, 3, 4, 5]


def test_cancelled_waiter_hands_its_turn_to_the_next_in_fifo_order():
    env = Environment()
    cpu = Resource(env)
    holder = cpu.request()
    requests = {tag: cpu.request() for tag in "abcdefg"}
    assert list(cpu.queue) == list(requests.values())
    requests["a"].cancel()  # the head leaves the queue
    requests["d"].cancel()
    requests["d"].cancel()  # cancelling twice is harmless
    granted = []
    cpu.release(holder)
    while cpu.users:
        user = cpu.users[0]
        granted.append(next(tag for tag, request in requests.items()
                            if request is user))
        cpu.release(user)
    assert granted == ["b", "c", "e", "f", "g"]
    assert not cpu.queue
    assert all(not requests[tag].triggered for tag in "ad")
    assert cpu.grants == 6


def test_queue_length_counts_waiting_and_running():
    env = Environment()
    cpu = Resource(env)
    samples = []

    def user(env):
        with cpu.request() as req:
            yield req
            yield env.timeout(5)

    def sampler(env):
        yield env.timeout(1)
        samples.append(cpu.queue_length)

    for _ in range(3):
        env.process(user(env))
    env.process(sampler(env))
    env.run()
    assert samples == [3]  # 1 running + 2 waiting


def test_cancel_queued_request_removes_from_queue():
    env = Environment()
    cpu = Resource(env)
    order = []

    def holder(env):
        with cpu.request() as req:
            yield req
            yield env.timeout(10)

    def impatient(env):
        yield env.timeout(1)
        req = cpu.request()
        yield env.timeout(2)  # still queued
        req.cancel()
        order.append("cancelled")

    def patient(env):
        yield env.timeout(2)
        with cpu.request() as req:
            yield req
            order.append(("patient", env.now))

    env.process(holder(env))
    env.process(impatient(env))
    env.process(patient(env))
    env.run()
    assert ("patient", 10) in order


def test_interrupted_waiter_releases_queue_slot():
    env = Environment()
    cpu = Resource(env)
    log = []

    def holder(env):
        with cpu.request() as req:
            yield req
            yield env.timeout(100)

    def victim(env):
        with cpu.request() as req:
            try:
                yield req
            except Interrupt:
                log.append("interrupted")
        # context manager cancels the queued request

    def attacker(env, target):
        yield env.timeout(5)
        target.interrupt()

    env.process(holder(env))
    target = env.process(victim(env))
    env.process(attacker(env, target))
    env.run(until=50)
    assert log == ["interrupted"]
    assert len(cpu.queue) == 0


def test_utilization_measurement():
    env = Environment()
    cpu = Resource(env)

    def user(env):
        with cpu.request() as req:
            yield req
            yield env.timeout(4)

    env.process(user(env))
    env.run(until=10)
    assert cpu.utilization() == pytest.approx(0.4)


def test_utilization_reset():
    env = Environment()
    cpu = Resource(env)

    def user(env, start, hold):
        yield env.timeout(start)
        with cpu.request() as req:
            yield req
            yield env.timeout(hold)

    env.process(user(env, 0, 4))
    env.process(user(env, 10, 5))
    env.run(until=10)
    cpu.reset_utilization()
    env.run(until=20)
    assert cpu.utilization(since=10) == pytest.approx(0.5)


def test_capacity_must_be_positive():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_release_is_idempotent():
    env = Environment()
    cpu = Resource(env)

    def user(env):
        req = cpu.request()
        yield req
        cpu.release(req)
        cpu.release(req)  # no error

    env.process(user(env))
    env.run()
    assert cpu.count == 0


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------

def test_store_put_then_get():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        item = yield store.get()
        got.append(item)

    store.put("x")
    env.process(consumer(env))
    env.run()
    assert got == ["x"]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        item = yield store.get()
        got.append((env.now, item))

    def producer(env):
        yield env.timeout(6)
        store.put("late")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [(6, "late")]


def test_store_fifo_ordering():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    for item in (1, 2, 3):
        store.put(item)
    env.process(consumer(env))
    env.run()
    assert got == [1, 2, 3]


def test_store_multiple_waiters_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env, tag):
        item = yield store.get()
        got.append((tag, item))

    env.process(consumer(env, "first"))
    env.process(consumer(env, "second"))

    def producer(env):
        yield env.timeout(1)
        store.put("a")
        store.put("b")

    env.process(producer(env))
    env.run()
    assert got == [("first", "a"), ("second", "b")]


def test_store_len():
    env = Environment()
    store = Store(env)
    store.put(1)
    store.put(2)
    assert len(store) == 2


# ---------------------------------------------------------------------------
# Link
# ---------------------------------------------------------------------------

def test_link_delivers_after_delay():
    env = Environment()
    link = Link(env, delay=0.2)
    got = []

    def consumer(env):
        msg = yield link.mailbox.get()
        got.append((env.now, msg.kind))

    env.process(consumer(env))
    link.send(Message(kind="hello"))
    env.run()
    assert got == [(0.2, "hello")]


def test_link_fifo_per_link():
    env = Environment()
    link = Link(env, delay=0.5)
    got = []

    def consumer(env):
        for _ in range(3):
            msg = yield link.mailbox.get()
            got.append(msg.payload)

    env.process(consumer(env))

    def producer(env):
        for i in range(3):
            link.send(Message(kind="m", payload=i))
            yield env.timeout(0.1)

    env.process(producer(env))
    env.run()
    assert got == [0, 1, 2]


def test_link_mailbox_delivery_carries_payload():
    env = Environment()
    link = Link(env, delay=1.0)
    got = []

    def consumer(env):
        msg = yield link.mailbox.get()
        got.append((env.now, msg.payload))

    env.process(consumer(env))
    link.send(Message(kind="cb", payload=9))
    env.run()
    assert got == [(1.0, 9)]


def test_link_in_flight_accounting():
    env = Environment()
    link = Link(env, delay=2.0)
    link.send(Message(kind="a"))
    link.send(Message(kind="b"))
    assert link.in_flight == 2
    env.run()
    assert link.in_flight == 0


def test_link_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        Link(env, delay=-0.1)
