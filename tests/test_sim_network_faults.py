"""Tests for link degradation and the reliable channel layer."""

import pytest

from repro.sim import engine
from repro.sim.engine import Environment
from repro.sim.network import ACK_KIND, Link, Message, ReliableEndpoint


class ScriptedRng:
    """Deterministic stand-in for random.Random: scripted draw values."""

    def __init__(self, randoms=(), uniforms=()):
        self._randoms = list(randoms)
        self._uniforms = list(uniforms)

    def random(self):
        return self._randoms.pop(0) if self._randoms else 0.5

    def uniform(self, low, high):
        if self._uniforms:
            return low + (high - low) * self._uniforms.pop(0)
        return (low + high) / 2.0


# -- degradation parameter validation ---------------------------------------


def test_set_fault_rejects_bad_parameters():
    link = Link(Environment(), 0.2)
    with pytest.raises(ValueError):
        link.set_fault(drop_probability=1.5)
    with pytest.raises(ValueError):
        link.set_fault(jitter=-0.1, rng=ScriptedRng())
    with pytest.raises(ValueError):
        link.set_fault(delay_factor=0.0)
    with pytest.raises(ValueError):
        # Randomised degradation without an rng would be irreproducible.
        link.set_fault(drop_probability=0.5)
    with pytest.raises(ValueError):
        link.set_fault(jitter=0.1)


def test_degraded_follows_set_fault_and_clear_fault():
    link = Link(Environment(), 0.2)
    assert not link.degraded
    for fault in ({"drop_probability": 0.5, "rng": ScriptedRng()},
                  {"jitter": 0.1, "rng": ScriptedRng()},
                  {"delay_factor": 3.0},
                  {"drop_probability": 1.0}):
        link.set_fault(**fault)
        assert link.degraded, fault
        link.clear_fault()
        assert not link.degraded
    # A no-op fault leaves the link healthy.
    link.set_fault()
    assert not link.degraded


def test_clear_fault_restores_constant_delay():
    env = Environment()
    link = Link(env, 0.2)
    link.set_fault(drop_probability=1.0)
    assert link.degraded
    link.clear_fault()
    assert not link.degraded
    link.send(Message(kind="m", payload=1))
    env.run()
    assert [m.payload for m in link.mailbox.items] == [1]


# -- message loss ------------------------------------------------------------


def test_full_outage_drops_everything_and_notifies():
    env = Environment()
    link = Link(env, 0.2)
    dropped = []
    link.on_drop = dropped.append
    link.set_fault(drop_probability=1.0)  # total outage needs no rng
    link.send(Message(kind="m", payload=1))
    link.send(Message(kind="m", payload=2))
    env.run()
    assert link.messages_dropped == 2
    assert link.messages_delivered == 0
    assert [m.payload for m in dropped] == [1, 2]
    assert link.in_flight == 0


def test_drop_and_delivery_counts():
    env = Environment()
    link = Link(env, 0.2)
    # random() draws: drop the second of three messages.
    link.set_fault(drop_probability=0.5,
                   rng=ScriptedRng(randoms=[0.9, 0.1, 0.9]))
    for index in range(3):
        link.send(Message(kind="m", payload=index))
    assert link.in_flight == 2
    env.run()
    assert [m.payload for m in link.mailbox.items] == [0, 2]
    assert link.messages_sent == 3
    assert link.messages_dropped == 1
    assert link.messages_delivered == 2
    assert link.in_flight == 0


def test_messages_in_flight_before_outage_still_arrive():
    env = Environment()
    link = Link(env, 0.2)
    link.send(Message(kind="m", payload="early"))
    link.set_fault(drop_probability=1.0)
    link.send(Message(kind="m", payload="late"))
    env.run()
    assert [m.payload for m in link.mailbox.items] == ["early"]


# -- reliable endpoint -------------------------------------------------------


def _drain(env, in_link, endpoint, delivered):
    """Dispatch loop: pump every inbound frame through the endpoint."""
    def loop():
        while True:
            frame = yield in_link.mailbox.get()
            delivered.extend(endpoint.pump(frame))
    env.process(loop(), name="drain")


def test_reliable_endpoint_validates_policy():
    env = Environment()
    link = Link(env, 0.1)
    with pytest.raises(ValueError):
        ReliableEndpoint(env, link, name="x", timeout=0.0)
    with pytest.raises(ValueError):
        ReliableEndpoint(env, link, name="x", timeout=1.0, backoff=0.5)
    with pytest.raises(ValueError):
        ReliableEndpoint(env, link, name="x", timeout=2.0, max_timeout=1.0)


def test_clean_channel_delivers_in_order_and_acks():
    env = Environment()
    a_to_b = Link(env, 0.1, name="a->b")
    b_to_a = Link(env, 0.1, name="b->a")
    sender = ReliableEndpoint(env, a_to_b, name="a", timeout=1.0)
    receiver = ReliableEndpoint(env, b_to_a, name="b", timeout=1.0)
    delivered = []
    _drain(env, a_to_b, receiver, delivered)
    _drain(env, b_to_a, sender, delivered)

    for index in range(3):
        sender.send(Message(kind="app", payload=index))
    env.run(until=5.0)
    app = [m.payload for m in delivered if m.kind == "app"]
    assert app == [0, 1, 2]
    assert sender.unacked == 0
    assert sender.retransmits == 0
    assert receiver.acks_sent == 3


def test_lossy_channel_retransmits_until_delivered():
    env = Environment()
    a_to_b = Link(env, 0.1, name="a->b")
    b_to_a = Link(env, 0.1, name="b->a")
    # Drop the first two transmissions of the data frame, then heal.
    a_to_b.set_fault(drop_probability=0.5,
                     rng=ScriptedRng(randoms=[0.1, 0.1, 0.9, 0.9, 0.9]))
    sender = ReliableEndpoint(env, a_to_b, name="a", timeout=0.5)
    receiver = ReliableEndpoint(env, b_to_a, name="b", timeout=0.5)
    delivered = []
    _drain(env, a_to_b, receiver, delivered)
    _drain(env, b_to_a, sender, delivered)

    sender.send(Message(kind="app", payload="x"))
    env.run(until=10.0)
    assert [m.payload for m in delivered if m.kind == "app"] == ["x"]
    assert sender.retransmits >= 2
    assert sender.unacked == 0


def test_duplicate_frames_are_discarded_and_reacked():
    env = Environment()
    a_to_b = Link(env, 0.1, name="a->b")
    b_to_a = Link(env, 0.1, name="b->a")
    # Drop every ack: the sender keeps retransmitting, the receiver must
    # keep discarding duplicates (exactly-once) while re-acking.
    b_to_a.set_fault(drop_probability=1.0)
    dupes = []
    sender = ReliableEndpoint(env, a_to_b, name="a", timeout=0.5,
                              max_timeout=0.5)
    receiver = ReliableEndpoint(env, b_to_a, name="b", timeout=0.5,
                                on_duplicate=dupes.append)
    delivered = []
    _drain(env, a_to_b, receiver, delivered)
    _drain(env, b_to_a, sender, delivered)

    sender.send(Message(kind="app", payload="once"))
    env.run(until=3.0)
    assert [m.payload for m in delivered if m.kind == "app"] == ["once"]
    assert receiver.duplicates_discarded >= 1
    assert len(dupes) == receiver.duplicates_discarded
    # Acks were all lost, so the message is still formally unacked.
    assert sender.unacked == 1


def test_unframed_messages_pass_through_pump():
    env = Environment()
    link = Link(env, 0.1)
    endpoint = ReliableEndpoint(env, link, name="x", timeout=1.0)
    plain = Message(kind="legacy", payload="p")  # rel_seq is None
    assert endpoint.pump(plain) == [plain]


def test_cumulative_ack_retires_all_earlier_sends():
    env = Environment()
    link = Link(env, 0.1)
    endpoint = ReliableEndpoint(env, link, name="x", timeout=10.0,
                                max_timeout=10.0)
    for index in range(4):
        endpoint.send(Message(kind="app", payload=index))
    assert endpoint.unacked == 4
    endpoint.pump(Message(kind=ACK_KIND, payload=2))
    assert endpoint.unacked == 1
    endpoint.pump(Message(kind=ACK_KIND, payload=3))
    assert endpoint.unacked == 0


def _acked(endpoint):
    return list(endpoint._unacked)


def test_cumulative_ack_retires_exactly_the_acked_prefix():
    env = Environment()
    endpoint = ReliableEndpoint(env, Link(env, 0.1), name="x",
                                timeout=10.0, max_timeout=10.0)
    for index in range(6):
        endpoint.send(Message(kind="app", payload=index))
    endpoint.pump(Message(kind=ACK_KIND, payload=2))
    assert _acked(endpoint) == [3, 4, 5]
    # A stale, lower cumulative ack retires nothing more.
    endpoint.pump(Message(kind=ACK_KIND, payload=1))
    assert _acked(endpoint) == [3, 4, 5]
    endpoint.pump(Message(kind=ACK_KIND, payload=4))
    assert _acked(endpoint) == [5]


def test_ack_prefix_holds_across_retransmissions():
    env = Environment()
    link = Link(env, 0.1)
    link.set_fault(drop_probability=1.0)
    endpoint = ReliableEndpoint(env, link, name="x", timeout=0.5,
                                max_timeout=1.0)
    for index in range(4):
        endpoint.send(Message(kind="app", payload=index))
    env.run(until=3.0)
    assert endpoint.retransmits >= 8
    endpoint.pump(Message(kind=ACK_KIND, payload=1))
    assert _acked(endpoint) == [2, 3]
    resent = endpoint.retransmits
    env.run(until=6.0)
    # Only the two frames still unacked keep retransmitting.
    assert endpoint.retransmits > resent
    assert (endpoint.retransmits - resent) % 2 == 0
    endpoint.pump(Message(kind=ACK_KIND, payload=3))
    assert _acked(endpoint) == []
    # Every retransmission timer ends at its next firing.
    env.run(until=20.0)
    assert env.calendar_depth == 0


def test_ack_prefix_after_abandon_and_reset():
    env = Environment()
    endpoint = ReliableEndpoint(env, Link(env, 0.1), name="x",
                                timeout=10.0, max_timeout=10.0)
    for index in range(3):
        endpoint.send(Message(kind="app", payload=index))
    endpoint.abandon()
    assert _acked(endpoint) == []
    # The sequence space continues after abandon().
    for index in range(3):
        endpoint.send(Message(kind="app", payload=index))
    assert _acked(endpoint) == [3, 4, 5]
    endpoint.pump(Message(kind=ACK_KIND, payload=3))
    assert _acked(endpoint) == [4, 5]
    # reset() restarts at zero; acks of the old incarnation are stale.
    endpoint.reset(1)
    for index in range(3):
        endpoint.send(Message(kind="app", payload=index))
    assert _acked(endpoint) == [0, 1, 2]
    endpoint.pump(Message(kind=ACK_KIND, payload=2, rel_inc=0))
    assert _acked(endpoint) == [0, 1, 2]
    assert endpoint.stale_frames == 1
    endpoint.pump(Message(kind=ACK_KIND, payload=0, rel_inc=1))
    assert _acked(endpoint) == [1, 2]


def test_channel_restores_send_order_over_jittered_link():
    """Jitter makes every frame overtake its predecessor on the wire.
    The link hands frames over as they arrive; the receiving endpoint's
    hold-back buffer yields each application message once, in order."""
    env = Environment()
    a_to_b = Link(env, 0.1, name="a->b")
    b_to_a = Link(env, 0.1, name="b->a")
    count = 8
    # Descending jitter: each frame arrives before all earlier ones.
    a_to_b.set_fault(jitter=1.0, rng=ScriptedRng(
        uniforms=[(count - 1 - i) / count for i in range(count)]))
    sender = ReliableEndpoint(env, a_to_b, name="a", timeout=5.0,
                              max_timeout=5.0)
    receiver = ReliableEndpoint(env, b_to_a, name="b", timeout=5.0,
                                max_timeout=5.0)
    arrivals, delivered = [], []

    def receive():
        while True:
            frame = yield a_to_b.mailbox.get()
            arrivals.append(frame.payload)
            delivered.extend(receiver.pump(frame))

    env.process(receive(), name="receive")
    _drain(env, b_to_a, sender, [])
    for index in range(count):
        sender.send(Message(kind="app", payload=index))
    env.run(until=4.0)
    assert arrivals == list(reversed(range(count)))
    assert [m.payload for m in delivered] == list(range(count))
    assert receiver.duplicates_discarded == 0
    assert sender.retransmits == 0
    assert sender.unacked == 0


def test_clean_exchange_creates_no_process_per_frame(monkeypatch):
    constructed = []
    init = engine.Process.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(engine.Process, "__init__", counting_init)
    env = Environment()
    a_to_b = Link(env, 0.1, name="a->b")
    b_to_a = Link(env, 0.1, name="b->a")
    sender = ReliableEndpoint(env, a_to_b, name="a", timeout=1.0)
    receiver = ReliableEndpoint(env, b_to_a, name="b", timeout=1.0)
    delivered = []
    _drain(env, a_to_b, receiver, delivered)
    _drain(env, b_to_a, sender, delivered)
    for index in range(20):
        sender.send(Message(kind="app", payload=index))
    env.run(until=5.0)
    assert [m.payload for m in delivered] == list(range(20))
    assert a_to_b.messages_sent + b_to_a.messages_sent == 40
    # The two drain loops are the only processes.
    assert len(constructed) == 2
