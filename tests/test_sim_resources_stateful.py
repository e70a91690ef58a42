"""Stateful property testing of the Resource primitive.

A hypothesis state machine interleaves request / release / cancel
operations against a :class:`~repro.sim.resources.Resource` and checks
the structural invariants after every step: capacity is never exceeded,
nobody is served while earlier compatible requests starve, accounting
stays exact, and cancellation never corrupts the queue.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.sim import Environment, Resource


class ResourceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.env = Environment()
        self.capacity = 2
        self.resource = Resource(self.env, capacity=self.capacity)
        self.outstanding = []  # requests we have not yet cancelled
        self.created = []  # every request, in creation order

    @rule()
    def request(self):
        request = self.resource.request()
        self.created.append(request)
        self.outstanding.append(request)
        self.env.run()

    @rule(index=st.integers(min_value=0, max_value=100))
    def cancel(self, index):
        if not self.outstanding:
            return
        request = self.outstanding.pop(index % len(self.outstanding))
        request.cancel()
        self.env.run()

    @rule()
    def release_oldest_user(self):
        if self.resource.users:
            request = self.resource.users[0]
            self.resource.release(request)
            if request in self.outstanding:
                self.outstanding.remove(request)
            self.env.run()

    @invariant()
    def capacity_respected(self):
        assert len(self.resource.users) <= self.capacity

    @invariant()
    def no_idle_capacity_with_waiters(self):
        """Work-conserving: waiters exist only when all servers busy."""
        if self.resource.queue:
            assert len(self.resource.users) == self.capacity

    @invariant()
    def users_triggered_waiters_not(self):
        for request in self.resource.users:
            assert request.triggered and request.ok
        for request in self.resource.queue:
            assert not request.triggered

    @invariant()
    def queue_is_fifo_by_ticket(self):
        """Waiters are queued in the order they were created."""
        queued = set(map(id, self.resource.queue))
        assert list(self.resource.queue) == \
            [request for request in self.created if id(request) in queued]

    @invariant()
    def queue_length_accounting(self):
        assert self.resource.queue_length == \
            len(self.resource.queue) + len(self.resource.users)


TestResourceStateful = ResourceMachine.TestCase
TestResourceStateful.settings = settings(
    max_examples=60, stateful_step_count=50, deadline=None)
