"""Shared resources for the DES kernel: servers, stores and mailboxes.

Two primitives cover every queueing station in the hybrid system model:

* :class:`Resource` -- a multi-server FCFS resource with an explicit wait
  queue (models CPUs; the hybrid sites use capacity-1 resources since the
  paper's sites are single processors).
* :class:`Store` -- an unbounded FIFO store of items with blocking ``get``;
  used for message mailboxes between sites.

Requests are events, so a process waits for a grant by yielding one and
can be interrupted while queued; cancelling a queued request removes it
from the wait queue (used when a transaction waiting for the CPU is
aborted).
"""

from __future__ import annotations

from collections import deque
from typing import Any

from .engine import PENDING, Environment, Event, SimulationError

__all__ = ["Resource", "Request", "Store"]


class Request(Event):
    """A pending or granted claim on a :class:`Resource`.

    Usable as a context manager::

        with resource.request() as req:
            yield req            # wait until granted
            yield env.timeout(s) # hold the resource
        # released on exit
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        # Event.__init__, inlined: a request is made per CPU burst.
        # Queueing it is up to :meth:`Resource.request`.
        self.env = resource.env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.resource = resource

    def cancel(self) -> None:
        """Withdraw this request.

        If still queued it is removed from the wait queue; if already
        granted the resource slot is released.  Safe to call more than
        once.
        """
        self.resource._cancel(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.cancel()


class Resource:
    """Multi-server FCFS resource with an observable wait queue.

    The queue length (``len(resource.queue)``) plus the number of busy
    servers (``resource.count``) is exactly the "CPU queue length
    including any running jobs" statistic the paper's dynamic strategies
    sample.  The queue is FIFO: a request is granted at once when a
    server is free (the queue is then empty) and appended otherwise, and
    a grant takes the head.
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: list[Request] = []
        self.queue: deque[Request] = deque()
        #: Total service grants over the resource's lifetime (plain int
        #: on the hot path; harvested into the metrics registry at
        #: run end).
        self.grants = 0
        # Cumulative busy time bookkeeping for utilisation measurement.
        self._busy_integral = 0.0
        self._last_change = env.now

    # -- public API ---------------------------------------------------------

    def request(self) -> Request:
        """Claim one server; the returned event fires when granted."""
        request = Request(self)
        now = self.env.now
        users = self.users
        self._busy_integral += len(users) * (now - self._last_change)
        self._last_change = now
        if len(users) < self.capacity:
            users.append(request)
            self.grants += 1
            request.succeed()
        else:
            self.queue.append(request)
        return request

    def release(self, request: Request) -> None:
        """Release a granted request (idempotent via :meth:`Request.cancel`)."""
        self._cancel(request)

    @property
    def count(self) -> int:
        """Number of servers currently in use."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        """Waiting plus in-service jobs (the paper's ``q`` statistic)."""
        return len(self.queue) + len(self.users)

    def utilization(self, since: float = 0.0) -> float:
        """Time-average fraction of capacity busy since time ``since``."""
        self._account()
        horizon = self.env.now - since
        if horizon <= 0:
            return 0.0
        return self._busy_integral / (horizon * self.capacity)

    def busy_time(self) -> float:
        """Cumulative busy server-seconds since creation or the last
        :meth:`reset_utilization` (used for windowed utilisation)."""
        self._account()
        return self._busy_integral

    def reset_utilization(self) -> None:
        """Restart the utilisation integral (e.g. after warm-up)."""
        self._account()
        self._busy_integral = 0.0

    # -- internals ----------------------------------------------------------

    def _account(self) -> None:
        now = self.env.now
        self._busy_integral += len(self.users) * (now - self._last_change)
        self._last_change = now

    def _cancel(self, request: Request) -> None:
        now = self.env.now
        users = self.users
        self._busy_integral += len(users) * (now - self._last_change)
        self._last_change = now
        queue = self.queue
        if request in users:
            users.remove(request)
            while queue and len(users) < self.capacity:
                nxt = queue.popleft()
                users.append(nxt)
                self.grants += 1
                nxt.succeed()
        elif request in queue:
            queue.remove(request)


class Store:
    """Unbounded FIFO store of items with blocking retrieval.

    Used as a one-way mailbox: producers :meth:`put` items (never blocks),
    consumers ``yield store.get()`` and receive items in insertion order.
    """

    def __init__(self, env: Environment):
        self.env = env
        self.items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def put(self, item: Any) -> None:
        """Deposit ``item``; wakes the oldest waiting getter, if any."""
        while self._getters:
            getter = self._getters.popleft()
            if not getter.triggered:
                getter.succeed(item)
                return
        self.items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next available item."""
        event = self.env.event()
        if self.items:
            event.succeed(self.items.popleft())
        else:
            self._getters.append(event)
        return event

    def __len__(self) -> int:
        return len(self.items)
