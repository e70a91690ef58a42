"""Discrete-event simulation kernel.

A small, self-contained process-based DES engine in the style of SimPy,
built from scratch for this reproduction (SimPy is not a dependency).

The kernel provides:

* :class:`Environment` -- the simulated clock and the event calendar.
* :class:`Event` -- a one-shot occurrence that processes can wait on.
* :class:`Timeout` -- an event that fires after a fixed simulated delay.
* :class:`Process` -- a generator-driven simulated activity.  A process
  function ``yield``\\ s events; the kernel resumes the generator when the
  yielded event fires, sending the event's value back into the generator.
* :class:`Timer` -- a process without a generator: sleep, call an
  action, repeat while the action asks for another sleep (the network
  layer's per-frame delivery and retransmission timers).
* :class:`Interrupt` -- an exception thrown *into* a process by another
  process (used by the hybrid protocol to abort transactions that are
  waiting on a lock or sleeping in an I/O phase).

Determinism: events scheduled for the same simulated time fire in FIFO
order of scheduling (a monotonically increasing sequence number breaks
ties), so simulations are exactly reproducible for a fixed RNG seed.

Event calendar
--------------

The calendar realises the total order ``(time, priority, seq)`` in two
bands:

* **Immediate band** -- zero-delay events (``succeed``/``fail``,
  process and timer start-ups, interrupts) fire at the current clock
  reading and in scheduling order, so they live in plain FIFO deques
  (one per priority level) with no sort key at all.  This is the kernel's
  dominant traffic and costs one ``append``/``popleft`` per event.
* **Future band** -- every later event sits in one binary heap of
  ``(time, seq, event)`` entries.  Future events all carry the default
  priority, so ``(time, seq)`` is the same order as
  ``(time, priority, seq)``, and the unique ``seq`` means two entries
  never fall through to comparing events.

Every enqueue consumes one monotonically increasing sequence number.
A future entry that reaches the current time was scheduled before any
immediate event at that time, so it fires ahead of the normal-priority
immediates; interrupts (priority 0) still pre-empt it, and deferred
interrupts (priority 2) still follow it.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Callable, Generator
from typing import Any

# Bound at module level: a global lookup is cheaper than the attribute
# traversal on the hot schedule and dispatch paths.
_heappush = heapq.heappush
_heappop = heapq.heappop

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Timer",
    "Interrupt",
    "SimulationError",
    "StopSimulation",
    "PENDING",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Environment.run`."""


class _Pending:
    """Sentinel for an event value that has not been decided yet."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<PENDING>"


#: Sentinel stored in :attr:`Event._value` until the event is triggered.
PENDING = _Pending()


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries an arbitrary object describing why the
    interrupt happened (the hybrid protocol passes abort reasons here).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Interrupt({self.cause!r})"


class Event:
    """A one-shot occurrence that processes may wait for.

    An event moves through three states: *pending* (created, not yet
    triggered), *triggered* (scheduled to fire, value decided) and
    *processed* (callbacks have run).  Waiting processes register
    callbacks; when the event fires, each callback receives the event.

    ``__slots__`` keeps instances dict-free: millions of events are
    allocated per run, and slotted attribute access is the kernel's
    hottest path.  Subclasses outside this module that add attributes
    still work (they simply regain a ``__dict__``).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] | None = []
        self._value: Any = PENDING
        self._ok: bool = True
        #: True once a failure value has been retrieved or defused.
        self._defused = False

    # -- state inspection -------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a decided value."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event fired with."""
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``.

        The zero-delay enqueue is inlined (peak bookkeeping included,
        mirroring :meth:`Environment._enqueue`): succeeding an event is
        the kernel's hottest trigger path.
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._seq += 1
        size = env._size = env._size + 1
        if size > env.heap_peak:
            env.heap_peak = size
        env._imm1.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters see ``exception`` raised."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._enqueue(self)
        return self

    def defused(self) -> None:
        """Mark a failed event as handled so it will not crash the run."""
        self._defused = True

    # -- internal ---------------------------------------------------------

    def _add_callback(self, callback: Callable[["Event"], None]) -> "Event":
        """Subscribe ``callback``; return the event it is subscribed to.

        An event not yet processed takes the callback itself.  An
        already processed one is re-delivered through an immediate
        mirror event that carries its outcome and calls ``callback``
        with the mirror.  The mirror is pre-defused (the outcome was
        handled when this event was processed), and it is what the
        subscriber must detach from to cancel the wake-up.
        """
        if self.callbacks is not None:
            self.callbacks.append(callback)
            return self
        mirror = self.env.event()
        mirror._ok = self._ok
        mirror._value = self._value
        mirror._defused = True
        mirror.callbacks.append(callback)
        self.env._enqueue(mirror)
        return mirror

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated time units in the future."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        # Inlined Event.__init__ -- timeouts are the most frequently
        # allocated event kind, so skip the extra method call.
        self.env = env
        self.callbacks = []
        self._defused = False
        self.delay = delay
        self._ok = True
        self._value = value
        env._enqueue(self, delay)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Timeout delay={self.delay}>"


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A simulated activity driven by a generator.

    The generator yields :class:`Event` instances; the kernel resumes it
    with the event's value once the event fires (or throws the event's
    exception into it if the event failed).  A ``Process`` is itself an
    event that fires when the generator returns, carrying the return
    value -- so processes can wait for other processes.
    """

    __slots__ = ("name", "_generator", "_send", "_throw", "_target",
                 "_started")

    def __init__(self, env: "Environment", generator: ProcessGenerator,
                 name: str | None = None):
        if not hasattr(generator, "throw"):
            raise SimulationError(
                f"{generator!r} is not a generator; did you call the "
                "process function?")
        super().__init__(env)
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        # Bound resume entry points, looked up once: _resume runs for
        # every wake-up of every process.
        self._send = generator.send
        self._throw = generator.throw
        self._target: Event | None = None
        self._started = False
        # Kick off at the current simulation time.
        init = env.event()
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume)
        env._enqueue(init)

    @property
    def target(self) -> Event | None:
        """The event this process is currently waiting for (if any).

        After yielding an already processed event, this is the mirror
        event that re-delivers it (see :meth:`Event._add_callback`).
        """
        return self._target

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a dead process is an error; interrupting a process
        that is about to be resumed is allowed (the interrupt is delivered
        first and the original event's outcome is discarded -- the event
        itself still fires for other waiters).  Delivery detaches the
        process from the event it was waiting on, so a process that
        catches the interrupt and waits on something else is not woken
        by the abandoned event.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead {self!r}")
        if self.env._active is self:
            raise SimulationError("a process cannot interrupt itself")
        failure = self.env.event()
        failure._ok = False
        failure._value = Interrupt(cause)
        failure._defused = True
        failure.callbacks.append(self._interrupted)
        # Interrupts normally pre-empt same-time events (priority 0),
        # but a not-yet-started process must be initialised first --
        # throwing into an unstarted generator would bypass its try
        # blocks -- so such interrupts are sequenced after the init event.
        self.env._enqueue(failure, priority=0 if self._started else 2)

    def _interrupted(self, event: Event) -> None:
        """Deliver an interrupt: detach from the awaited event, then throw.

        The target is the event the process waits on *now* (a second
        interrupt at the same time finds the wait the first one left
        behind); a callback already gone is not an error.
        """
        target = self._target
        if target is not None and target.callbacks:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._resume(event)

    def _resume(self, event: Event) -> None:
        if self._value is not PENDING:  # inlined `triggered` (hot path)
            # Process already finished (e.g. interrupt raced completion).
            if not event._ok:
                event.defused()
            return
        # Detach from the event we were waiting on.
        self._target = None
        env = self.env
        env._active = self
        self._started = True
        try:
            if event._ok:
                next_event = self._send(event._value)
            else:
                # Mark the failure as handled before delivery: whether
                # it is an Interrupt or an ordinary exception, reaching
                # the waiting process *is* its handling.
                event._defused = True
                next_event = self._throw(event._value)
        except StopIteration as stop:
            env._active = None
            self.succeed(stop.value)
            return
        except BaseException as error:
            env._active = None
            if isinstance(error, (KeyboardInterrupt, SystemExit)):
                raise
            self._ok = False
            self._value = error
            env._enqueue(self)
            return
        env._active = None
        self._target = next_event
        # Duck-typed validation (anything without a ``callbacks``
        # attribute is not an event) plus the inlined _add_callback
        # fast path: yielding an unprocessed event is the
        # overwhelmingly common case, and the try costs nothing when
        # no exception is raised.
        try:
            callbacks = next_event.callbacks
        except AttributeError:
            self._target = None
            raise SimulationError(
                f"process {self.name!r} yielded a non-event: "
                f"{next_event!r}") from None
        if callbacks is None:
            # Already processed: wait on (and be detachable from) the
            # mirror event that re-delivers it.
            self._target = next_event._add_callback(self._resume)
        else:
            callbacks.append(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"


class Timer(Event):
    """A process without a generator: sleep, act, repeat.

    ``env.timer(delay, action)`` has exactly the schedule of
    ``env.process(...)`` running ::

        while delay is not None:
            yield env.timeout(delay)
            delay = action()

    -- a start hop at the current time, one :class:`Timeout` per sleep,
    and the timer itself succeeding with ``None`` once ``action``
    returns ``None`` -- so sequence numbers, dispatch counts and the
    calendar's peak depth match the generator form, without a generator
    frame per timer.  An exception raised by ``action`` fails the timer
    as it would fail the process: a process waiting on the timer has it
    thrown in, and an unhandled one propagates out of
    :meth:`Environment.run` when the failed timer is dispatched.
    """

    __slots__ = ("_action",)

    def __init__(self, env: "Environment", delay: float,
                 action: Callable[[], float | None]):
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self._action = action
        # The start hop carries the first delay as its value.
        start = Event(env)
        start.callbacks.append(self._start)
        start.succeed(delay)

    def _start(self, start: Event) -> None:
        self.env.timeout(start._value).callbacks.append(self._fire)

    def _fire(self, _timeout: Event) -> None:
        try:
            delay = self._action()
        except BaseException as error:
            if isinstance(error, (KeyboardInterrupt, SystemExit)):
                raise
            self.fail(error)
            return
        if delay is None:
            self.succeed()
        else:
            self.env.timeout(delay).callbacks.append(self._fire)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.triggered else "alive"
        return f"<Timer {self._action!r} {state}>"


class Environment:
    """Simulation environment: clock, event calendar and run loop.

    ``now`` is a plain attribute holding the current simulated time.
    Only the kernel writes it; everything else reads it.
    """

    def __init__(self, initial_time: float = 0.0):
        #: Current simulated time.
        self.now = float(initial_time)
        self._seq = 0
        self._size = 0
        self._active: Process | None = None
        # Immediate band: zero-delay events at the current clock
        # reading, one FIFO per priority level (0 = interrupts,
        # 1 = normal, 2 = deferred interrupts for unstarted processes).
        self._imm0: deque[Event] = deque()
        self._imm1: deque[Event] = deque()
        self._imm2: deque[Event] = deque()
        # Future band: heap of (time, seq, event) entries.
        self._future: list[tuple[float, int, Event]] = []
        #: Profiling counter (cheap; read by the run instrumentation).
        self.heap_peak = 0

    @property
    def events_scheduled(self) -> int:
        """Total events placed on the calendar.

        Every enqueue consumes one tie-breaking sequence number, so the
        sequence counter *is* the schedule counter -- no separate
        increment in the hot path.
        """
        return self._seq

    @property
    def events_processed(self) -> int:
        """Total events dispatched so far.

        Every scheduled event is dispatched exactly once, so processed
        = scheduled - pending; deriving it spares :meth:`step` a
        counter increment on every event.
        """
        return self._seq - self._size

    @property
    def calendar_depth(self) -> int:
        """Events currently pending across both calendar bands."""
        return self._size

    def calendar_stats(self) -> dict:
        """Structural snapshot of the calendar (profiler/debug aid)."""
        return {
            "depth": self._size,
            "immediate": (len(self._imm0) + len(self._imm1) +
                          len(self._imm2)),
            "future": len(self._future),
        }

    # -- event construction helpers ----------------------------------------

    def event(self) -> Event:
        """Create a new untriggered :class:`Event`.

        Construction is inlined (``__new__`` plus field writes): this
        factory sits on the mailbox and process start-up hot paths.
        """
        event = Event.__new__(Event)
        event.env = self
        event.callbacks = []
        event._value = PENDING
        event._ok = True
        event._defused = False
        return event

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` time units from now.

        Timeouts are the most frequently allocated event kind, so the
        constructor and the calendar insert are inlined here.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        timeout = Timeout.__new__(Timeout)
        timeout.env = self
        timeout.callbacks = []
        timeout._value = value
        timeout._ok = True
        timeout._defused = False
        timeout.delay = delay
        # Inlined :meth:`_enqueue` (delay >= 0, priority 1): timeouts
        # are a third of all dispatches, so they skip the extra call
        # frame.  Mirror any scheduling change made here in _enqueue
        # (and vice versa); the peak bookkeeping below is the same
        # single-site accounting documented there.
        seq = self._seq = self._seq + 1
        size = self._size = self._size + 1
        if size > self.heap_peak:
            self.heap_peak = size
        now = self.now
        time = now + delay
        if time <= now:
            self._imm1.append(timeout)
        else:
            _heappush(self._future, (time, seq, timeout))
        return timeout

    def process(self, generator: ProcessGenerator,
                name: str | None = None) -> Process:
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator, name=name)

    def timer(self, delay: float,
              action: Callable[[], float | None]) -> Timer:
        """Start a :class:`Timer`: call ``action`` after ``delay``, then
        again after each delay it returns, until it returns ``None``."""
        return Timer(self, delay, action)

    # -- scheduling ---------------------------------------------------------

    def _enqueue(self, event: Event, delay: float = 0.0,
                 priority: int = 1) -> None:
        """Place a triggered event on the calendar.

        ``priority`` 0 is used for interrupts so that they pre-empt
        same-time normal events; priority 2 sequences an interrupt
        *after* the target's start-up.  Non-default priorities are a
        zero-delay facility -- only same-time pre-emption is meaningful.

        This is also the *single* peak-depth bookkeeping site: the
        calendar only ever grows here, one event at a time, so every
        local maximum of its size is observed exactly at the increment
        below -- no sampling in :meth:`step` or :meth:`run` needed.
        """
        seq = self._seq = self._seq + 1
        size = self._size = self._size + 1
        if size > self.heap_peak:
            self.heap_peak = size
        now = self.now
        time = now + delay
        if time <= now:
            # Zero-delay (including the float-degenerate ``now + tiny ==
            # now`` case): fires at the current clock reading, and the
            # FIFO append order *is* the sequence order.
            if priority == 1:
                self._imm1.append(event)
            elif priority == 0:
                self._imm0.append(event)
            else:
                self._imm2.append(event)
            return
        if priority != 1:
            raise SimulationError(
                "non-default priorities are only supported for "
                "zero-delay events")
        _heappush(self._future, (time, seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._imm0 or self._imm1 or self._imm2:
            return self.now
        if self._future:
            return self._future[0][0]
        return float("inf")

    def next_event(self) -> "Event | None":
        """The event at the calendar head, or ``None`` when empty.

        Read-only companion to :meth:`peek` for observers (the engine
        profiler classifies the head before dispatch); the calendar is
        not modified and the returned event is exactly the one the next
        :meth:`step` will dispatch.
        """
        if self._imm0:
            return self._imm0[0]
        future = self._future
        if self._imm1:
            if future and future[0][0] <= self.now:
                return future[0][2]
            return self._imm1[0]
        if future:
            if self._imm2 and future[0][0] > self.now:
                return self._imm2[0]
            return future[0][2]
        return self._imm2[0] if self._imm2 else None

    def step(self) -> None:
        """Process the next scheduled event."""
        if self._imm0:
            event = self._imm0.popleft()
        elif self._imm1:
            # A future entry at exactly the current time was scheduled
            # before the clock reached it, so its sequence number --
            # and with it, its turn -- precedes every immediate event.
            future = self._future
            if future and future[0][0] <= self.now:
                event = _heappop(future)[2]
            else:
                event = self._imm1.popleft()
        elif self._future:
            future = self._future
            if self._imm2 and future[0][0] > self.now:
                event = self._imm2.popleft()
            else:
                self.now, _, event = _heappop(future)
        elif self._imm2:
            event = self._imm2.popleft()
        else:
            raise StopSimulation("event calendar is empty")
        self._size -= 1
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            # Nearly every event has exactly one callback (its waiting
            # process); skip the iterator for that case.
            if len(callbacks) == 1:
                callbacks[0](event)
            else:
                for callback in callbacks:
                    callback(event)
        if not event._ok and not event._defused:
            # An un-handled failure crashes the simulation, as it would in
            # SimPy: errors should never pass silently.
            raise event._value

    def run(self, until: float | Event | None = None) -> Any:
        """Run the simulation.

        ``until`` may be a simulated time (run up to that time), an
        :class:`Event` (run until it fires, returning its value), or
        ``None`` (run until the calendar drains).
        """
        stop_event: Event | None = None
        if isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                return stop_event.value

            def _halt(event: Event) -> None:
                raise StopSimulation(event)

            stop_event._add_callback(_halt)
        elif until is not None:
            horizon = float(until)
            if horizon < self.now:
                raise SimulationError(
                    f"until={horizon} lies in the past (now={self.now})")
        try:
            step = self.step
            bounded = stop_event is None and until is not None
            # The calendar containers are created once in __init__ and
            # never replaced, so locals stay valid across steps.
            #
            # Dispatch stays a per-event *call* to :meth:`step` on
            # purpose: CPython 3.11 specialises a code object only
            # after several calls, so ``step`` -- invoked once per
            # event -- runs fully quickened, whereas this loop's body
            # (entered once per simulation) never would.  Inlining the
            # dispatch here measures ~20% slower for exactly that
            # reason.  The bound-method binding also keeps the engine
            # profiler's instance-attribute wrapping of ``step``
            # effective.
            imm0, imm1, imm2 = self._imm0, self._imm1, self._imm2
            future = self._future
            while self._size:
                if bounded and not (imm0 or imm1 or imm2) and \
                        future[0][0] > horizon:
                    self.now = horizon
                    return None
                step()
        except StopSimulation as stop:
            if stop_event is not None and stop.args and \
                    stop.args[0] is stop_event:
                if not stop_event._ok:
                    raise stop_event._value
                return stop_event._value
            return None
        if stop_event is not None and not stop_event.triggered:
            raise SimulationError(
                "run(until=event) ended before the event fired")
        if until is not None and stop_event is None:
            self.now = horizon
        return None
