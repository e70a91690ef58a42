"""Ordering edge cases of the event calendar.

The calendar is two bands -- immediate FIFO deques per priority and one
binary heap of future entries -- that together must realise the total
order ``(time, priority, seq)``.  The hand-written tests pin its
corners: same-time interrupt pre-emption, FIFO stability among equal
timestamps, time ordering of distinct timestamps, the run-horizon
boundary landing exactly on an event time, and the empty-calendar stop
signal.  The property test drives random mixes of every scheduling path
against a brute-force reference scheduler that scans its pending list
for the minimum ``(time, priority, seq)`` key at every step.  A second
property test pins :class:`~repro.sim.engine.Timer` to the generator
process it replaces, dispatch for dispatch.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Interrupt, SimulationError, \
    StopSimulation


def test_same_time_interrupt_preempts_normal_event():
    """An interrupt raised at time t fires before normal events at t."""
    env = Environment()
    order = []

    def victim(env):
        try:
            yield env.timeout(100)
        except Interrupt:
            order.append(("interrupted", env.now))

    target = env.process(victim(env))

    def interrupter(env):
        yield env.timeout(5)
        target.interrupt("now")

    def observer(env):
        # Scheduled *after* the interrupter, so its t=5 timeout has a
        # later sequence number -- yet the interrupt, entering the
        # priority-0 band at t=5, must still run first.
        yield env.timeout(5)
        order.append(("observer", env.now))

    env.process(interrupter(env))
    env.process(observer(env))
    env.run()
    assert order == [("interrupted", 5), ("observer", 5)]


def test_fifo_seq_stability_within_a_bucket():
    """Equal-time future entries fire in scheduling order."""
    env = Environment()
    fired = []

    def waiter(env, tag):
        yield env.timeout(5.0)
        fired.append(tag)

    for tag in range(32):
        env.process(waiter(env, tag))
    env.run()
    assert fired == list(range(32))


def test_distinct_times_in_one_bucket_sort_by_time():
    """Future entries scheduled out of time order drain time-ordered."""
    env = Environment()
    fired = []

    def waiter(env, delay):
        yield env.timeout(delay)
        fired.append(env.now)

    env.process(waiter(env, 100.0))
    for delay in (7.0, 3.0, 5.0, 1.0, 9.0):
        env.process(waiter(env, delay))
    env.run()
    assert fired == [1.0, 3.0, 5.0, 7.0, 9.0, 100.0]


def test_run_horizon_exactly_on_bucket_edge():
    """``until`` equal to an event time dispatches that event, then
    parks the clock exactly on the horizon."""
    env = Environment()
    fired = []

    def waiter(env, delay):
        yield env.timeout(delay)
        fired.append(env.now)

    env.process(waiter(env, 1.0))
    env.process(waiter(env, 2.0))
    env.run(until=1.0)
    assert fired == [1.0]
    assert env.now == 1.0
    env.run(until=2.0)
    assert fired == [1.0, 2.0]
    assert env.now == 2.0


def test_empty_calendar_step_raises_stop_simulation():
    env = Environment()
    with pytest.raises(StopSimulation):
        env.step()
    # run() on an empty calendar is a no-op, not an error.
    assert env.run() is None
    assert env.now == 0.0


def test_calendar_stats_shape():
    env = Environment()

    def waiter(env):
        yield env.timeout(1.0)

    env.process(waiter(env))
    stats = env.calendar_stats()
    assert stats == {"depth": 1, "immediate": 1, "future": 0}
    assert env.calendar_depth == 1
    env.run(until=0.5)  # start the process; its timeout is now future
    assert env.calendar_stats() == {"depth": 1, "immediate": 0,
                                    "future": 1}


# -- differential test against a brute-force reference ----------------------

#: Delays of the generated timeouts: zero, sub-ulp (a real delay at
#: time 0, but ``now + delay == now`` at any later reading), dyadic
#: values whose sums stay exact (so timestamps collide), and far-future.
DELAYS = [0.0, 5e-324, 1e-300, 0.25, 0.5, 1.0, 2.0, 1e9]
#: Horizon offsets for ``run(until=now + h)``: dyadic, so horizons land
#: exactly on event times.
HORIZONS = [0.0, 0.25, 0.5, 1.0, 1.75, 3.0]
ACTORS = 5

_op = st.one_of(
    st.tuples(st.just("sleep"), st.sampled_from(DELAYS)),
    st.tuples(st.just("signal"), st.integers(1, 3)),
    st.tuples(st.just("interrupt"), st.integers(0, ACTORS - 1)),
)
_action = st.one_of(
    st.tuples(st.just("start"), st.integers(0, ACTORS - 1)),
    st.tuples(st.just("interrupt"), st.integers(0, ACTORS - 1)),
    st.tuples(st.just("run"), st.sampled_from(HORIZONS)),
)
_scenario = st.tuples(
    st.lists(st.lists(_op, max_size=8), min_size=ACTORS, max_size=ACTORS),
    st.lists(st.integers(0, ACTORS - 1), max_size=ACTORS),
    st.lists(_action, max_size=12),
)


class _Reference:
    """Brute-force scheduler with the kernel's semantics.

    Pending entries are ``(time, priority, seq, action)``; each step
    dispatches the minimum by a linear scan.  Actors mirror
    :func:`_actor`: a resume runs ops up to the next wait, an interrupt
    ends the actor, and a finished actor's completion event is a no-op
    dispatch (as are stale wake-ups of a dead actor).
    """

    def __init__(self, scripts):
        # A signal chain of n links is n waits on an immediate event.
        self.scripts = [
            [(kind, arg, k) for k, (kind, arg) in enumerate(script)
             for _ in range(arg if kind == "signal" else 1)]
            for script in scripts]
        self.now = 0.0
        self.seq = 0
        self.pending = []
        self.peak = 0
        self.times = []
        self.log = []
        self.started = set()
        self.alive = set()
        self.position = {}

    def push(self, delay, priority, action):
        self.seq += 1
        time = max(self.now + delay, self.now)
        self.pending.append((time, priority, self.seq, action))
        self.peak = max(self.peak, len(self.pending))

    def step(self):
        entry = min(self.pending)
        self.pending.remove(entry)
        self.now = entry[0]
        self.times.append(self.now)
        entry[3]()

    def run(self, until=None):
        while self.pending:
            if until is not None and min(self.pending)[0] > until:
                break
            self.step()
        if until is not None:
            self.now = until

    def start(self, i):
        self.alive.add(i)
        self.position[i] = 0
        self.push(0.0, 1, lambda: self.resume(i))

    def interrupt(self, j):
        priority = 0 if j in self.started else 2
        self.push(0.0, priority, lambda: self.resume(j, interrupted=True))

    def resume(self, i, interrupted=False):
        if i not in self.alive:
            return
        self.started.add(i)
        dispatched = len(self.times)
        script = self.scripts[i]
        while not interrupted and self.position[i] < len(script):
            kind, arg, k = script[self.position[i]]
            self.position[i] += 1
            self.log.append((dispatched, self.now, i, k))
            if kind == "sleep":
                self.push(arg, 1, lambda: self.resume(i))
                return
            if kind == "signal":
                self.push(0.0, 1, lambda: self.resume(i))
                return
            if arg != i and arg in self.alive:
                self.interrupt(arg)
        self.log.append((dispatched, self.now, i,
                         "interrupted" if interrupted else "done"))
        # The finished process is itself an event: it consumes a
        # sequence number and one (callback-free) dispatch.
        self.alive.discard(i)
        self.push(0.0, 1, lambda: None)


def _actor(env, i, script, procs, log):
    """Run ``script``; an interrupt ends the actor.

    Ending at an interrupt is what every protocol process does, and it
    keeps the reference scheduler free of detach bookkeeping.
    """
    try:
        for k, (kind, arg) in enumerate(script):
            if kind == "sleep":
                log.append((env.events_processed, env.now, i, k))
                yield env.timeout(arg)
            elif kind == "signal":
                for link in range(arg):
                    log.append((env.events_processed, env.now, i, k))
                    event = env.event()
                    event.succeed(link)
                    assert (yield event) == link
            else:
                log.append((env.events_processed, env.now, i, k))
                target = procs.get(arg)
                if arg != i and target is not None and target.is_alive:
                    target.interrupt(k)
        log.append((env.events_processed, env.now, i, "done"))
    except Interrupt:
        log.append((env.events_processed, env.now, i, "interrupted"))


@settings(max_examples=150, deadline=None)
@given(_scenario)
def test_dispatch_order_matches_brute_force_reference(scenario):
    scripts, initial, actions = scenario
    env = Environment()
    ref = _Reference(scripts)
    procs, log, times = {}, [], []
    kernel_step = env.step

    def checked_step():
        # peek() and next_event() must name exactly what step() does.
        expected_time = env.peek()
        head = env.next_event()
        assert head is not None and head.callbacks is not None
        kernel_step()
        assert head.callbacks is None
        assert env.now == expected_time
        times.append(env.now)

    env.step = checked_step

    def start(i):
        if i in procs:
            return
        procs[i] = env.process(_actor(env, i, scripts[i], procs, log))
        ref.start(i)

    for i in initial:
        start(i)
    for kind, arg in actions:
        if kind == "start":
            start(arg)
        elif kind == "interrupt":
            if arg in procs:
                assert procs[arg].is_alive == (arg in ref.alive)
                if procs[arg].is_alive:
                    procs[arg].interrupt("outside")
                    ref.interrupt(arg)
        else:
            until = env.now + arg
            env.run(until=until)
            ref.run(until=until)
            assert env.now == ref.now == until
    env.run()
    ref.run()

    # Unlabelled dispatches (process start-ups and completions, stale
    # wake-ups) are pinned too: every log line carries the dispatch
    # count, and every dispatch its clock reading.
    assert log == ref.log
    assert times == ref.times
    assert env.now == ref.now
    assert env.events_scheduled == ref.seq
    assert env.events_processed == len(ref.times)
    assert env.calendar_depth == 0
    assert env.heap_peak == ref.peak


# -- Timer against its generator form ---------------------------------------

TIMERS = 4

#: One timer: its first delay; for each action call, the delay it
#: returns to re-arm with, how long a ``succeed()`` chain it fires and
#: whether it raises instead (about one call in four); and whether a
#: process waits on the timer.
_timer_spec = st.tuples(
    st.sampled_from(DELAYS),
    st.lists(st.tuples(st.sampled_from(DELAYS), st.integers(0, 2),
                       st.integers(0, 3).map(lambda n: n == 0)),
             max_size=4),
    st.booleans(),
)
_mix_action = st.one_of(
    st.tuples(st.just("timer"), st.integers(0, TIMERS - 1)),
    st.tuples(st.just("actor"), st.integers(0, ACTORS - 1)),
    st.tuples(st.just("run"), st.sampled_from(HORIZONS)),
)
_timer_scenario = st.tuples(
    st.lists(_timer_spec, min_size=TIMERS, max_size=TIMERS),
    st.lists(st.lists(_op, max_size=6), min_size=ACTORS, max_size=ACTORS),
    st.lists(_mix_action, max_size=14),
)


def _timer_as_process(env, delay, action):
    """The generator process a Timer stands in for."""
    while delay is not None:
        yield env.timeout(delay)
        delay = action()


class _ActionFailed(Exception):
    pass


def _waiter(env, timer, i, log):
    try:
        value = yield timer
    except _ActionFailed as error:
        log.append((env.events_processed, env.now, "caught", i,
                    str(error)))
        return
    log.append((env.events_processed, env.now, "joined", i, value))


def _run_timer_mix(scenario, use_timer):
    """Play ``scenario``; timers are kernel Timers or generator
    processes.  A failure no waiter catches ends the scenario where it
    leaves :meth:`Environment.run`.  Returns everything the two forms
    must agree on."""
    specs, scripts, actions = scenario
    env = Environment()
    log, times, procs, timers = [], [], {}, set()
    kernel_step = env.step

    def step():
        kernel_step()
        times.append(env.now)

    env.step = step

    def start_timer(i):
        first, rearms, waited = specs[i]
        calls = iter(rearms + [(None, 1, False)])

        def action():
            delay, chain, raises = next(calls)
            log.append((env.events_processed, env.now, "fired", i))
            for link in range(chain):
                env.event().succeed(link)
            if raises:
                raise _ActionFailed(f"timer {i}")
            return delay

        if use_timer:
            timer = env.timer(first, action)
        else:
            timer = env.process(_timer_as_process(env, first, action))
        if waited:
            env.process(_waiter(env, timer, i, log))

    try:
        for kind, arg in actions:
            if kind == "timer":
                if arg not in timers:
                    timers.add(arg)
                    start_timer(arg)
            elif kind == "actor":
                if arg not in procs:
                    procs[arg] = env.process(
                        _actor(env, arg, scripts[arg], procs, log))
            else:
                env.run(until=env.now + arg)
        env.run()
    except _ActionFailed as error:
        log.append((env.events_processed, env.now, "raised", str(error)))
    return (log, times, env.now, env.events_scheduled,
            env.events_processed, env.heap_peak)


@settings(max_examples=150, deadline=None)
@given(_timer_scenario)
def test_timer_matches_its_generator_process(scenario):
    assert _run_timer_mix(scenario, use_timer=True) == \
        _run_timer_mix(scenario, use_timer=False)


def test_timer_rearms_until_action_returns_none():
    env = Environment()
    fired = []
    delays = iter([2.0, 0.0, None])

    def action():
        fired.append(env.now)
        return next(delays)

    timer = env.timer(1.0, action)
    env.run()
    assert fired == [1.0, 3.0, 3.0]
    assert timer.processed and timer.ok and timer.value is None
    # Start hop, three sleeps, completion.
    assert env.events_processed == 5


def test_timer_action_exception_propagates_out_of_run():
    env = Environment()

    def action():
        raise ValueError("broken action")

    env.timer(1.0, action)
    with pytest.raises(ValueError, match="broken action"):
        env.run()
    assert env.now == 1.0


def test_timer_action_exception_fails_the_timer_for_its_waiter():
    env = Environment()
    caught = []

    def action():
        raise ValueError("broken action")

    def waiter(timer):
        try:
            yield timer
        except ValueError as error:
            caught.append((env.now, str(error)))

    timer = env.timer(1.0, action)
    env.process(waiter(timer))
    env.run()
    assert caught == [(1.0, "broken action")]
    assert timer.processed and not timer.ok


def test_timer_rejects_negative_delay():
    with pytest.raises(SimulationError):
        Environment().timer(-1.0, lambda: None)
