"""Host-speed reference: a frozen pure-Python loop run beside the program.

The host this benchmark was built on changes speed from second to
second: on a 2-vCPU KVM guest a fixed block of pure-Python work took
anywhere from 44 to 91 ms, switching between a fast and a slow regime
every few seconds.  Raw seconds of a repetition therefore mix the
program's cost with the host's mood.

A :class:`Gauge` runs the reference loop in a background thread of the
same process, pinned to the same CPU (:func:`pin_to_one_cpu`), for as
long as the timed code runs.  The two threads take turns on the
interpreter lock every few milliseconds -- the gauge hands it back after
each chunk -- so the gauge samples the host at the speed the program
saw.  Both threads are timed by their own CPU clocks, and the program's
time is reported at a fixed nominal reference speed::

    adjusted = program CPU seconds * NOMINAL_CHUNK_S / mean gauge chunk

On that host, ten repetitions of one simulation in one process varied by
a coefficient of variation of 15-17% raw and 10-15% when bracketed by
one-second reference blocks before and after each repetition, but by
2-3% when adjusted by a gauge running beside them.

The gauge's loop allocates no object that the garbage collector tracks,
so it can never start a collection: a collection the program triggers
runs on the program's thread while the gauge waits, and the size of the
program's heap cannot slow the reference.

**Frozen.**  :func:`reference_kernel`, :data:`CHUNK_ITERATIONS` and
:data:`NOMINAL_CHUNK_S` define the unit every adjusted figure is
expressed in; changing any of them silently rescales every recorded
number.  :data:`REFERENCE_CHECKSUM` pins the loop's result, and the
tests fail if the loop changes.
"""

from __future__ import annotations

import os
import threading
import time

#: Iterations of :func:`reference_kernel` in one gauge chunk.
CHUNK_ITERATIONS = 1_000

#: Seconds one chunk takes on the nominal host.  Adjusted times are
#: seconds on a host where a chunk takes 0.75 ms (a 2-vCPU KVM guest
#: running CPython 3.11, in its fast regime).
NOMINAL_CHUNK_S = 0.00075

#: ``checksum_of(CHECKSUM_CHUNKS)`` -- pins the loop's semantics.
CHECKSUM_CHUNKS = 8
REFERENCE_CHECKSUM = 4_172_412_636


class _Cell:
    __slots__ = ("value", "hits")

    def __init__(self) -> None:
        self.value = 0
        self.hits = 0

    def bump(self, amount: int) -> int:
        self.hits += 1
        self.value = (self.value + amount) & 0xFFFFF
        return self.value


def _echo():
    total = 0
    while True:
        item = yield total
        total = (total + item * 3) & 0xFFFF


class KernelState:
    """The reference loop's working set, allocated once per gauge."""

    def __init__(self) -> None:
        self.cell = _Cell()
        self.echo = _echo()
        next(self.echo)
        self.table: dict[int, int] = {}
        self.window: list[float] = []
        self.acc = 0


def reference_kernel(state: KernelState, iterations: int) -> int:
    """Fixed interpreter work: the operation mix of an event simulator.

    Generator resumption, method calls on slotted objects, dict and list
    churn and float arithmetic -- with no I/O, no imports and no
    allocation of objects the garbage collector tracks.  Returns a
    checksum so the work is consumed.
    """
    cell, echo, table, window = (state.cell, state.echo, state.table,
                                 state.window)
    acc = state.acc
    clock = 0.0
    for i in range(iterations):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0) + 1
        clock += 0.25 + (i & 7) * 0.125
        window.append(clock)
        if len(window) > 32:
            acc ^= int(window.pop(0)) + i
        acc = (acc + cell.bump(echo.send(i & 255))) & 0xFFFFFFFF
    state.acc = acc
    return acc


def checksum_of(chunks: int) -> int:
    """Checksum of ``chunks`` gauge chunks from a fresh state."""
    state = KernelState()
    for _ in range(chunks):
        reference_kernel(state, CHUNK_ITERATIONS)
    return (state.acc + len(state.table) + state.cell.hits) & 0xFFFFFFFF


def pin_to_one_cpu() -> None:
    """Pin this thread (and threads and processes started from it) to
    the lowest CPU it may run on, so a gauge and the code it measures
    share one CPU.  Does nothing where affinity is unsupported."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def adjust(raw_s: float, chunk_s: float) -> float:
    """``raw_s`` expressed at the nominal reference speed, given the
    mean seconds per gauge chunk measured beside it."""
    if raw_s < 0 or chunk_s <= 0:
        raise ValueError(f"need raw_s >= 0 and chunk_s > 0, got "
                         f"{raw_s} and {chunk_s}")
    return raw_s * NOMINAL_CHUNK_S / chunk_s


class Gauge:
    """Runs reference chunks in a background thread while it is open.

    ::

        with Gauge() as gauge:
            began = time.thread_time()
            work()
            raw = time.thread_time() - began
        adjusted = gauge.adjust(raw)

    At least one chunk runs even if the block ends first.
    """

    def __init__(self) -> None:
        self.chunks = 0
        self.cpu_s = 0.0
        self._halt = threading.Event()
        self._thread = threading.Thread(target=self._run,
                                        name="reference-gauge", daemon=True)

    def _run(self) -> None:
        state = KernelState()
        clock, halted = time.thread_time, self._halt.is_set
        while True:
            began = clock()
            reference_kernel(state, CHUNK_ITERATIONS)
            self.cpu_s += clock() - began
            self.chunks += 1
            if halted():
                return
            time.sleep(0)  # hand the interpreter lock to the program

    def __enter__(self) -> "Gauge":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._halt.set()
        self._thread.join()

    @property
    def chunk_s(self) -> float:
        """Mean CPU seconds per chunk."""
        return self.cpu_s / self.chunks

    def adjust(self, raw_s: float) -> float:
        return adjust(raw_s, self.chunk_s)
