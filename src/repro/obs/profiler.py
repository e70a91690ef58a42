"""Engine profiler: per-event-type dispatch timing and heap statistics.

Two complementary views of where a run's wall-clock goes:

* :class:`EngineProfiler` wraps the kernel's dispatch step and
  attributes the elapsed time of every event pop to the *kind* of event
  dispatched (timeouts, timer hops, resource grants, process
  resumptions by normalised process name), while sampling calendar
  depth and churn.  It answers "which simulated activity is expensive?".
* :func:`hot_path_profile` runs a callable under the deterministic
  ``cProfile`` tracer and reports the hottest *functions* by cumulative
  time.  It answers "which Python code is expensive?" -- the concrete
  target list for the ROADMAP kernel-speed work.

The step wrapper exploits a deliberate kernel property: ``Environment.run``
binds ``step = self.step`` at loop entry, so assigning ``env.step`` as an
*instance* attribute interposes on dispatch without touching the kernel.
Attach before calling ``run``.  The profiler is strictly observational --
it reads the calendar head and the scheduling counters but never
schedules, triggers, or reorders anything, so profiled runs follow the
bare sample path exactly (only wall-clock-derived fields differ).
"""

from __future__ import annotations

import cProfile
import pstats
import re
import time
from dataclasses import dataclass, field

from ..sim.engine import Environment, Process, Timeout, Timer

__all__ = ["EngineProfiler", "EventTypeStat", "hot_path_profile",
           "HotPath"]

#: Collapses instance numbering in process names ("txn-1934-run",
#: "site-3-arrivals") so per-type aggregation groups all instances.
_DIGITS = re.compile(r"\d+")


def _classify(event) -> str:
    if isinstance(event, Process):
        return f"process:{_DIGITS.sub('#', event.name)}"
    # A timer's start hop and sleeps are plain events whose one callback
    # is the timer's; its completion is the Timer itself.
    callbacks = event.callbacks
    if isinstance(event, Timer) or (callbacks and isinstance(
            getattr(callbacks[0], "__self__", None), Timer)):
        return "timer"
    if isinstance(event, Timeout):
        return "timeout"
    return type(event).__name__.lower()


@dataclass
class EventTypeStat:
    """Dispatch cost of one event type."""

    count: int = 0
    seconds: float = 0.0

    @property
    def mean_us(self) -> float:
        return self.seconds / self.count * 1e6 if self.count else 0.0


@dataclass
class HotPath:
    """One entry of a :func:`hot_path_profile` report."""

    function: str
    location: str
    calls: int
    total_seconds: float
    cumulative_seconds: float


@dataclass
class _HeapStats:
    samples: int = 0
    depth_sum: int = 0
    depth_max: int = 0
    #: Events newly scheduled since the previous dispatch, summed --
    #: high churn relative to dispatch count means the calendar is being
    #: rebuilt rather than drained.
    scheduled: int = 0

    @property
    def mean_depth(self) -> float:
        return self.depth_sum / self.samples if self.samples else 0.0


class EngineProfiler:
    """Times every kernel dispatch, attributed per event type.

    Construction attaches immediately; call :meth:`detach` to restore
    the undecorated kernel (idempotent).  One profiler per environment.
    """

    def __init__(self, env: Environment):
        self.env = env
        self.by_type: dict[str, EventTypeStat] = {}
        self.heap = _HeapStats()
        self.dispatches = 0
        self.elapsed = 0.0
        self._attached = False
        self._last_seq = env.events_scheduled
        self.attach()

    def attach(self) -> None:
        if self._attached:
            return
        if "step" in self.env.__dict__:
            raise RuntimeError("environment step is already wrapped")
        inner = self.env.step  # the bound class method
        by_type = self.by_type
        heap = self.heap
        perf_counter = time.perf_counter
        env = self.env

        def profiled_step() -> None:
            head = env.next_event()
            if head is not None:
                kind = _classify(head)
                depth = env.calendar_depth
                heap.samples += 1
                heap.depth_sum += depth
                if depth > heap.depth_max:
                    heap.depth_max = depth
            else:
                kind = "empty"
            seq = env._seq
            began = perf_counter()
            inner()
            elapsed = perf_counter() - began
            heap.scheduled += env._seq - seq
            self.dispatches += 1
            self.elapsed += elapsed
            stat = by_type.get(kind)
            if stat is None:
                stat = by_type[kind] = EventTypeStat()
            stat.count += 1
            stat.seconds += elapsed

        self.env.step = profiled_step  # type: ignore[method-assign]
        self._attached = True

    def detach(self) -> None:
        if self._attached:
            del self.env.__dict__["step"]
            self._attached = False

    # -- reporting -----------------------------------------------------------

    def summary(self) -> dict:
        """JSON-ready profile document (types sorted by time spent)."""
        ranked = sorted(self.by_type.items(),
                        key=lambda item: (-item[1].seconds, item[0]))
        return {
            "dispatches": self.dispatches,
            "elapsed_seconds": round(self.elapsed, 6),
            "dispatch_rate_per_sec": round(
                self.dispatches / self.elapsed, 1) if self.elapsed else 0.0,
            "heap": {
                "mean_depth": round(self.heap.mean_depth, 1),
                "peak_depth": self.heap.depth_max,
                "events_scheduled": self.heap.scheduled,
                "churn": round(self.heap.scheduled /
                               max(self.dispatches, 1), 3),
            },
            "calendar": self.env.calendar_stats(),
            "event_types": [
                {"type": kind, "count": stat.count,
                 "seconds": round(stat.seconds, 6),
                 "share": round(stat.seconds / self.elapsed, 4)
                 if self.elapsed else 0.0,
                 "mean_us": round(stat.mean_us, 2)}
                for kind, stat in ranked
            ],
        }

    def report(self, top: int = 12) -> str:
        """Human-readable dispatch profile."""
        doc = self.summary()
        heap = doc["heap"]
        calendar = doc["calendar"]
        lines = [
            f"engine profile: {doc['dispatches']} dispatch(es) in "
            f"{doc['elapsed_seconds']:.3f}s "
            f"({doc['dispatch_rate_per_sec']:,.0f}/s)",
            f"calendar: mean depth {heap['mean_depth']:.1f}, peak "
            f"{heap['peak_depth']}, churn {heap['churn']:.2f} "
            f"scheduled/dispatch",
            f"structure: {calendar['immediate']} immediate, "
            f"{calendar['future']} future pending at end",
            f"{'event type':<32} {'count':>10} {'time':>9} "
            f"{'share':>6} {'mean':>9}",
        ]
        for row in doc["event_types"][:top]:
            lines.append(
                f"{row['type']:<32} {row['count']:>10,} "
                f"{row['seconds']:>8.3f}s {row['share']:>6.1%} "
                f"{row['mean_us']:>7.1f}us")
        hidden = len(doc["event_types"]) - top
        if hidden > 0:
            lines.append(f"... and {hidden} more event type(s)")
        return "\n".join(lines)


def hot_path_profile(fn, *args, top: int = 15, **kwargs):
    """Run ``fn(*args, **kwargs)`` under ``cProfile``.

    Returns ``(result, hot_paths)`` where ``hot_paths`` is the ``top``
    functions ranked by cumulative time (profiler bookkeeping frames
    excluded).  Tracing slows the run several-fold, so never combine
    with benchmarking -- the *ranking* is the product, not the times.
    """
    profiler = cProfile.Profile()
    result = profiler.runcall(fn, *args, **kwargs)
    stats = pstats.Stats(profiler)
    rows: list[HotPath] = []
    entries = sorted(stats.stats.items(),
                     key=lambda item: -item[1][3])  # cumulative time
    for (filename, lineno, name), data in entries:
        calls, _primitive, tottime, cumtime, _callers = data
        if filename.startswith("<") and name.startswith("<"):
            continue  # profiler/interp bookkeeping
        short = filename.rsplit("/", 1)[-1]
        rows.append(HotPath(function=name,
                            location=f"{short}:{lineno}",
                            calls=calls,
                            total_seconds=round(tottime, 6),
                            cumulative_seconds=round(cumtime, 6)))
        if len(rows) >= top:
            break
    return result, rows


def format_hot_paths(rows: list[HotPath]) -> str:
    """Table form of a :func:`hot_path_profile` result."""
    lines = [f"{'function':<36} {'location':<26} {'calls':>10} "
             f"{'total':>9} {'cumulative':>10}"]
    for row in rows:
        lines.append(f"{row.function[:36]:<36} {row.location[:26]:<26} "
                     f"{row.calls:>10,} {row.total_seconds:>8.3f}s "
                     f"{row.cumulative_seconds:>9.3f}s")
    return "\n".join(lines)
