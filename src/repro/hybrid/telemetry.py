"""Windowed time-series telemetry for hybrid-system runs.

The scalar summaries in :class:`~repro.hybrid.metrics.SimulationResult`
average the whole measurement window; they cannot show *when* a run
saturated, whether the warm-up deletion was long enough, or how routing
reacted to a transient.  :class:`TelemetrySampler` fills that gap: on a
fixed simulated-time interval it snapshots

* counter deltas from the metrics collector -- completions, aborts,
  negative acknowledgements, class A arrivals/shipments, messages;
* instantaneous state -- per-site populations and CPU queue lengths;
* per-window CPU utilisations (busy-time deltas of the site resources);

into :class:`TelemetryWindow` records held in a fixed-capacity ring
buffer (:class:`TelemetrySeries`), so even very long runs keep bounded
memory (the eviction count is reported, never silent).

The series also powers a *warm-up adequacy check*: if the post-warm-up
windows still trend (first-half vs second-half means differ beyond
tolerance), the run's steady-state averages are suspect and the result
is flagged via ``SimulationResult.warmup_adequate``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

__all__ = ["TelemetryWindow", "TelemetrySeries", "TelemetrySampler",
           "TELEMETRY_FIELDS"]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .system import HybridSystem

#: Column order used by the exporters (CSV header / JSON rows).
TELEMETRY_FIELDS = [
    "start", "end", "completed", "throughput", "aborts", "abort_rate",
    "negative_acks", "class_a_arrivals", "shipped", "shipped_fraction",
    "messages", "n_local", "n_central", "population", "local_queue",
    "central_queue", "local_utilization", "central_utilization",
]


@dataclass(frozen=True)
class TelemetryWindow:
    """One sampling window of run telemetry.

    Counter fields are deltas over ``[start, end)``; populations and
    queue lengths are instantaneous samples at ``end``; utilisations are
    busy-time fractions over the window.  Counter-based columns are zero
    during warm-up by construction (the metrics collector discards
    pre-warm-up observations), while the state columns remain meaningful
    -- which is exactly what makes the warm-up transient visible.
    """

    start: float
    end: float
    completed: int
    aborts: int
    negative_acks: int
    class_a_arrivals: int
    shipped: int
    messages: int
    n_local: int
    n_central: int
    local_queue: float
    central_queue: float
    local_utilization: float
    central_utilization: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def throughput(self) -> float:
        """Committed transactions per second within the window."""
        if self.duration <= 0:
            return 0.0
        return self.completed / self.duration

    @property
    def abort_rate(self) -> float:
        """Aborts per committed transaction within the window."""
        if self.completed == 0:
            return 0.0
        return self.aborts / self.completed

    @property
    def shipped_fraction(self) -> float:
        if self.class_a_arrivals == 0:
            return 0.0
        return self.shipped / self.class_a_arrivals

    @property
    def population(self) -> int:
        """Transactions in the system (all sites plus central)."""
        return self.n_local + self.n_central

    def to_row(self) -> dict[str, float | int]:
        """Flat dict in :data:`TELEMETRY_FIELDS` order (for exporters)."""
        return {name: getattr(self, name) for name in TELEMETRY_FIELDS}


class TelemetrySeries:
    """Fixed-capacity ring buffer of :class:`TelemetryWindow` records."""

    def __init__(self, capacity: int = 512):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._ring: deque[TelemetryWindow] = deque(maxlen=capacity)
        self.dropped = 0

    def append(self, window: TelemetryWindow) -> None:
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(window)

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def windows(self) -> tuple[TelemetryWindow, ...]:
        return tuple(self._ring)

    def post_warmup(self, warmup_time: float) -> tuple[TelemetryWindow, ...]:
        """Windows lying entirely after the warm-up deletion point."""
        return tuple(window for window in self._ring
                     if window.start >= warmup_time - 1e-9)

    # -- warm-up adequacy ---------------------------------------------------

    @staticmethod
    def drift(values: Sequence[float]) -> float:
        """Relative first-half vs second-half drift of a series.

        Zero for a perfectly stationary series; positive when the second
        half runs higher, negative when it runs lower.  The denominator
        is the larger half-mean magnitude so the statistic stays bounded
        for near-zero series.
        """
        n = len(values)
        if n < 4:
            return 0.0
        half = n // 2
        first = sum(values[:half]) / half
        second = sum(values[n - half:]) / half
        scale = max(abs(first), abs(second), 1e-12)
        return (second - first) / scale

    def warmup_trend(self, warmup_time: float) -> dict[str, float]:
        """Drift of the stationarity-sensitive metrics after warm-up."""
        windows = self.post_warmup(warmup_time)
        return {
            "throughput": self.drift([w.throughput for w in windows]),
            "population": self.drift([float(w.population)
                                      for w in windows]),
            "central_queue": self.drift([w.central_queue
                                         for w in windows]),
        }

    def warmup_adequate(self, warmup_time: float,
                        tolerance: float = 0.5) -> bool | None:
        """Whether the post-warm-up series looks trend-free.

        Returns ``None`` when fewer than four post-warm-up windows exist
        (too little data to judge).  A run that saturates *during* the
        measurement window -- queues still growing -- shows a large
        positive population drift and is flagged inadequate.
        """
        if len(self.post_warmup(warmup_time)) < 4:
            return None
        trend = self.warmup_trend(warmup_time)
        return all(abs(drift) <= tolerance for drift in trend.values())


class TelemetrySampler:
    """Periodic sampling process feeding a :class:`TelemetrySeries`.

    Attach to a wired :class:`~repro.hybrid.system.HybridSystem`; the
    sampler registers its own simulation process and snapshots every
    ``interval`` simulated seconds.  Call :meth:`rebase` whenever the
    system resets its utilisation integrals (warm-up deletion) so the
    busy-time deltas stay consistent.
    """

    def __init__(self, system: "HybridSystem", interval: float = 1.0,
                 capacity: int = 512):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.system = system
        self.env = system.env
        self.interval = float(interval)
        self.series = TelemetrySeries(capacity)
        self._last_counts = system.metrics.counts()
        self._last_busy = self._busy_times()
        self.env.process(self._loop(), name="telemetry")

    # -- sampling ------------------------------------------------------------

    def _busy_times(self) -> tuple[float, float]:
        local = sum(site.cpu.busy_time() for site in self.system.sites)
        return local, self.system.central.cpu.busy_time()

    def rebase(self) -> None:
        """Re-anchor busy-time baselines after a utilisation reset."""
        self._last_busy = self._busy_times()

    def _loop(self):
        while True:
            start = self.env.now
            yield self.env.timeout(self.interval)
            self._snapshot(start, self.env.now)

    def _snapshot(self, start: float, end: float) -> None:
        system = self.system
        counts = system.metrics.counts()
        delta = {key: counts[key] - self._last_counts[key]
                 for key in counts}
        self._last_counts = counts
        local_busy, central_busy = self._busy_times()
        duration = max(end - start, 1e-12)
        n_sites = max(len(system.sites), 1)
        local_util = max(local_busy - self._last_busy[0], 0.0) / \
            (duration * n_sites)
        central_util = max(central_busy - self._last_busy[1], 0.0) / \
            duration
        self._last_busy = (local_busy, central_busy)
        mean_local_queue = (sum(site.cpu_queue_length
                                for site in system.sites) / n_sites)
        self.series.append(TelemetryWindow(
            start=start,
            end=end,
            completed=delta["completed"],
            aborts=delta["aborts_total"],
            negative_acks=delta["auth_negative_acks"],
            class_a_arrivals=delta["class_a_arrivals"],
            shipped=delta["class_a_shipped"],
            messages=(delta["messages_to_central"] +
                      delta["messages_to_sites"]),
            n_local=system.n_local_total,
            n_central=system.n_central,
            local_queue=mean_local_queue,
            central_queue=float(system.central.cpu_queue_length),
            local_utilization=local_util,
            central_utilization=central_util,
        ))
