"""Availability under faults: how the strategies ride out an outage.

The paper's evaluation assumes a perfect environment; this experiment
takes the environment away.  Every reference strategy runs twice at the
same rate and seed -- once fault-free, once under a
:class:`~repro.sim.faults.FaultPlan` (by default the standard central
outage of :func:`~repro.sim.faults.standard_outage_plan`) -- and the
comparison reports, per strategy:

* baseline vs faulted throughput and mean response time,
* the availability ratio (committed / (committed + failed + rejected)),
* transaction-level fault handling counts (timeouts, class A failovers,
  class B failures, failure-aware local fallbacks), and
* the per-episode degraded throughput and time-to-recover summaries
  computed from the telemetry windows.

Strategies that ship more work centrally expose more of their load to a
central outage, so the ranking under faults can invert the fault-free
ranking -- which is exactly what this table makes visible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

from ..hybrid.metrics import SimulationResult
from ..sim.faults import FaultPlan, standard_outage_plan
from .adaptive import schedule_adaptive
from .cache import ResultCache
from .parallel import ParallelRunner
from .report import format_table
from .runner import PrecisionSettings, RunSettings, build_job

__all__ = ["AvailabilityPoint", "AvailabilityComparison",
           "run_availability", "AVAILABILITY_STRATEGIES"]

#: Strategies compared by the availability experiment: the no-sharing
#: baseline, the static optimum and the best dynamic scheme.
AVAILABILITY_STRATEGIES = ("none", "static-optimal",
                           "min-average-population")


@dataclass(frozen=True)
class AvailabilityPoint:
    """One strategy's fault-free and faulted outcomes, side by side.

    ``failover`` holds the optional third run -- same faults, but with
    the hot-standby recovery policy enabled -- so the table can show
    what the survivability machinery buys over riding the outage out.
    """

    strategy: str
    baseline: SimulationResult
    faulted: SimulationResult
    failover: SimulationResult | None = None

    @property
    def throughput_retained(self) -> float:
        """Faulted throughput as a fraction of fault-free throughput."""
        if self.baseline.throughput <= 0:
            return 0.0
        return self.faulted.throughput / self.baseline.throughput


@dataclass(frozen=True)
class AvailabilityComparison:
    """The full experiment: every strategy under the same fault plan."""

    total_rate: float
    plan: FaultPlan
    points: tuple[AvailabilityPoint, ...]

    def to_table(self) -> str:
        with_failover = any(point.failover is not None
                            for point in self.points)
        headers = ["strategy", "tput", "tput@fault", "retained",
                   "avail", "timeout", "failover", "failed", "fallback"]
        if with_failover:
            headers += ["avail@fo", "mttr"]
        rows = []
        for point in self.points:
            faulted = point.faulted
            row = [
                point.strategy,
                f"{point.baseline.throughput:.2f}",
                f"{faulted.throughput:.2f}",
                f"{point.throughput_retained:.1%}",
                f"{faulted.availability:.3f}",
                f"{faulted.txns_timed_out}",
                f"{faulted.txns_failed_over}",
                f"{faulted.txns_failed}",
                f"{faulted.fallback_routings}",
            ]
            if with_failover:
                if point.failover is None:
                    row += ["-", "-"]
                else:
                    mttr = point.failover.mttr
                    row += [f"{point.failover.availability:.3f}",
                            "-" if mttr is None else f"{mttr:.2f}s"]
            rows.append(tuple(row))
        return format_table(tuple(headers), rows)

    def episode_summary(self) -> str:
        """Per-strategy, per-episode degradation and recovery lines."""
        lines = []
        for point in self.points:
            for report in point.faulted.fault_episodes:
                recover = ("not within run"
                           if report.time_to_recover is None
                           else f"{report.time_to_recover:.1f}s")
                lines.append(
                    f"  {point.strategy}: {report.kind} "
                    f"[{report.start:g}s..{report.end:g}s] "
                    f"throughput {report.baseline_throughput:.1f}"
                    f" -> {report.degraded_throughput:.1f} txn/s, "
                    f"recovery {recover}")
        return "\n".join(lines)


def run_availability(total_rate: float = 25.0,
                     comm_delay: float = 0.2,
                     plan: FaultPlan | None = None,
                     strategies: Sequence[str] = AVAILABILITY_STRATEGIES,
                     settings: RunSettings | None = None,
                     workers: int | None = 1,
                     cache: ResultCache | None = None,
                     failover: bool = False
                     ) -> AvailabilityComparison:
    """Compare the strategies with and without a fault plan.

    Both runs of a strategy use the same configuration and seed (common
    random numbers), so every difference in the table is attributable to
    the injected faults.  With ``failover=True`` a third run per
    strategy repeats the faulted one with hot-standby failover enabled
    (the plan's recovery policy plus ``failover=True``), isolating what
    the survivability protocol buys.  Every run is one point of the
    shared scheduler (replication 0 of
    :func:`~repro.experiments.runner.build_job`), so the whole grid
    executes as one :class:`ParallelRunner` batch.  The comparison is of
    single runs: settings asking for more than one replication are
    rejected rather than silently cut to one.
    """
    settings = settings or RunSettings()
    if isinstance(settings, PrecisionSettings) or settings.replications > 1:
        raise ValueError(
            "run_availability compares single runs; it takes neither "
            "PrecisionSettings nor replications > 1")
    if plan is None:
        plan = standard_outage_plan(
            warmup_time=settings.warmup_time * settings.scale,
            measure_time=settings.measure_time * settings.scale)
    plans = [None, plan]
    if failover:
        plans.append(plan.with_recovery(
            replace(plan.recovery, failover=True)))
    outcomes, _ = schedule_adaptive(
        [partial(build_job, settings, strategy, total_rate, comm_delay,
                 fault_plan=fault_plan)
         for strategy in strategies for fault_plan in plans],
        settings, ParallelRunner(workers=workers, cache=cache))
    results = [outcome.results[0] for outcome in outcomes]
    runs = len(plans)
    points = tuple(
        AvailabilityPoint(
            strategy=strategy,
            baseline=results[runs * index],
            faulted=results[runs * index + 1],
            failover=(results[runs * index + 2] if failover else None))
        for index, strategy in enumerate(strategies))
    return AvailabilityComparison(total_rate=total_rate, plan=plan,
                                  points=points)
