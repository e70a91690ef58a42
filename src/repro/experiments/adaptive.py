"""Adaptive replication control: spend replications where variance is.

The fixed grid spends its wall-clock uniformly -- ``replications`` runs
for every (strategy, rate) point -- even though cross-replication
variance differs wildly across a sweep: low-rate points converge in one
or two replications while the near-saturation knee of every figure needs
many more.  This module turns the replication count into a *precision
target* (:class:`~repro.experiments.runner.PrecisionSettings`):

1. every point starts with ``min_replications`` replications;
2. after each round the t-based confidence interval of the mean
   response time is evaluated (``repro.sim.stats.ReplicationSummary``);
3. points whose relative half-width meets ``rel_precision`` at
   ``confidence`` drop out; the rest receive another ``round_size``
   replications, up to ``max_replications``.

Rounds are batched across *all* unconverged points of the whole curve
set, so a process pool stays saturated while converged points drop out
(the runner is held in incremental mode -- one pool across rounds).

:func:`schedule_adaptive` is the only replication scheduler: every
experiment entry point (curve sets, points, sensitivity, availability,
validation) hands it one job factory per point.  A fixed
:class:`~repro.experiments.runner.RunSettings` is its one-round case:
``replications`` jobs per point in a single batch, point-major and
replication-minor.

Determinism
-----------

Replication ``r`` of a point always uses
:meth:`~repro.experiments.runner.RunSettings.replication_seed` --
``base_seed + r`` by default, the rate-keyed CRN hash under
``settings.crn`` -- exactly as in the fixed grid, and the scheduling
decisions depend only on the (deterministic) simulation outputs -- so
adaptive runs are bit-reproducible, an adaptive run capped at ``n``
that never converges reproduces the fixed ``replications=n`` grid
field-for-field, and every replication keeps its individual cache
identity: replications simulated by earlier fixed-grid runs are
*fast-forwarded* from the cache (counted, not re-simulated), and
entries written by an adaptive run are byte-equal to the fixed grid's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..hybrid.metrics import SimulationResult
from ..sim.stats import IntervalEstimate, ReplicationSummary
from .cache import ResultCache
from .parallel import JobSpec, ParallelRunner
from .runner import (
    Curve,
    PrecisionSettings,
    RunSettings,
    StrategyBuilder,
    _schedule_curve_set,
)

__all__ = [
    "ScheduledPoint",
    "PointPrecision",
    "AdaptiveReport",
    "AdaptiveCurveSet",
    "curve_precisions",
    "precision_summary",
    "schedule_adaptive",
    "run_adaptive_curve_set",
]


@dataclass(eq=False)  # identity semantics: tasks are deduped by object
class _PointTask:
    """Mutable per-point bookkeeping while the scheduler runs."""

    spec_for: Callable[[int], JobSpec]
    results: list[SimulationResult] = field(default_factory=list)
    converged: bool = False

    def interval(self, confidence: float) -> IntervalEstimate:
        """The point's current t-interval of the mean response time."""
        summary = ReplicationSummary()
        for result in self.results:
            summary.add_replication(result.mean_response_time)
        return summary.interval(confidence)


@dataclass(frozen=True)
class ScheduledPoint:
    """One point's outcome from :func:`schedule_adaptive`."""

    results: tuple[SimulationResult, ...]
    interval: IntervalEstimate


@dataclass(frozen=True)
class PointPrecision:
    """Achieved precision of one (curve, rate) point."""

    label: str
    total_rate: float
    n_replications: int
    half_width: float
    relative_half_width: float
    converged: bool


@dataclass(frozen=True)
class AdaptiveReport:
    """What the scheduler did: rounds, replication counts, precision."""

    rel_precision: float
    confidence: float
    min_replications: int
    max_replications: int
    rounds: int
    replications_total: int
    replications_cached: int
    replications_executed: int
    points: tuple[PointPrecision, ...]

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def fixed_grid_replications(self) -> int:
        """Replication count of the equivalent fixed grid (the cap)."""
        return len(self.points) * self.max_replications

    @property
    def replications_saved(self) -> int:
        """Replications the fixed grid would have run but we did not."""
        return self.fixed_grid_replications - self.replications_total

    @property
    def all_converged(self) -> bool:
        return all(point.converged for point in self.points)

    @property
    def unconverged_points(self) -> tuple[PointPrecision, ...]:
        """Points still over the precision target at the cap."""
        return tuple(p for p in self.points if not p.converged)

    def summary(self) -> str:
        """One-line account for CLI output; names unconverged points."""
        return precision_summary(
            self.points, self.rel_precision, self.max_replications,
            f"{self.rounds} round(s)",
            f"cache fast-forward {self.replications_cached}")


def curve_precisions(curves: Sequence[Curve], rel_precision: float
                     ) -> tuple[PointPrecision, ...]:
    """Achieved precision of every point of ``curves``.

    A point converged iff its final relative half-width meets
    ``rel_precision``: the scheduler stops a point the round it meets
    the target and never re-evaluates it, so this matches its verdict.
    """
    return tuple(
        PointPrecision(label=curve.label, total_rate=point.total_rate,
                       n_replications=point.n_replications,
                       half_width=point.rt_half_width,
                       relative_half_width=point.rt_relative_half_width,
                       converged=point.rt_relative_half_width <=
                       rel_precision)
        for curve in curves for point in curve.points)


def precision_summary(points: Sequence[PointPrecision],
                      rel_precision: float, max_replications: int,
                      *notes: str) -> str:
    """The one-line replication account of an adaptive run.

    ``notes`` join the bracketed fixed-grid comparison (rounds, cache
    fast-forward, confidence); unconverged points are named.
    """
    total = sum(point.n_replications for point in points)
    grid = len(points) * max_replications
    met = sum(1 for point in points if point.converged)
    facts = "; ".join((f"fixed grid: {grid}", f"saved {grid - total}",
                       *notes))
    line = (f"adaptive: {total} replication(s) over {len(points)} "
            f"point(s) [{facts}]; {met}/{len(points)} point(s) within "
            f"+/-{rel_precision:.1%}")
    missed = [point for point in points if not point.converged]
    if missed:
        listing = ", ".join(
            f"{p.label}@{p.total_rate:g} (+/-{p.relative_half_width:.1%})"
            for p in missed)
        line += f"; unconverged at cap: {listing}"
    return line


@dataclass(frozen=True)
class AdaptiveCurveSet:
    """Curves plus the scheduling report of one adaptive run."""

    curves: tuple[Curve, ...]
    report: AdaptiveReport


def schedule_adaptive(spec_factories: Sequence[Callable[[int], JobSpec]],
                      settings: RunSettings,
                      runner: ParallelRunner,
                      ) -> tuple[list[ScheduledPoint], int]:
    """Schedule the replications of abstract points on ``runner``.

    ``spec_factories[i]`` maps a replication index ``r`` to the
    :class:`JobSpec` of point ``i``'s replication ``r`` (see
    :func:`~repro.experiments.runner.build_job`).  A
    :class:`PrecisionSettings` runs the adaptive rounds; any other
    :class:`RunSettings` is the one-round case, ``replications`` jobs
    per point.  Each round is one ``run_jobs`` batch, point-major and
    replication-minor.  Returns the per-point outcomes (in input order)
    and the number of rounds submitted.
    """
    adaptive = isinstance(settings, PrecisionSettings)
    if adaptive:
        first, cap = settings.min_replications, settings.max_replications
        step, confidence = settings.round_size, settings.confidence
    else:
        first = cap = settings.replications
        step, confidence = 1, 0.95
    tasks = [_PointTask(spec_for=factory) for factory in spec_factories]
    rounds = 0
    with runner:
        while True:
            specs: list[JobSpec] = []
            owners: list[_PointTask] = []
            for task in tasks:
                have = len(task.results)
                if task.converged or have >= cap:
                    continue
                target = first if have < first else min(have + step, cap)
                for replication in range(have, target):
                    specs.append(task.spec_for(replication))
                    owners.append(task)
            if not specs:
                break
            rounds += 1
            for task, result in zip(owners, runner.run_jobs(specs)):
                task.results.append(result)
            if not adaptive:
                continue
            for task in dict.fromkeys(owners):
                estimate = task.interval(confidence)
                if estimate.relative_half_width <= settings.rel_precision:
                    task.converged = True
    outcomes = [ScheduledPoint(results=tuple(task.results),
                               interval=task.interval(confidence))
                for task in tasks]
    return outcomes, rounds


def run_adaptive_curve_set(
        entries: Sequence[tuple[str | StrategyBuilder, str, list[float]]],
        comm_delay: float = 0.2,
        settings: PrecisionSettings | None = None,
        workers: int | None = 1,
        cache: ResultCache | None = None,
        fault_plan=None,
        **config_overrides) -> AdaptiveCurveSet:
    """Run ``(strategy, label, rates)`` sweeps to a precision target.

    The same run as :func:`~repro.experiments.runner.run_curve_set`
    under a :class:`PrecisionSettings` -- same entries, same curves --
    plus an :class:`AdaptiveReport` accounting for what was scheduled.
    """
    settings = settings or PrecisionSettings()
    if not isinstance(settings, PrecisionSettings):
        raise TypeError(
            f"adaptive runs need PrecisionSettings, got "
            f"{type(settings).__name__}")
    runner = ParallelRunner(workers=workers, cache=cache)
    curves, rounds = _schedule_curve_set(entries, comm_delay, settings,
                                         runner, fault_plan,
                                         config_overrides)
    points = curve_precisions(curves, settings.rel_precision)
    report = AdaptiveReport(
        rel_precision=settings.rel_precision,
        confidence=settings.confidence,
        min_replications=settings.min_replications,
        max_replications=settings.max_replications,
        rounds=rounds,
        replications_total=sum(p.n_replications for p in points),
        replications_cached=runner.jobs_cached,
        replications_executed=runner.jobs_executed,
        points=points)
    return AdaptiveCurveSet(curves=tuple(curves), report=report)
