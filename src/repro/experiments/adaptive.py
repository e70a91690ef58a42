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
    StrategyBuilder,
    _assemble_point,
    _check_strategy,
    _replication_spec,
)

__all__ = [
    "ScheduledPoint",
    "PointPrecision",
    "AdaptiveReport",
    "AdaptiveCurveSet",
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
    converged: bool


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
        met = sum(1 for point in self.points if point.converged)
        line = (f"adaptive: {self.replications_total} replication(s) over "
                f"{self.n_points} point(s) in {self.rounds} round(s) "
                f"[fixed grid: {self.fixed_grid_replications}; saved "
                f"{self.replications_saved}; cache fast-forward "
                f"{self.replications_cached}]; {met}/{self.n_points} "
                f"point(s) within +/-{self.rel_precision:.1%}")
        missed = self.unconverged_points
        if missed:
            listing = ", ".join(
                f"{p.label}@{p.total_rate:g} "
                f"(+/-{p.relative_half_width:.1%})" for p in missed)
            line += f"; unconverged at cap: {listing}"
        return line


@dataclass(frozen=True)
class AdaptiveCurveSet:
    """Curves plus the scheduling report of one adaptive run."""

    curves: tuple[Curve, ...]
    report: AdaptiveReport


def schedule_adaptive(spec_factories: Sequence[Callable[[int], JobSpec]],
                      settings: PrecisionSettings,
                      runner: ParallelRunner,
                      ) -> tuple[list[ScheduledPoint], int]:
    """Run the adaptive scheduling loop over abstract points.

    ``spec_factories[i]`` maps a replication index ``r`` to the
    :class:`JobSpec` of point ``i``'s replication ``r`` -- the curve-set
    and sensitivity harnesses supply different factories but share this
    loop.  Returns the per-point outcomes (in input order) and the
    number of rounds submitted.
    """
    tasks = [_PointTask(spec_for=factory) for factory in spec_factories]
    rounds = 0
    with runner:
        while True:
            specs: list[JobSpec] = []
            owners: list[_PointTask] = []
            for task in tasks:
                if task.converged:
                    continue
                have = len(task.results)
                if have >= settings.max_replications:
                    continue
                if have < settings.min_replications:
                    target = settings.min_replications
                else:
                    target = min(have + settings.round_size,
                                 settings.max_replications)
                for replication in range(have, target):
                    specs.append(task.spec_for(replication))
                    owners.append(task)
            if not specs:
                break
            rounds += 1
            for task, result in zip(owners, runner.run_jobs(specs)):
                task.results.append(result)
            for task in dict.fromkeys(owners):
                if len(task.results) < settings.min_replications:
                    continue
                estimate = task.interval(settings.confidence)
                if estimate.relative_half_width <= settings.rel_precision:
                    task.converged = True
    outcomes = [ScheduledPoint(results=tuple(task.results),
                               interval=task.interval(settings.confidence),
                               converged=task.converged)
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

    The adaptive counterpart of
    :func:`~repro.experiments.runner.run_curve_set` -- same entries,
    same curve output (each :class:`CurvePoint` additionally reporting
    its achieved half-width and replication count) plus an
    :class:`AdaptiveReport` accounting for what was scheduled.
    ``run_curve_set`` delegates here whenever its settings are a
    :class:`PrecisionSettings`; call this directly to get the report.
    """
    settings = settings or PrecisionSettings()
    if not isinstance(settings, PrecisionSettings):
        raise TypeError(
            f"adaptive runs need PrecisionSettings, got "
            f"{type(settings).__name__}")

    def spec_factory(strategy, rate) -> Callable[[int], JobSpec]:
        def make(replication: int) -> JobSpec:
            return _replication_spec(strategy, rate, comm_delay, settings,
                                     config_overrides, replication,
                                     fault_plan=fault_plan)
        return make

    factories: list[Callable[[int], JobSpec]] = []
    layout: list[tuple[str, list[float]]] = []
    for strategy, label, rates in entries:
        _check_strategy(strategy)
        for rate in rates:
            factories.append(spec_factory(strategy, rate))
        layout.append((label, list(rates)))

    runner = ParallelRunner(workers=workers, cache=cache)
    outcomes, rounds = schedule_adaptive(factories, settings, runner)

    curves: list[Curve] = []
    precisions: list[PointPrecision] = []
    cursor = 0
    for label, rates in layout:
        points = []
        for rate in rates:
            outcome = outcomes[cursor]
            cursor += 1
            points.append(_assemble_point(
                rate, outcome.results, confidence=settings.confidence))
            precisions.append(PointPrecision(
                label=label, total_rate=rate,
                n_replications=len(outcome.results),
                half_width=outcome.interval.half_width,
                relative_half_width=outcome.interval.relative_half_width,
                converged=outcome.converged))
        curves.append(Curve(label=label, comm_delay=comm_delay,
                            points=tuple(points)))

    report = AdaptiveReport(
        rel_precision=settings.rel_precision,
        confidence=settings.confidence,
        min_replications=settings.min_replications,
        max_replications=settings.max_replications,
        rounds=rounds,
        replications_total=sum(len(o.results) for o in outcomes),
        replications_cached=runner.jobs_cached,
        replications_executed=runner.jobs_executed,
        points=tuple(precisions))
    return AdaptiveCurveSet(curves=tuple(curves), report=report)
