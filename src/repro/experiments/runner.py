"""Experiment execution: curves, sweeps and replication control.

A *curve* is one strategy evaluated over a sweep of total arrival rates
(the x-axis of every figure in the paper).  Each point runs the
discrete-event simulation once per replication and averages the
replications.  By default replication ``r`` uses ``base_seed + r`` --
deterministic, but the *same* sample path recurs at every rate.  With
``RunSettings.crn`` the seed becomes
:func:`repro.sim.rng.crn_seed`\\ ``(base_seed, rate_key, r)``: still
strategy-free (every strategy at one rate shares sample paths, the
common-random-numbers pairing that sharpens strategy comparisons) but
decorrelated across rates and replications.  ``crn`` defaults off, so
the default path is bit-identical to earlier releases.

``RunSettings.scale`` shortens or lengthens the simulated horizon
uniformly, so the same experiment definitions serve quick smoke tests
(scale ~0.2), the default benchmark runs, and long high-confidence runs
(scale >= 2).

Every experiment entry point turns settings into simulations the same
way: :func:`build_job` makes one replication's :class:`JobSpec`, and
:func:`repro.experiments.adaptive.schedule_adaptive` schedules the
replications of every point.  A fixed :class:`RunSettings` is the
scheduler's one-round case (``replications`` jobs per point, in one
batch); :class:`PrecisionSettings` turns the count into a *precision
target* -- replications are scheduled in rounds until every point's
t-based relative confidence half-width reaches the target or a cap.
Seeding is the same deterministic function of ``(base_seed, rate, r)``
in both modes, so adaptive runs stay bit-reproducible and every
replication remains individually cacheable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Sequence

from ..core import STRATEGIES
from ..hybrid.config import SystemConfig, paper_config
from ..hybrid.metrics import SimulationResult
from ..hybrid.system import HybridSystem
from ..sim.rng import crn_seed
from ..sim.stats import IntervalEstimate, ReplicationSummary
from .cache import ResultCache
from .parallel import JobSpec, ParallelRunner

__all__ = ["RunSettings", "PrecisionSettings", "CurvePoint", "Curve",
           "build_job", "run_point", "run_curve", "run_curve_set",
           "run_single", "StrategyBuilder"]

#: ``name -> (config -> RouterFactory)`` -- the registry from repro.core,
#: re-exported here so experiment definitions read naturally.
StrategyBuilder = Callable[[SystemConfig], object]


@dataclass(frozen=True)
class RunSettings:
    """Horizon and replication control for experiment runs.

    ``crn`` derives replication seeds with :func:`repro.sim.rng.crn_seed`
    (strategy-free, rate-keyed: strategies share sample paths, rates and
    replications do not).  It defaults off, preserving the historical
    ``base_seed + r`` seeds, point estimates and cache keys bit-for-bit.
    """

    warmup_time: float = 30.0
    measure_time: float = 90.0
    replications: int = 1
    base_seed: int = 7_001
    scale: float = 1.0
    crn: bool = False
    #: Commit protocol every configuration built through
    #: :meth:`config_for` runs under (a
    #: :data:`~repro.hybrid.config.PROTOCOLS` name).  Every experiment entry point -- figures, scorecard,
    #: availability, sensitivity, validation -- builds its jobs with
    #: :func:`build_job`, so each one scores per protocol.
    protocol: str = "optimistic"

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError(
                f"replications must be >= 1, got {self.replications}")
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def config_for(self, total_rate: float, comm_delay: float,
                   **overrides) -> SystemConfig:
        overrides.setdefault("protocol", self.protocol)
        return paper_config(
            total_rate=total_rate,
            comm_delay=comm_delay,
            warmup_time=self.warmup_time * self.scale,
            measure_time=self.measure_time * self.scale,
            **overrides,
        )

    def replication_seed(self, total_rate: float, replication: int) -> int:
        """The simulation seed for replication ``r`` of a rate point.

        Default mode keeps the historical ``base_seed + r`` (identical
        sample paths at every rate); with ``crn`` the seed is hashed
        from ``(base_seed, rate, r)`` -- deliberately *not* from the
        strategy or the communication delay, so strategy comparisons at
        one rate run on common random numbers while rates and
        replications draw independent paths.
        """
        if self.crn:
            return crn_seed(self.base_seed, f"rate={total_rate!r}",
                            replication)
        return self.base_seed + replication

    def scaled(self, factor: float) -> "RunSettings":
        return replace(self, scale=self.scale * factor)


@dataclass(frozen=True)
class PrecisionSettings(RunSettings):
    """Replication control by precision target instead of fixed count.

    Points start with ``min_replications`` replications; while the
    t-based relative confidence half-width of the mean response time
    (at ``confidence``) exceeds ``rel_precision``, further rounds of
    ``round_size`` replications are scheduled, up to
    ``max_replications`` per point.  ``rel_precision=0.0`` is a valid
    never-converges target: every point runs exactly to the cap,
    reproducing the fixed grid ``replications=max_replications``
    field-for-field.

    The inherited ``replications`` field is ignored in adaptive mode
    (the scheduler owns the count); seeding is unchanged -- replication
    ``r`` of a point uses :meth:`RunSettings.replication_seed` exactly
    as the fixed grid does.
    """

    rel_precision: float = 0.05
    confidence: float = 0.95
    min_replications: int = 2
    max_replications: int = 24
    round_size: int = 2

    def __post_init__(self) -> None:
        super().__post_init__()
        if not math.isfinite(self.rel_precision) or self.rel_precision < 0:
            raise ValueError(
                f"rel_precision must be finite and >= 0, got "
                f"{self.rel_precision}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(
                f"confidence must be in (0, 1), got {self.confidence}")
        if self.min_replications < 2:
            raise ValueError(
                "min_replications must be >= 2 (variance needs two "
                f"observations), got {self.min_replications}")
        if self.max_replications < self.min_replications:
            raise ValueError(
                f"max_replications ({self.max_replications}) must be >= "
                f"min_replications ({self.min_replications})")
        if self.round_size < 1:
            raise ValueError(
                f"round_size must be >= 1, got {self.round_size}")

    def fixed_equivalent(self) -> RunSettings:
        """The fixed-grid settings this adaptive run is capped by."""
        return RunSettings(
            warmup_time=self.warmup_time, measure_time=self.measure_time,
            replications=self.max_replications, base_seed=self.base_seed,
            scale=self.scale, crn=self.crn, protocol=self.protocol)


@dataclass(frozen=True)
class CurvePoint:
    """One (rate, averaged metrics) point of a curve.

    ``rt_interval`` is the cross-replication confidence interval of the
    mean response time, computed **once** during point assembly so the
    report/export layers can query the achieved precision freely.
    """

    total_rate: float
    mean_response_time: float
    throughput: float
    shipped_fraction: float
    abort_rate: float
    local_utilization: float
    central_utilization: float
    replications: tuple[SimulationResult, ...] = field(repr=False,
                                                       default=())
    rt_interval: IntervalEstimate | None = field(repr=False, default=None)

    @property
    def n_replications(self) -> int:
        """Replications behind this point (1 for a bare point)."""
        return len(self.replications) if self.replications else 1

    @property
    def rt_half_width(self) -> float:
        """Achieved confidence half-width of the mean response time."""
        return self.rt_interval.half_width if self.rt_interval else 0.0

    @property
    def rt_relative_half_width(self) -> float:
        """Achieved half-width relative to the mean (``inf`` at mean 0)."""
        if self.rt_interval is not None:
            return self.rt_interval.relative_half_width
        return 0.0

    def response_time_interval(self, confidence: float = 0.95):
        """Cross-replication confidence interval for the mean RT.

        Returns an :class:`~repro.sim.stats.IntervalEstimate`; with a
        single replication the half-width is zero (no variance
        information).  The interval computed during point assembly is
        memoised in ``rt_interval``, so calls at the assembly confidence
        are free; other confidence levels are recomputed on the fly.
        """
        cached = self.rt_interval
        if cached is not None and cached.confidence == confidence:
            return cached
        summary = ReplicationSummary()
        for result in self.replications:
            summary.add_replication(result.mean_response_time)
        if not self.replications:
            summary.add_replication(self.mean_response_time)
        return summary.interval(confidence)


@dataclass(frozen=True)
class Curve:
    """One strategy swept over arrival rates."""

    label: str
    comm_delay: float
    points: tuple[CurvePoint, ...]

    @property
    def rates(self) -> tuple[float, ...]:
        return tuple(point.total_rate for point in self.points)

    @property
    def response_times(self) -> tuple[float, ...]:
        return tuple(point.mean_response_time for point in self.points)

    @property
    def throughputs(self) -> tuple[float, ...]:
        return tuple(point.throughput for point in self.points)

    @property
    def shipped_fractions(self) -> tuple[float, ...]:
        return tuple(point.shipped_fraction for point in self.points)

    def max_supported_rate(self, response_limit: float = 4.0) -> float:
        """Largest swept rate whose mean RT stays under ``response_limit``.

        The paper's "maximum transaction rate supportable" read off a
        response-time-versus-throughput curve.
        """
        supported = 0.0
        for point in self.points:
            if point.mean_response_time <= response_limit:
                supported = max(supported, point.throughput)
        return supported


def _average(values: list[float]) -> float:
    if not values:
        raise ValueError(
            "cannot average zero replications; RunSettings.replications "
            "must be >= 1")
    return sum(values) / len(values)


def _check_strategy(strategy: str | StrategyBuilder) -> None:
    """Fail fast (with KeyError, as the serial loop did) on bad names."""
    if isinstance(strategy, str) and strategy not in STRATEGIES:
        raise KeyError(strategy)


def build_job(settings: RunSettings, strategy: str | StrategyBuilder,
              total_rate: float, comm_delay: float, replication: int,
              fault_plan=None, **overrides) -> JobSpec:
    """The job for replication ``replication`` of one point.

    Every experiment entry point builds its jobs here: the configuration
    comes from :meth:`RunSettings.config_for` (horizon and protocol) and
    the seed from :meth:`RunSettings.replication_seed` (``base_seed + r``
    by default, rate-keyed CRN hashing under ``settings.crn``).
    ``overrides`` are further :class:`SystemConfig` fields.
    """
    return JobSpec(strategy=strategy, config=settings.config_for(
        total_rate, comm_delay,
        seed=settings.replication_seed(total_rate, replication),
        **overrides), fault_plan=fault_plan)


def _assemble_point(total_rate: float,
                    results: Sequence[SimulationResult],
                    interval: IntervalEstimate) -> CurvePoint:
    """Average one rate's replications into a curve point.

    The scheduler's cross-replication interval is stored on the point
    (``rt_interval``) so downstream report/export code never rebuilds
    the accumulator.
    """
    return CurvePoint(
        total_rate=total_rate,
        mean_response_time=_average(
            [r.mean_response_time for r in results]),
        throughput=_average([r.throughput for r in results]),
        shipped_fraction=_average([r.shipped_fraction for r in results]),
        abort_rate=_average([r.abort_rate for r in results]),
        local_utilization=_average(
            [r.mean_local_utilization for r in results]),
        central_utilization=_average(
            [r.mean_central_utilization for r in results]),
        replications=tuple(results),
        rt_interval=interval,
    )


def run_point(strategy: str | StrategyBuilder, total_rate: float,
              comm_delay: float = 0.2,
              settings: RunSettings | None = None,
              workers: int | None = 1,
              cache: ResultCache | None = None,
              fault_plan=None,
              **config_overrides) -> CurvePoint:
    """Run one strategy at one arrival rate (averaging replications).

    ``workers`` > 1 fans the replications out over a process pool;
    ``cache`` reuses previously simulated results.  Both leave the
    returned point bit-identical to a serial, uncached run.  Passing a
    ``fault_plan`` injects its episodes into every replication.  A
    :class:`PrecisionSettings` adds replications in rounds until the
    precision target (or the cap) is reached.
    """
    curves = run_curve_set([(strategy, "point", [total_rate])],
                           comm_delay=comm_delay, settings=settings,
                           workers=workers, cache=cache,
                           fault_plan=fault_plan, **config_overrides)
    return curves[0].points[0]


def run_single(strategy: str | StrategyBuilder, total_rate: float,
               comm_delay: float = 0.2,
               settings: RunSettings | None = None,
               tracer=None, fault_plan=None, audit=None, instrument=None,
               **config_overrides) -> SimulationResult:
    """Run one strategy at one rate, once, returning the raw result.

    Unlike :func:`run_point` this performs a single replication and
    returns the full :class:`SimulationResult` -- including the
    response-time decomposition, windowed telemetry and engine profile
    -- rather than cross-replication averages.  Pass a
    :class:`~repro.sim.trace.Tracer` to capture the event log for JSONL
    export, a :class:`~repro.sim.faults.FaultPlan` to inject faults and
    a :class:`~repro.obs.audit.RoutingAudit` to capture every placement
    decision with its estimator inputs.  ``instrument`` is called with
    the wired :class:`HybridSystem` just before the run starts --
    the hook point for observers that must attach pre-run (e.g.
    :class:`~repro.obs.profiler.EngineProfiler`).
    """
    settings = settings or RunSettings()
    builder = STRATEGIES[strategy] if isinstance(strategy, str) else strategy
    config = settings.config_for(total_rate, comm_delay,
                                 seed=settings.base_seed, **config_overrides)
    router_factory = builder(config)
    system = HybridSystem(config, router_factory, tracer=tracer,
                          fault_plan=fault_plan, audit=audit)
    if instrument is not None:
        instrument(system)
    return system.run()


def run_curve(strategy: str | StrategyBuilder, rates: list[float],
              label: str | None = None, comm_delay: float = 0.2,
              settings: RunSettings | None = None,
              workers: int | None = 1,
              cache: ResultCache | None = None,
              **config_overrides) -> Curve:
    """Sweep one strategy over arrival rates.

    All (rate, replication) simulations of the sweep are independent, so
    with ``workers`` > 1 the whole curve is fanned out over one process
    pool rather than point by point.
    """
    if label is None:
        label = strategy if isinstance(strategy, str) else "custom"
    curves = run_curve_set([(strategy, label, list(rates))],
                           comm_delay=comm_delay, settings=settings,
                           workers=workers, cache=cache,
                           **config_overrides)
    return curves[0]


def run_curve_set(entries: Sequence[tuple[str | StrategyBuilder, str,
                                          list[float]]],
                  comm_delay: float = 0.2,
                  settings: RunSettings | None = None,
                  workers: int | None = 1,
                  cache: ResultCache | None = None,
                  fault_plan=None,
                  **config_overrides) -> list[Curve]:
    """Run several ``(strategy, label, rates)`` sweeps as one job batch.

    This is the figure harness's entry point: batching every curve of a
    figure into a single :class:`ParallelRunner` call keeps the pool
    saturated across strategies instead of joining between curves.
    Results are reassembled strictly in submission order, so the output
    is bit-identical to running each curve serially.

    With a :class:`PrecisionSettings` the whole set runs adaptively:
    rounds of replications are submitted across *all* unconverged
    points at once (pool stays saturated while converged points drop
    out) until every point meets the precision target or its cap.
    """
    curves, _ = _schedule_curve_set(
        entries, comm_delay, settings or RunSettings(),
        ParallelRunner(workers=workers, cache=cache), fault_plan,
        config_overrides)
    return curves


def _schedule_curve_set(entries: Sequence[tuple[str | StrategyBuilder, str,
                                               list[float]]],
                       comm_delay: float, settings: RunSettings,
                       runner: ParallelRunner, fault_plan,
                       overrides: dict) -> tuple[list[Curve], int]:
    """Schedule a curve set on ``runner``: the curves and the rounds.

    One point per ``(entry, rate)``, built by :func:`build_job` and
    replicated by :func:`~repro.experiments.adaptive.schedule_adaptive`.
    """
    from .adaptive import schedule_adaptive

    factories = []
    for strategy, _, rates in entries:
        _check_strategy(strategy)
        factories.extend(
            partial(build_job, settings, strategy, rate, comm_delay,
                    fault_plan=fault_plan, **overrides)
            for rate in rates)
    outcomes, rounds = schedule_adaptive(factories, settings, runner)
    outcome = iter(outcomes)
    curves = []
    for _, label, rates in entries:
        points = []
        for rate in rates:
            scheduled = next(outcome)
            points.append(_assemble_point(rate, scheduled.results,
                                          scheduled.interval))
        curves.append(Curve(label=label, comm_delay=comm_delay,
                            points=tuple(points)))
    return curves, rounds
