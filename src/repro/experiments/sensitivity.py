"""Sensitivity analysis over the system parameters.

The paper's conclusions assert that the optimal behaviour "was found to
depend on the communications delay, MIPS at local and central site,
fraction of local transactions, and number of local systems" -- but the
evaluation only varies the delay.  This harness makes the remaining
dependencies measurable: it sweeps one parameter at a time around the
base configuration and reports, per setting, the performance of a fixed
reference strategy set plus the analytically optimal static shipping
probability.

Used by ``benchmarks/test_sensitivity.py``; each sweep returns plain
dataclasses so tests can assert the direction of every dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Sequence

from ..core import optimize_static
from ..hybrid.config import SystemConfig
from .adaptive import schedule_adaptive
from .cache import ResultCache
from .parallel import ParallelRunner
from .report import format_table
from .runner import RunSettings, _assemble_point, build_job

__all__ = ["SensitivityPoint", "SensitivitySweep", "sweep_parameter"]

#: Strategies every sensitivity point evaluates.
REFERENCE_STRATEGIES = ("none", "static-optimal", "min-average-population")

#: Horizon (20 s warm-up + 60 s window) and seed of a sweep run without
#: explicit settings: one replication per cell, seeded 11011.
SENSITIVITY_SETTINGS = RunSettings(warmup_time=20.0, measure_time=60.0,
                                   base_seed=11_011)

#: Communication delay of every cell except a ``comm_delay`` sweep's.
BASE_COMM_DELAY = 0.2

#: Default value grids per sweepable parameter (CLI --sensitivity).
DEFAULT_SWEEPS: dict[str, tuple[float, ...]] = {
    "comm_delay": (0.1, 0.2, 0.5, 0.8),
    "central_mips": (8.0, 15.0, 30.0),
    "p_local": (0.6, 0.75, 0.9),
    "n_sites": (5, 10, 20),
}


@dataclass(frozen=True)
class SensitivityPoint:
    """One parameter setting: strategy outcomes plus the static optimum.

    ``replication_counts`` / ``rt_half_widths`` are filled whenever the
    sweep runs more than one replication per cell (fixed or adaptive);
    single-run sweeps leave them empty.
    """

    parameter: str
    value: float
    optimal_p_ship: float
    response_times: dict[str, float]
    shipped_fractions: dict[str, float]
    replication_counts: dict[str, int] = field(default_factory=dict)
    rt_half_widths: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class SensitivitySweep:
    """A full one-parameter sweep."""

    parameter: str
    points: tuple[SensitivityPoint, ...]

    def values(self) -> tuple[float, ...]:
        return tuple(point.value for point in self.points)

    def series(self, strategy: str) -> tuple[float, ...]:
        return tuple(point.response_times[strategy]
                     for point in self.points)

    def optimal_p_ships(self) -> tuple[float, ...]:
        return tuple(point.optimal_p_ship for point in self.points)

    def to_table(self) -> str:
        headers = ([self.parameter, "p_ship*"] +
                   [f"RT:{name}" for name in REFERENCE_STRATEGIES])
        rows = []
        for point in self.points:
            rows.append(
                [f"{point.value:g}", f"{point.optimal_p_ship:.2f}"] +
                [f"{point.response_times[name]:.3f}"
                 for name in REFERENCE_STRATEGIES])
        return format_table(headers, rows)


def _configure(parameter: str, value: float,
               base: SystemConfig) -> dict:
    """The config overrides one swept value applies to ``base``."""
    if parameter in ("comm_delay", "central_mips"):
        return {parameter: value}
    if parameter == "p_local":
        return {"workload": replace(base.workload, p_local=value)}
    if parameter == "n_sites":
        n_sites = int(value)
        # Keep the *total* arrival rate constant as the site count
        # changes (per-site rate adjusts), like-for-like comparison.
        total = base.workload.total_arrival_rate
        return {"workload": replace(base.workload, n_sites=n_sites,
                                    arrival_rate_per_site=total / n_sites)}
    raise ValueError(f"unknown sweep parameter {parameter!r}")


def sweep_parameter(parameter: str, values: Sequence[float],
                    total_rate: float = 25.0,
                    settings: RunSettings | None = None,
                    workers: int | None = 1,
                    cache: ResultCache | None = None) -> SensitivitySweep:
    """Sweep one parameter; everything else stays at the paper's base.

    Every (setting, strategy) cell is one point of the shared scheduler,
    built with :func:`~repro.experiments.runner.build_job`, so
    ``settings`` governs the horizon, protocol, seeds (``crn``
    included) and replications: a plain
    :class:`~repro.experiments.runner.RunSettings` runs ``replications``
    per cell, a :class:`~repro.experiments.runner.PrecisionSettings`
    adds replications per cell until the precision target or cap.  The
    default, :data:`SENSITIVITY_SETTINGS`, is one 20 s + 60 s run per
    cell at seed 11011.  ``workers`` > 1 fans the grid over a process
    pool and ``cache`` reuses completed cells.
    """
    settings = settings or SENSITIVITY_SETTINGS
    base = settings.config_for(total_rate, BASE_COMM_DELAY)
    cells = []  # (comm_delay, further overrides) per value
    for value in values:
        overrides = _configure(parameter, value, base)
        cells.append((overrides.pop("comm_delay", BASE_COMM_DELAY),
                      overrides))
    outcomes, _ = schedule_adaptive(
        [partial(build_job, settings, name, total_rate, delay, **overrides)
         for delay, overrides in cells for name in REFERENCE_STRATEGIES],
        settings, ParallelRunner(workers=workers, cache=cache))

    points = []
    outcome = iter(outcomes)
    for value, (delay, overrides) in zip(values, cells):
        optimum = optimize_static(
            settings.config_for(total_rate, delay, **overrides))
        response_times = {}
        shipped_fractions = {}
        replication_counts = {}
        rt_half_widths = {}
        for name in REFERENCE_STRATEGIES:
            scheduled = next(outcome)
            cell = _assemble_point(total_rate, scheduled.results,
                                   scheduled.interval)
            response_times[name] = cell.mean_response_time
            shipped_fractions[name] = cell.shipped_fraction
            if cell.n_replications > 1:
                replication_counts[name] = cell.n_replications
                rt_half_widths[name] = cell.rt_half_width
        points.append(SensitivityPoint(
            parameter=parameter, value=float(value),
            optimal_p_ship=optimum.p_ship,
            response_times=response_times,
            shipped_fractions=shipped_fractions,
            replication_counts=replication_counts,
            rt_half_widths=rt_half_widths))
    return SensitivitySweep(parameter=parameter, points=tuple(points))
