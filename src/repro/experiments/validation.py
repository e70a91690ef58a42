"""Cross-validation of the analytic model against the simulator.

The paper leans on its Section 3.1 analytic model twice: to find the
optimal static shipping probability, and (in observation-driven form)
inside the dynamic strategies.  [CIC87A,B] justified the collision
methodology with simulation; this module provides the same check for
this reproduction -- evaluate the model and the discrete-event simulator
on a grid of (arrival rate, p_ship) points and report the response-time
agreement.

Used by ``benchmarks/test_model_validation.py`` and recorded in
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from ..core.model import AnalyticModel
from ..core.static import static_router_factory
from ..hybrid.config import SystemConfig
from .adaptive import schedule_adaptive
from .cache import ResultCache
from .parallel import ParallelRunner
from .report import format_table
from .runner import RunSettings, _assemble_point, build_job

__all__ = ["ValidationPoint", "ValidationReport", "validate_model",
           "StaticStrategy", "VALIDATION_SETTINGS"]

#: Horizon (25 s warm-up + 75 s window) and seed of a validation run
#: without explicit settings: one replication per grid point.
VALIDATION_SETTINGS = RunSettings(warmup_time=25.0, measure_time=75.0,
                                  base_seed=4_242)


@dataclass(frozen=True)
class StaticStrategy:
    """Picklable, cacheable strategy: ship class A with fixed ``p_ship``."""

    p_ship: float

    def __call__(self, config: SystemConfig):
        return static_router_factory(self.p_ship)

    @property
    def cache_key(self) -> str:
        return f"static({self.p_ship!r})"


@dataclass(frozen=True)
class ValidationPoint:
    """One (rate, p_ship) comparison."""

    total_rate: float
    p_ship: float
    model_response: float
    simulated_response: float
    model_rho_local: float
    simulated_rho_local: float
    model_rho_central: float
    simulated_rho_central: float

    @property
    def response_error(self) -> float:
        """Relative error of the model's mean response time."""
        if self.simulated_response == 0:
            return float("inf")
        return (self.model_response - self.simulated_response) / \
            self.simulated_response


@dataclass(frozen=True)
class ValidationReport:
    """Grid of comparisons plus aggregate error statistics."""

    points: tuple[ValidationPoint, ...]

    @property
    def max_abs_error(self) -> float:
        return max(abs(point.response_error) for point in self.points)

    @property
    def mean_abs_error(self) -> float:
        errors = [abs(point.response_error) for point in self.points]
        return sum(errors) / len(errors)

    def to_table(self) -> str:
        headers = ["rate", "p_ship", "model RT", "sim RT", "err",
                   "model rho_l", "sim rho_l", "model rho_c", "sim rho_c"]
        rows = []
        for point in self.points:
            rows.append([
                f"{point.total_rate:g}",
                f"{point.p_ship:.2f}",
                f"{point.model_response:.3f}",
                f"{point.simulated_response:.3f}",
                f"{point.response_error:+.1%}",
                f"{point.model_rho_local:.2f}",
                f"{point.simulated_rho_local:.2f}",
                f"{point.model_rho_central:.2f}",
                f"{point.simulated_rho_central:.2f}",
            ])
        return format_table(headers, rows)


def validate_model(rates: tuple[float, ...] = (5.0, 10.0, 15.0, 20.0),
                   p_ships: tuple[float, ...] = (0.0, 0.3, 0.6),
                   comm_delay: float = 0.2,
                   settings: RunSettings | None = None,
                   workers: int | None = 1,
                   cache: ResultCache | None = None) -> ValidationReport:
    """Compare model and simulator over a stable-load grid.

    The grid deliberately stays below the lock-thrashing region: past
    saturation neither the fixed point nor the finite-horizon simulation
    estimates a meaningful steady state (the model reports
    ``converged=False`` there).  Each (rate, p_ship) cell is one point
    of the shared scheduler, so ``settings`` (default
    :data:`VALIDATION_SETTINGS`) governs horizon, protocol, seeds and
    replications, and the simulated side is the mean over a cell's
    replications.
    """
    settings = settings or VALIDATION_SETTINGS
    cells = [(total_rate, p_ship) for total_rate in rates
             for p_ship in p_ships]
    outcomes, _ = schedule_adaptive(
        [partial(build_job, settings, StaticStrategy(p_ship), total_rate,
                 comm_delay) for total_rate, p_ship in cells],
        settings, ParallelRunner(workers=workers, cache=cache))
    points = []
    for (total_rate, p_ship), outcome in zip(cells, outcomes):
        config = settings.config_for(total_rate, comm_delay)
        estimate = AnalyticModel(config).evaluate(
            p_ship, config.workload.arrival_rate_per_site)
        simulated = _assemble_point(total_rate, outcome.results,
                                    outcome.interval)
        points.append(ValidationPoint(
            total_rate=total_rate,
            p_ship=p_ship,
            model_response=estimate.response_average,
            simulated_response=simulated.mean_response_time,
            model_rho_local=estimate.contention.rho_local,
            simulated_rho_local=simulated.local_utilization,
            model_rho_central=estimate.contention.rho_central,
            simulated_rho_central=simulated.central_utilization,
        ))
    return ValidationReport(points=tuple(points))
