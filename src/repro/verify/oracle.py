"""Analytic oracles: the simulator versus closed-form queueing theory.

Each oracle drives the discrete-event simulator into a *degenerate
regime* in which an exact (or operationally exact) prediction exists,
and asserts convergence within confidence-interval tolerances:

* **md1-response-time** -- one site, no locks, no I/O, no commit burst:
  each transaction is a single deterministic CPU burst under Poisson
  arrivals, i.e. exactly an M/D/1 FCFS queue.  The simulated mean
  response time must match the Pollaczek-Khinchine prediction
  (:func:`repro.analysis.mm1.md1_response_time`) within the
  cross-replication confidence half-width plus the settings tolerance.
* **utilization-law** -- in the same regime the utilisation law
  ``rho = lambda * S`` is exact; the measured CPU utilisation must obey
  it.
* **littles-law** -- ``N = X * R`` holds for any stable system
  regardless of distributions; the time-averaged population must match
  throughput times mean response time.
* **fixed-point-model** -- the Section 3.1 analytic model (fixed-point
  iteration over the collision/response equations, via
  :mod:`repro.analysis`) must track the full hybrid simulator over a
  small stable-load grid within the historically validated error band.

The degenerate regimes intentionally exercise the *same* engine, site,
metrics and workload code paths as the paper experiments -- an oracle
failure therefore localises a behavioural regression in the substrate,
not in a test double.
"""

from __future__ import annotations

from ..analysis.mm1 import md1_response_time
from ..core.router import AlwaysLocalRouter
from ..db.workload import WorkloadParams
from ..experiments.runner import RunSettings, run_point
from ..experiments.validation import validate_model
from ..hybrid.config import SystemConfig
from ..hybrid.system import HybridSystem
from .base import Check, VerifySettings, registry

__all__ = ["ORACLES", "degenerate_md1_config", "run_oracles"]

#: Arrival rate of the degenerate single-site regime.  The service time
#: there is 0.15 s (150 K instructions at 1 MIPS), so rho = 0.6: loaded
#: enough that queueing dominates, far enough from saturation that the
#: finite horizon estimates the steady state well.
MD1_RATE = 4.0

#: Error band of the fixed-point model oracle (matches the long-standing
#: thresholds of ``benchmarks/test_model_validation.py``).
MODEL_MEAN_ERROR_LIMIT = 0.20
MODEL_MAX_ERROR_LIMIT = 0.45


def degenerate_md1_config(settings: VerifySettings,
                          rate: float = MD1_RATE) -> SystemConfig:
    """One site, zero locks, zero I/O, zero commit pathlength.

    In this configuration a local transaction's run (``SiteBase._run``)
    reduces to a single ``cpu_burst(instr_txn_overhead)``: deterministic
    service under Poisson arrivals on a FIFO CPU -- the textbook M/D/1
    queue.
    """
    workload = WorkloadParams(n_sites=1, lockspace=1024, locks_per_txn=0,
                              p_local=1.0, arrival_rate_per_site=rate)
    return SystemConfig(
        workload=workload,
        io_initial=0.0, io_per_db_call=0.0, instr_commit=0,
        warmup_time=30.0 * settings.scale,
        measure_time=240.0 * settings.scale,
        seed=settings.seed,
    )


def _md1_prediction(config: SystemConfig) -> tuple[float, float, float]:
    """(service time, utilisation, predicted mean response time)."""
    service = config.local_service_time
    rho = config.workload.arrival_rate_per_site * service
    return service, rho, md1_response_time(service, rho)


def _check_md1_response(settings: VerifySettings) -> tuple[bool, str]:
    config = degenerate_md1_config(settings)
    service, rho, predicted = _md1_prediction(config)
    run = RunSettings(warmup_time=config.warmup_time,
                      measure_time=config.measure_time,
                      replications=3, base_seed=settings.seed)
    point = run_point("none", MD1_RATE, settings=run,
                      workload=config.workload,
                      io_initial=0.0, io_per_db_call=0.0, instr_commit=0)
    interval = point.response_time_interval(settings.confidence)
    tolerance = interval.half_width + settings.rel_tolerance * predicted
    error = abs(point.mean_response_time - predicted)
    passed = error <= tolerance
    details = (f"M/D/1 @ rho={rho:.2f}: predicted R={predicted:.4f}s, "
               f"simulated {point.mean_response_time:.4f}s "
               f"+/- {interval.half_width:.4f} "
               f"({interval.n} replication(s)); |error|={error:.4f} "
               f"<= tolerance {tolerance:.4f}" if passed else
               f"M/D/1 @ rho={rho:.2f}: predicted R={predicted:.4f}s but "
               f"simulated {point.mean_response_time:.4f}s "
               f"+/- {interval.half_width:.4f}; |error|={error:.4f} "
               f"exceeds tolerance {tolerance:.4f}")
    return passed, details


def _degenerate_run(settings: VerifySettings):
    config = degenerate_md1_config(settings)
    system = HybridSystem(config, lambda c, i: AlwaysLocalRouter())
    result = system.run()
    return config, system, result


def _check_utilization_law(settings: VerifySettings) -> tuple[bool, str]:
    config, _system, result = _degenerate_run(settings)
    _service, rho, _ = _md1_prediction(config)
    measured = result.mean_local_utilization
    tolerance = settings.rel_tolerance * rho
    error = abs(measured - rho)
    passed = error <= tolerance
    return passed, (
        f"utilisation law rho = lambda*S: predicted {rho:.4f}, "
        f"measured {measured:.4f}, |error|={error:.4f} "
        f"{'<=' if passed else 'exceeds'} tolerance {tolerance:.4f}")


def _check_littles_law(settings: VerifySettings) -> tuple[bool, str]:
    _config, system, result = _degenerate_run(settings)
    mean_n = system._n_local_tw.mean(system.env.now)
    predicted = result.throughput * result.mean_response_time
    tolerance = settings.rel_tolerance * max(predicted, 1e-12)
    error = abs(mean_n - predicted)
    passed = error <= tolerance
    return passed, (
        f"Little's law N = X*R: X*R = {predicted:.4f}, time-averaged "
        f"population {mean_n:.4f}, |error|={error:.4f} "
        f"{'<=' if passed else 'exceeds'} tolerance {tolerance:.4f}")


def _check_fixed_point_model(settings: VerifySettings) -> tuple[bool, str]:
    report = validate_model(
        rates=(5.0, 10.0, 15.0), p_ships=(0.0, 0.3),
        settings=RunSettings(warmup_time=20.0, measure_time=60.0,
                             scale=settings.scale, base_seed=settings.seed))
    mean_error = report.mean_abs_error
    max_error = report.max_abs_error
    passed = (mean_error <= MODEL_MEAN_ERROR_LIMIT and
              max_error <= MODEL_MAX_ERROR_LIMIT)
    return passed, (
        f"fixed-point model vs simulator over {len(report.points)} grid "
        f"point(s): mean |error| {mean_error:.1%} "
        f"(limit {MODEL_MEAN_ERROR_LIMIT:.0%}), max |error| "
        f"{max_error:.1%} (limit {MODEL_MAX_ERROR_LIMIT:.0%})")


ORACLES = registry([
    Check(name="md1-response-time", kind="oracle",
          description="single-site no-lock no-I/O regime matches the "
                      "M/D/1 Pollaczek-Khinchine mean response time",
          _run=_check_md1_response),
    Check(name="utilization-law", kind="oracle",
          description="measured CPU utilisation equals lambda*S in the "
                      "degenerate single-burst regime",
          _run=_check_utilization_law),
    Check(name="littles-law", kind="oracle",
          description="time-averaged population equals throughput times "
                      "mean response time",
          _run=_check_littles_law),
    Check(name="fixed-point-model", kind="oracle",
          description="Section 3.1 analytic fixed point tracks the "
                      "simulator over a stable-load grid",
          _run=_check_fixed_point_model),
])


def run_oracles(settings: VerifySettings | None = None,
                names: list[str] | None = None):
    """Run (a subset of) the oracles, returning their results."""
    settings = settings or VerifySettings()
    selected = names or sorted(ORACLES)
    return [ORACLES[name].run(settings) for name in selected]
