"""Differential runs: paired executions that must agree.

Each differential pair runs the system twice under configurations that
are *semantically equivalent* -- observers attached or not, a degenerate
config expressed two ways -- and demands field-for-field agreement of
the deterministic results; one pair instead cross-checks the simulator
against the closed-form distributed-mode model within an analytic
tolerance.

Built-in pairs:

``tracer-vs-null``          a streaming tracer is purely observational:
                            attaching one must not perturb the sample
                            path (full identity, engine profile
                            included);
``checker-vs-bare``         the invariant checker's hooks and audit loop
                            are read-only: every metric must match a
                            bare run (profile excluded -- the audit loop
                            schedules its own timeouts);
``observers-vs-bare``       the routing audit and the engine profiler
                            attached together must leave the run
                            bit-identical to a bare one (full identity:
                            neither schedules events); every run, the
                            bare one included, fills its own metrics
                            registry, so the registry is on both sides;
``class-b-mode-degenerate`` with no class B transactions the
                            ``central`` and ``remote-call`` execution
                            modes are the same system (full identity);
``distributed-model-overlap`` at low load the simulated remote-call
                            class B response time must match
                            :class:`~repro.core.distributed_model.DistributedModel`
                            within tolerance.
"""

from __future__ import annotations

from dataclasses import replace

from ..core import STRATEGIES
from ..core.distributed_model import DistributedModel
from ..db.transaction import TransactionClass
from ..experiments.runner import run_single
from ..hybrid.system import HybridSystem
from ..sim.trace import Tracer
from .base import Check, VerifySettings, identity_details, registry, \
    run_settings
from .compare import diff

__all__ = ["DIFFERENTIAL_PAIRS", "run_differential"]

#: Load of the identity pairs: hot enough that routing, collisions and
#: update propagation all run, so "identical" is a strong statement.
PAIR_STRATEGY = "queue-length"
PAIR_RATE = 18.0

#: Relative tolerance of the model-overlap pair.  The closed form
#: ignores lock waits, so it is only exact in the low-load limit; the
#: pair runs at low load where the residual contention is small.
MODEL_OVERLAP_TOLERANCE = 0.15
MODEL_OVERLAP_RATE = 4.0


def _check_tracer_vs_null(settings: VerifySettings) -> tuple[bool, str]:
    run = run_settings(settings)
    bare = run_single(PAIR_STRATEGY, PAIR_RATE, settings=run)
    # A sink-less zero-buffer tracer still exercises every emit path.
    traced = run_single(PAIR_STRATEGY, PAIR_RATE, settings=run,
                        tracer=Tracer(max_records=0))
    lines = diff(bare.identity_dict(), traced.identity_dict(),
                 labels=("null-tracer", "tracer"))
    return identity_details("null tracer", "attached tracer", lines, bare)


def _check_checker_vs_bare(settings: VerifySettings) -> tuple[bool, str]:
    from ..hybrid.checker import attach_checker

    run = run_settings(settings)
    bare = run_single(PAIR_STRATEGY, PAIR_RATE, settings=run)
    config = run.config_for(PAIR_RATE, 0.2, seed=run.base_seed)
    system = HybridSystem(config, STRATEGIES[PAIR_STRATEGY](config))
    checker = attach_checker(system)
    checked = system.run()
    lines = diff(bare.identity_dict(include_profile=False),
                 checked.identity_dict(include_profile=False),
                 labels=("bare", "checker"))
    passed, details = identity_details("bare run", "checker-attached run",
                                       lines, bare)
    if passed:
        details += (f"; checker audited {checker.stats.audits} time(s), "
                    f"verified {checker.stats.completions_checked} "
                    f"completion(s)")
    return passed, details


def _check_observers_vs_bare(settings: VerifySettings) -> tuple[bool, str]:
    from ..obs.audit import RoutingAudit
    from ..obs.profiler import EngineProfiler

    run = run_settings(settings)
    bare = run_single(PAIR_STRATEGY, PAIR_RATE, settings=run)
    audit = RoutingAudit()
    profilers: list[EngineProfiler] = []
    observed = run_single(
        PAIR_STRATEGY, PAIR_RATE, settings=run, audit=audit,
        instrument=lambda system: profilers.append(
            EngineProfiler(system.env)))
    # Full identity, profile included: unlike the invariant checker the
    # observers schedule nothing, so even the event counts must match.
    # Both runs fill their own metrics registry.
    lines = diff(bare.identity_dict(), observed.identity_dict(),
                 labels=("bare", "observed"))
    passed, details = identity_details(
        "bare run", "audit+profiler run", lines, bare)
    if passed:
        profiler = profilers[0]
        details += (f"; audit recorded {audit.recorded} decision(s), "
                    f"profiler timed {profiler.dispatches} dispatch(es)")
        if profiler.dispatches != observed.engine_events:
            passed = False
            details += (f" BUT profiler dispatches != engine events "
                        f"({observed.engine_events})")
    return passed, details


def _check_class_b_mode_degenerate(
        settings: VerifySettings) -> tuple[bool, str]:
    run = run_settings(settings)
    results = []
    for mode in ("central", "remote-call"):
        config = run.config_for(PAIR_RATE, 0.2)
        workload = replace(config.workload, p_local=1.0)
        results.append(run_single(PAIR_STRATEGY, PAIR_RATE, settings=run,
                                  workload=workload, class_b_mode=mode))
    central, remote = results
    lines = diff(central.identity_dict(), remote.identity_dict(),
                 labels=("central", "remote-call"))
    return identity_details("class-B central mode",
                            "class-B remote-call mode (no class B)",
                            lines, central)


def _check_distributed_model_overlap(
        settings: VerifySettings) -> tuple[bool, str]:
    run = run_settings(settings)
    p_b_local = 0.5
    config = run.config_for(MODEL_OVERLAP_RATE, 0.2,
                            class_b_mode="remote-call")
    workload = replace(config.workload, p_b_local=p_b_local)
    result = run_single("none", MODEL_OVERLAP_RATE, settings=run,
                        workload=workload, class_b_mode="remote-call")
    simulated = result.response_time_by_class[TransactionClass.B]
    estimate = DistributedModel(config).estimate(
        p_b_local,
        rho_local=result.mean_local_utilization,
        rho_central=result.mean_central_utilization)
    predicted = estimate.response_distributed
    error = abs(simulated - predicted) / max(predicted, 1e-12)
    passed = error <= MODEL_OVERLAP_TOLERANCE
    return passed, (
        f"remote-call class B at rate {MODEL_OVERLAP_RATE:g} "
        f"(p_b_local={p_b_local}, {estimate.remote_calls:.1f} remote "
        f"call(s)/txn): model {predicted:.4f}s, simulated "
        f"{simulated:.4f}s, |error| {error:.1%} "
        f"{'<=' if passed else 'exceeds'} tolerance "
        f"{MODEL_OVERLAP_TOLERANCE:.0%}")


DIFFERENTIAL_PAIRS = registry([
    Check(name="tracer-vs-null", kind="differential",
          description="an attached streaming tracer does not perturb "
                      "the sample path (full bit-identity)",
          _run=_check_tracer_vs_null),
    Check(name="checker-vs-bare", kind="differential",
          description="the invariant checker's hooks are read-only: all "
                      "metrics match a bare run",
          _run=_check_checker_vs_bare),
    Check(name="observers-vs-bare", kind="differential",
          description="the routing audit and engine profiler together "
                      "do not perturb the sample path (full "
                      "bit-identity)",
          _run=_check_observers_vs_bare),
    Check(name="class-b-mode-degenerate", kind="differential",
          description="with no class B transactions the central and "
                      "remote-call modes are bit-identical",
          _run=_check_class_b_mode_degenerate),
    Check(name="distributed-model-overlap", kind="differential",
          description="low-load remote-call simulation matches the "
                      "closed-form distributed-mode model",
          _run=_check_distributed_model_overlap),
])


def run_differential(settings: VerifySettings | None = None,
                     names: list[str] | None = None):
    """Run (a subset of) the differential pairs."""
    settings = settings or VerifySettings()
    selected = names or sorted(DIFFERENTIAL_PAIRS)
    return [DIFFERENTIAL_PAIRS[name].run(settings) for name in selected]
