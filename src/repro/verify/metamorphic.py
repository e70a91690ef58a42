"""Metamorphic relations: config transforms with known result relations.

A metamorphic relation pairs a *transform* of the simulation input with
the *relation* the outputs must then satisfy.  Two relation strengths
are used:

* **bit-identity** -- the transform provably cannot change the sample
  path (an empty fault plan, a forced routing expressed two ways), so
  every deterministic result field must be exactly equal;
* **bounded drift** -- the transform preserves a statistic only in
  distribution (permuting site labels) or an ordering (raising the
  arrival rate), so the relation allows a configurable tolerance at the
  fixed verification seed.

Built-in relations:

``empty-fault-plan``        an empty :class:`~repro.sim.faults.FaultPlan`
                            is bit-identical to no plan at all;
``ship-prob-zero``          ``static(p=0)`` is bit-identical to the
                            no-load-sharing forced-local routing;
``ship-prob-one``           ``static(p=1)`` is bit-identical to the
                            forced always-ship routing;
``site-permutation``        permuting per-site arrival-rate multipliers
                            leaves aggregate metrics within tolerance;
``rate-monotonicity``       mean response time is non-decreasing in the
                            arrival rate (small slack for CRN noise);
``seed-stream-independence``disjoint named RNG streams are independent
                            of each other's creation and consumption
                            order.
"""

from __future__ import annotations

from dataclasses import replace

from ..core.router import AlwaysLocalRouter, AlwaysShipRouter
from ..core.static import static_router_factory
from ..experiments.runner import run_single
from ..sim.faults import FaultPlan
from ..sim.rng import RandomStreams
from .base import Check, VerifySettings, identity_details, registry, \
    run_settings
from .compare import diff

__all__ = ["RELATIONS", "run_relations"]

#: Strategy and rate of the paired bit-identity runs: enough traffic for
#: collisions, shipping and update propagation to all be exercised.
PAIR_STRATEGY = "queue-length"
PAIR_RATE = 20.0

#: Relative drift allowed for the statistical (non-bit-identical)
#: relations at the fixed verification seed.
DRIFT_TOLERANCE = 0.15
#: Slack factor for the monotonicity relation (CRN keeps the noise far
#: below this; the relation guards gross ordering inversions).
MONOTONE_SLACK = 0.05


def _check_empty_fault_plan(settings: VerifySettings) -> tuple[bool, str]:
    run = run_settings(settings)
    bare = run_single(PAIR_STRATEGY, PAIR_RATE, settings=run,
                      fault_plan=None)
    empty = run_single(PAIR_STRATEGY, PAIR_RATE, settings=run,
                       fault_plan=FaultPlan.empty())
    lines = diff(bare.identity_dict(), empty.identity_dict(),
                 labels=("no-plan", "empty-plan"))
    return identity_details("no plan", "empty FaultPlan", lines, bare)


def _check_ship_prob_zero(settings: VerifySettings) -> tuple[bool, str]:
    run = run_settings(settings)
    forced = run_single(lambda config: (lambda c, i: AlwaysLocalRouter()),
                        PAIR_RATE, settings=run)
    static = run_single(lambda config: static_router_factory(0.0),
                        PAIR_RATE, settings=run)
    lines = diff(forced.identity_dict(include_strategy=False),
                 static.identity_dict(include_strategy=False),
                 labels=("always-local", "static(p=0)"))
    return identity_details("forced-local", "static(p=0)", lines, forced)


def _check_ship_prob_one(settings: VerifySettings) -> tuple[bool, str]:
    run = run_settings(settings)
    forced = run_single(lambda config: (lambda c, i: AlwaysShipRouter()),
                        PAIR_RATE, settings=run)
    static = run_single(lambda config: static_router_factory(1.0),
                        PAIR_RATE, settings=run)
    lines = diff(forced.identity_dict(include_strategy=False),
                 static.identity_dict(include_strategy=False),
                 labels=("always-ship", "static(p=1)"))
    return identity_details("forced-ship", "static(p=1)", lines, forced)


def _check_site_permutation(settings: VerifySettings) -> tuple[bool, str]:
    run = run_settings(settings)
    multipliers = (1.3, 0.7, 1.1, 0.9, 1.2, 0.8, 1.0, 1.0, 1.05, 0.95)
    permuted = multipliers[3:] + multipliers[:3]
    results = []
    for order in (multipliers, permuted):
        config = run.config_for(PAIR_RATE, 0.2)
        workload = replace(config.workload, rate_multipliers=order)
        results.append(run_single(PAIR_STRATEGY, PAIR_RATE, settings=run,
                                  workload=workload))
    base, perm = results
    drift = abs(perm.mean_response_time - base.mean_response_time) / \
        max(base.mean_response_time, 1e-12)
    throughput_drift = abs(perm.throughput - base.throughput) / \
        max(base.throughput, 1e-12)
    passed = (drift <= DRIFT_TOLERANCE and
              throughput_drift <= DRIFT_TOLERANCE)
    return passed, (
        f"site-permutation: mean RT {base.mean_response_time:.4f}s vs "
        f"{perm.mean_response_time:.4f}s (drift {drift:.1%}), throughput "
        f"{base.throughput:.2f} vs {perm.throughput:.2f} "
        f"(drift {throughput_drift:.1%}), tolerance "
        f"{DRIFT_TOLERANCE:.0%}")


def _check_rate_monotonicity(settings: VerifySettings) -> tuple[bool, str]:
    run = run_settings(settings)
    rates = (8.0, 14.0, 20.0)
    responses = [run_single(PAIR_STRATEGY, rate,
                            settings=run).mean_response_time
                 for rate in rates]
    violations = [
        f"R({rates[i]:g})={responses[i]:.4f} > "
        f"R({rates[i + 1]:g})={responses[i + 1]:.4f} beyond slack"
        for i in range(len(rates) - 1)
        if responses[i] > responses[i + 1] * (1.0 + MONOTONE_SLACK)]
    series = ", ".join(f"R({rate:g})={response:.4f}s"
                       for rate, response in zip(rates, responses))
    if violations:
        return False, "monotonicity violated: " + "; ".join(violations)
    return True, (f"mean RT non-decreasing in arrival rate: {series} "
                  f"(slack {MONOTONE_SLACK:.0%})")


def _check_seed_stream_independence(
        settings: VerifySettings) -> tuple[bool, str]:
    """Disjoint named streams are order- and consumption-independent."""
    problems: list[str] = []

    # Reference draws: stream "a" created and consumed alone.
    alone = RandomStreams(settings.seed).stream("a").random(8).tolist()

    # Same master seed, but "b" created first and interleaved heavily.
    mixed_streams = RandomStreams(settings.seed)
    mixed_streams.stream("b").random(100)
    mixed = mixed_streams.stream("a")
    first_half = mixed.random(4).tolist()
    mixed_streams.stream("b").random(57)
    second_half = mixed.random(4).tolist()
    if alone != first_half + second_half:
        problems.append(
            "stream 'a' draws depend on stream 'b' creation/consumption")

    # Distinct names must give distinct sequences.
    fresh = RandomStreams(settings.seed)
    if fresh.stream("a").random(8).tolist() == \
            fresh.stream("b").random(8).tolist():
        problems.append("streams 'a' and 'b' emitted identical sequences")

    # Different master seeds must not alias.
    if RandomStreams(settings.seed).stream("a").random(8).tolist() == \
            RandomStreams(settings.seed + 1).stream("a").random(8).tolist():
        problems.append("different master seeds produced identical draws")

    # Spawned children are independent of parent consumption.
    parent_a = RandomStreams(settings.seed)
    child_before = parent_a.spawn("child").stream("x").random(8).tolist()
    parent_b = RandomStreams(settings.seed)
    parent_b.stream("a").random(100)
    child_after = parent_b.spawn("child").stream("x").random(8).tolist()
    if child_before != child_after:
        problems.append("spawned child streams depend on parent draws")

    if problems:
        return False, "; ".join(problems)
    return True, ("named RNG streams are independent of creation order, "
                  "interleaving, and parent consumption; distinct names "
                  "and seeds give distinct sequences")


RELATIONS = registry([
    Check(name="empty-fault-plan", kind="relation",
          description="an empty FaultPlan is bit-identical to running "
                      "with no plan at all",
          _run=_check_empty_fault_plan),
    Check(name="ship-prob-zero", kind="relation",
          description="static(p=0) is bit-identical to the forced "
                      "always-local routing",
          _run=_check_ship_prob_zero),
    Check(name="ship-prob-one", kind="relation",
          description="static(p=1) is bit-identical to the forced "
                      "always-ship routing",
          _run=_check_ship_prob_one),
    Check(name="site-permutation", kind="relation",
          description="permuting per-site rate multipliers leaves "
                      "aggregate metrics within tolerance",
          _run=_check_site_permutation),
    Check(name="rate-monotonicity", kind="relation",
          description="mean response time is non-decreasing in the "
                      "total arrival rate",
          _run=_check_rate_monotonicity),
    Check(name="seed-stream-independence", kind="relation",
          description="disjoint named RNG streams are mutually "
                      "independent (order, interleaving, spawning)",
          _run=_check_seed_stream_independence),
])


def run_relations(settings: VerifySettings | None = None,
                  names: list[str] | None = None):
    """Run (a subset of) the metamorphic relations."""
    settings = settings or VerifySettings()
    selected = names or sorted(RELATIONS)
    return [RELATIONS[name].run(settings) for name in selected]
