"""The benchmark's workloads: one timed unit each, all serial and
uncached (``workers=1``, no result cache), seeded by ``--seed``.

Every unit calls public ``repro`` functions through their modules
(``runner.run_curve_set``, ``runner.run_single``) so that the traced
run's wrappers see each call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

#: Figure sweep: one point per curve, at 0.4 of the paper's horizon
#: (12 s warm-up + 36 s window; 30 s + 90 s at scale 1).  A figure's
#: fixed cost per job -- building the system, the ``static-optimal``
#: solve -- does not shrink with the horizon, so a short horizon would
#: over-weight it; the mix measured at each scale is in ``README.md``.
#: ``none`` stays at or below 20 tps so it never thrashes.
FIGURE_SCALE = 0.4
FIGURE_JOBS = (
    ("none", 20.0, "optimistic"),
    ("static-optimal", 25.0, "optimistic"),
    ("queue-length", 15.0, "optimistic"),
    ("min-incoming-queue", 20.0, "optimistic"),
    ("min-average-population", 25.0, "optimistic"),
    ("measured-response", 25.0, "optimistic"),
    # One point per non-default commit protocol.
    ("min-average-population", 20.0, "2pc"),
    ("min-average-population", 20.0, "epoch"),
)


def run_figure(seed: int) -> None:
    """Each job gets its own base seed derived from ``seed``.  Jobs
    sharing one seed share their arrival streams, so their work rises and
    falls together from seed to seed; independent jobs keep the unit's
    total work steady across seeds."""
    from repro.experiments import runner

    for index, (strategy, rate, protocol) in enumerate(FIGURE_JOBS):
        settings = runner.RunSettings(scale=FIGURE_SCALE,
                                      base_seed=seed * 100 + index,
                                      protocol=protocol)
        runner.run_curve_set([(strategy, f"{strategy}/{protocol}", [rate])],
                             settings=settings, workers=1, cache=None)


#: Long workloads: independent runs per unit, each with its own seed
#: derived from ``--seed``, and each run's measurement window in
#: simulated seconds (after ``LONG_WARMUP``).  One run's luck -- how far
#: the hot lockspace backs up, how the outage falls -- would otherwise
#: set the unit's work.  The hot lockspace backs up further the longer
#: a run goes on, so ``contended`` averages many short runs: 6 x 20 s
#: varied by 2% in events from seed to seed, 1 x 80 s by 5-10%.
LONG_WARMUP = 5.0
CONTENDED_RUNS, CONTENDED_MEASURE = 6, 20.0
FAILOVER_RUNS, FAILOVER_MEASURE = 2, 80.0


def _long_seeds(seed: int, runs: int) -> range:
    return range(seed * 10, seed * 10 + runs)


def _long_settings(seed: int, measure_time: float):
    from repro.experiments import runner

    return runner.RunSettings(warmup_time=LONG_WARMUP,
                              measure_time=measure_time, base_seed=seed)


def run_contended(seed: int) -> None:
    """Shaped like the golden ``queue-length-hot`` scenario."""
    from repro.experiments import runner

    for run_seed in _long_seeds(seed, CONTENDED_RUNS):
        settings = _long_settings(run_seed, CONTENDED_MEASURE)
        workload = settings.config_for(25.0, 0.2).workload
        runner.run_single("queue-length", 25.0, settings=settings,
                          workload=replace(workload, lockspace=2_000))


def run_failover(seed: int) -> None:
    from repro.experiments import runner
    from repro.sim.faults import NAMED_PLANS

    for run_seed in _long_seeds(seed, FAILOVER_RUNS):
        plan = NAMED_PLANS["central-outage-failover"](
            warmup_time=LONG_WARMUP, measure_time=FAILOVER_MEASURE)
        runner.run_single("queue-length", 18.0,
                          settings=_long_settings(run_seed, FAILOVER_MEASURE),
                          fault_plan=plan)


@dataclass(frozen=True)
class Workload:
    name: str
    unit: Callable[[int], None]
    #: Simulations one unit runs (operations attempted per repetition).
    simulations: int


WORKLOADS = {
    "figure": Workload(
        "figure", run_figure, simulations=len(FIGURE_JOBS)),
    "contended": Workload("contended", run_contended,
                          simulations=CONTENDED_RUNS),
    "failover": Workload("failover", run_failover,
                         simulations=FAILOVER_RUNS),
}
