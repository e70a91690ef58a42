"""Sensitivity sweeps over the parameters the conclusions call out.

The paper's conclusions: the right load-sharing behaviour depends on the
communications delay, the central/local MIPS, the class A fraction, and
the number of sites.  Each bench sweeps one of these and asserts the
direction of the dependency.
"""

from dataclasses import replace

from conftest import BENCH_SCALE, run_once

from repro.experiments.sensitivity import (
    SENSITIVITY_SETTINGS,
    sweep_parameter,
)

SETTINGS = replace(SENSITIVITY_SETTINGS,
                   warmup_time=20.0 * BENCH_SCALE + 5.0,
                   measure_time=60.0 * BENCH_SCALE + 10.0)


def test_sensitivity_central_mips(benchmark):
    """More central MIPS -> ship more, perform better."""
    sweep = run_once(benchmark, lambda: sweep_parameter(
        "central_mips", [8.0, 15.0, 30.0],
        settings=SETTINGS))
    print()
    print(sweep.to_table())
    p_ships = sweep.optimal_p_ships()
    assert p_ships == tuple(sorted(p_ships)), \
        "optimal shipping should grow with central capacity"
    dynamic = sweep.series("min-average-population")
    assert dynamic[-1] < dynamic[0], \
        "a faster central site must improve the dynamic scheme"


def test_sensitivity_p_local(benchmark):
    """A larger class A fraction gives load sharing more headroom."""
    sweep = run_once(benchmark, lambda: sweep_parameter(
        "p_local", [0.6, 0.75, 0.9],
        settings=SETTINGS))
    print()
    print(sweep.to_table())
    # With more class B (p_local = 0.6) the central site carries a
    # larger mandatory load, so the achievable response time is worse
    # than with p_local = 0.9 under the same total rate.
    dynamic = sweep.series("min-average-population")
    assert dynamic[0] >= dynamic[-1] * 0.9


def test_sensitivity_n_sites(benchmark):
    """Fewer, relatively-stronger regions change the sharing calculus."""
    sweep = run_once(benchmark, lambda: sweep_parameter(
        "n_sites", [5, 10, 20],
        settings=SETTINGS))
    print()
    print(sweep.to_table())
    # At constant total rate and 1 MIPS per site, fewer sites mean more
    # load per site: no-load-sharing degrades sharply as sites shrink.
    none = sweep.series("none")
    assert none[0] > none[-1]
    # Load sharing keeps every configuration serviceable.
    dynamic = sweep.series("min-average-population")
    assert max(dynamic) < min(none[0], 10.0)


def test_sensitivity_comm_delay(benchmark):
    """The evaluation's own axis, swept more finely."""
    sweep = run_once(benchmark, lambda: sweep_parameter(
        "comm_delay", [0.1, 0.2, 0.5, 0.8],
        settings=SETTINGS))
    print()
    print(sweep.to_table())
    # Larger delays penalise shipping: optimal static fraction falls.
    p_ships = sweep.optimal_p_ships()
    assert p_ships[0] >= p_ships[-1]
    # And the best achievable response time deteriorates.
    dynamic = sweep.series("min-average-population")
    assert dynamic == tuple(sorted(dynamic))