"""Unit and property tests for the queueing-analysis helpers."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    MAX_UTILIZATION,
    clamp_utilization,
    mean_holding_time,
    mm1_expansion,
    mm1_mean_number,
    mm1_response_time,
    probability_local_outlives,
    solve_fixed_point,
    triangular_residual_mean,
    uniform_residual_mean,
    utilization_from_population,
    utilization_from_queue_length,
)


# ---------------------------------------------------------------------------
# M/M/1 helpers
# ---------------------------------------------------------------------------

def test_clamp_utilization_bounds():
    assert clamp_utilization(-0.5) == 0.0
    assert clamp_utilization(0.5) == 0.5
    assert clamp_utilization(2.0) == MAX_UTILIZATION


def test_clamp_rejects_nan():
    with pytest.raises(ValueError):
        clamp_utilization(float("nan"))


def test_mm1_expansion_idle():
    assert mm1_expansion(0.0) == 1.0


def test_mm1_expansion_half():
    assert mm1_expansion(0.5) == pytest.approx(2.0)


def test_mm1_expansion_clamped_finite():
    assert math.isfinite(mm1_expansion(5.0))


def test_mm1_mean_number():
    assert mm1_mean_number(0.5) == pytest.approx(1.0)
    assert mm1_mean_number(0.0) == 0.0


def test_mm1_response_time():
    assert mm1_response_time(2.0, 0.5) == pytest.approx(4.0)


def test_mm1_response_time_negative_service():
    with pytest.raises(ValueError):
        mm1_response_time(-1.0, 0.5)


def test_utilization_from_queue_length_inverts_mean_number():
    for rho in (0.1, 0.5, 0.9):
        n = mm1_mean_number(rho)
        assert utilization_from_queue_length(n) == pytest.approx(rho)


def test_utilization_from_queue_length_with_correction():
    base = utilization_from_queue_length(2.0)
    corrected = utilization_from_queue_length(2.0, extra_jobs=1.0)
    assert corrected > base


def test_utilization_from_queue_length_rejects_negative():
    with pytest.raises(ValueError):
        utilization_from_queue_length(-1.0)


def test_utilization_from_population_zero_jobs():
    assert utilization_from_population(0.0, 0.5, 0.5) == 0.0


def test_utilization_from_population_self_consistent():
    """The root satisfies rho = n * S / (Z + S / (1 - rho))."""
    n, service, think = 3.0, 0.48, 0.5
    rho = utilization_from_population(n, service, think)
    response = think + service / (1.0 - rho)
    assert rho == pytest.approx(n * service / response, rel=1e-6)


def test_utilization_from_population_monotone_in_n():
    values = [utilization_from_population(n, 0.48, 0.5)
              for n in (0, 1, 2, 5, 20, 100)]
    assert values == sorted(values)
    assert values[-1] <= MAX_UTILIZATION


def test_utilization_from_population_never_exceeds_one():
    # The raw alpha*n estimator would exceed 1 here; the law cannot.
    assert utilization_from_population(50.0, 0.48, 0.5) < 1.0


def test_utilization_from_population_extra_jobs():
    base = utilization_from_population(2.0, 0.48, 0.5)
    plus = utilization_from_population(2.0, 0.48, 0.5, extra_jobs=1.0)
    assert plus > base


def test_utilization_from_population_zero_think_time():
    assert utilization_from_population(1.0, 0.5, 0.0) == pytest.approx(0.5)


def test_utilization_from_population_validates():
    with pytest.raises(ValueError):
        utilization_from_population(-1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        utilization_from_population(1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        utilization_from_population(1.0, 0.5, -0.5)


@given(st.floats(min_value=0, max_value=1000, allow_nan=False))
def test_queue_length_utilization_in_unit_interval(q):
    rho = utilization_from_queue_length(q)
    assert 0.0 <= rho <= MAX_UTILIZATION


# ---------------------------------------------------------------------------
# Residual-time distributions
# ---------------------------------------------------------------------------

def test_uniform_residual_mean():
    assert uniform_residual_mean(10.0) == 5.0


def test_triangular_residual_mean():
    assert triangular_residual_mean(9.0) == 3.0


def test_residual_means_reject_negative():
    with pytest.raises(ValueError):
        uniform_residual_mean(-1.0)
    with pytest.raises(ValueError):
        triangular_residual_mean(-1.0)


def test_mean_holding_time_single_lock():
    # One lock taken at the start is held the whole run.
    assert mean_holding_time(10.0, 1) == pytest.approx(10.0)


def test_mean_holding_time_many_locks_approaches_half():
    assert mean_holding_time(10.0, 1000) == pytest.approx(5.0, rel=0.01)


def test_mean_holding_time_paper_n():
    # N_l = 10: (10 + 1) / 20 of the run time.
    assert mean_holding_time(1.0, 10) == pytest.approx(0.55)


def test_mean_holding_time_validates():
    with pytest.raises(ValueError):
        mean_holding_time(-1.0, 10)
    with pytest.raises(ValueError):
        mean_holding_time(1.0, 0)


def test_probability_local_outlives_zero_local():
    assert probability_local_outlives(0.0, 1.0, 0.1) == 0.0


def test_probability_local_outlives_long_local():
    # Local run much longer than central: local almost surely outlives.
    p = probability_local_outlives(1000.0, 1.0, 0.0)
    assert p > 0.95


def test_probability_local_outlives_long_delay():
    # Huge authentication delay: the local commits first.
    p = probability_local_outlives(1.0, 1.0, 1000.0)
    assert p == pytest.approx(0.0, abs=1e-9)


def test_probability_local_outlives_zero_central():
    p = probability_local_outlives(2.0, 0.0, 0.5)
    # L uniform on [0,2] must exceed the delay 0.5: P = 1 - 0.5/2.
    assert p == pytest.approx(0.75)


@given(st.floats(min_value=0.01, max_value=100, allow_nan=False),
       st.floats(min_value=0.01, max_value=100, allow_nan=False),
       st.floats(min_value=0, max_value=10, allow_nan=False))
def test_probability_local_outlives_is_probability(t_l, t_c, delay):
    p = probability_local_outlives(t_l, t_c, delay)
    assert 0.0 <= p <= 1.0


def _full_integration_loop(local_run_time, central_run_time, auth_delay,
                           samples=64):
    """The integration loop of ``probability_local_outlives`` before it
    stopped at the first zero term, kept verbatim as the reference."""
    total = 0.0
    t_c = central_run_time
    step = t_c / samples
    for i in range(samples):
        x = (i + 0.5) * step
        density = 2.0 * (t_c - x) / (t_c * t_c)
        threshold = x + auth_delay
        if threshold >= local_run_time:
            p_outlive = 0.0
        else:
            p_outlive = 1.0 - threshold / local_run_time
        total += density * p_outlive * step
    return min(max(total, 0.0), 1.0)


def _outcome(function, *args):
    """Bit pattern of the result (NaNs alike), or the exception type."""
    try:
        value = function(*args)
    except ArithmeticError as error:
        return type(error)
    if math.isnan(value):
        return "nan"
    return math.copysign(1.0, value), value


_times = st.one_of(
    st.floats(min_value=0.0, allow_nan=False),
    st.floats(min_value=1e-3, max_value=10.0),
    st.sampled_from([0.0, 1e-170, 1e-150, 0.1, 0.2, 1.0, 1e150, 1e308,
                     math.inf]),
)


@settings(max_examples=2000)
@given(_times.filter(lambda t: t > 0), _times.filter(lambda t: t > 0),
       _times)
def test_probability_local_outlives_matches_full_loop(t_l, t_c, delay):
    assert _outcome(probability_local_outlives, t_l, t_c, delay) == \
        _outcome(_full_integration_loop, t_l, t_c, delay)


@given(st.floats(min_value=0.1, max_value=10, allow_nan=False),
       st.floats(min_value=0.1, max_value=10, allow_nan=False))
def test_probability_decreases_with_delay(t_l, t_c):
    p0 = probability_local_outlives(t_l, t_c, 0.0)
    p1 = probability_local_outlives(t_l, t_c, 1.0)
    assert p1 <= p0 + 1e-9


@given(st.floats(min_value=0.1, max_value=10, allow_nan=False))
def test_probability_increases_with_local_time(t_c):
    p_short = probability_local_outlives(0.5, t_c, 0.1)
    p_long = probability_local_outlives(5.0, t_c, 0.1)
    assert p_long >= p_short - 1e-9


# ---------------------------------------------------------------------------
# Fixed-point solver
# ---------------------------------------------------------------------------

def test_fixed_point_linear_contraction():
    result = solve_fixed_point(lambda s: {"x": 0.5 * s["x"] + 1.0},
                               {"x": 0.0})
    assert result.converged
    assert result.state["x"] == pytest.approx(2.0, rel=1e-5)


def test_fixed_point_two_variables():
    result = solve_fixed_point(
        lambda s: {"x": 0.3 * s["y"] + 1.0, "y": 0.3 * s["x"] + 1.0},
        {"x": 0.0, "y": 0.0})
    assert result.converged
    assert result.state["x"] == pytest.approx(result.state["y"], rel=1e-5)
    assert result.state["x"] == pytest.approx(1.0 / 0.7, rel=1e-4)


def test_fixed_point_nonconvergent_reports():
    result = solve_fixed_point(lambda s: {"x": 2.0 * s["x"] + 1.0},
                               {"x": 1.0}, max_iterations=50)
    assert not result.converged
    assert result.iterations == 50


def test_fixed_point_key_mismatch_raises():
    with pytest.raises(ValueError):
        solve_fixed_point(lambda s: {"y": 1.0}, {"x": 0.0})


def test_fixed_point_validates_damping():
    with pytest.raises(ValueError):
        solve_fixed_point(lambda s: s, {"x": 1.0}, damping=0.0)
    with pytest.raises(ValueError):
        solve_fixed_point(lambda s: s, {"x": 1.0}, damping=1.5)


def test_fixed_point_validates_tolerance():
    with pytest.raises(ValueError):
        solve_fixed_point(lambda s: s, {"x": 1.0}, tolerance=0.0)


def test_fixed_point_already_converged():
    result = solve_fixed_point(lambda s: dict(s), {"x": 3.0})
    assert result.converged
    assert result.iterations == 1


@given(st.floats(min_value=0.05, max_value=0.9, allow_nan=False),
       st.floats(min_value=-5, max_value=5, allow_nan=False))
def test_fixed_point_affine_maps_converge(slope, intercept):
    result = solve_fixed_point(
        lambda s: {"x": slope * s["x"] + intercept}, {"x": 0.0},
        max_iterations=2000, tolerance=1e-10)
    assert result.converged
    expected = intercept / (1.0 - slope)
    assert result.state["x"] == pytest.approx(expected, rel=1e-3, abs=1e-6)
