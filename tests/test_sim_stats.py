"""Unit and property tests for statistics accumulators (repro.sim.stats)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from repro.sim import (
    Environment,
    RandomStreams,
    ReplicationSummary,
    RunningStat,
    TimeWeightedStat,
)
from repro.sim.stats import (
    paired_difference,
    t_quantile,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# RunningStat
# ---------------------------------------------------------------------------

def test_running_stat_empty_is_nan():
    stat = RunningStat()
    assert math.isnan(stat.mean)
    assert math.isnan(stat.variance)


def test_running_stat_single_value():
    stat = RunningStat()
    stat.add(5.0)
    assert stat.mean == 5.0
    assert stat.count == 1
    assert math.isnan(stat.variance)


def test_running_stat_known_values():
    stat = RunningStat()
    stat.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
    assert stat.mean == pytest.approx(5.0)
    assert stat.variance == pytest.approx(32.0 / 7.0)
    assert stat.minimum == 2.0
    assert stat.maximum == 9.0


@given(st.lists(finite_floats, min_size=2, max_size=200))
def test_running_stat_matches_numpy(values):
    stat = RunningStat()
    stat.extend(values)
    assert stat.mean == pytest.approx(np.mean(values), rel=1e-9, abs=1e-6)
    assert stat.variance == pytest.approx(np.var(values, ddof=1),
                                          rel=1e-6, abs=1e-6)


@given(st.lists(finite_floats, min_size=1, max_size=100),
       st.lists(finite_floats, min_size=1, max_size=100))
def test_running_stat_merge_equals_concatenation(left, right):
    a = RunningStat()
    a.extend(left)
    b = RunningStat()
    b.extend(right)
    merged = a.merge(b)
    combined = RunningStat()
    combined.extend(left + right)
    assert merged.count == combined.count
    assert merged.mean == pytest.approx(combined.mean, rel=1e-9, abs=1e-6)
    assert merged.minimum == combined.minimum
    assert merged.maximum == combined.maximum


def test_running_stat_merge_empty():
    a = RunningStat()
    b = RunningStat()
    assert a.merge(b).count == 0


def test_running_stat_merge_empty_with_nonempty():
    """empty ⊕ non-empty must equal the non-empty side (both orders)."""
    empty = RunningStat()
    filled = RunningStat()
    filled.extend([2.0, 4.0, 9.0])
    for merged in (empty.merge(filled), filled.merge(empty)):
        assert merged.count == 3
        assert merged.mean == pytest.approx(5.0)
        assert merged.variance == pytest.approx(filled.variance)
        assert merged.minimum == 2.0
        assert merged.maximum == 9.0


def test_running_stat_merge_propagates_min_and_max():
    a = RunningStat()
    a.extend([5.0, 7.0])
    b = RunningStat()
    b.extend([-3.0, 6.0])
    merged = a.merge(b)
    assert merged.minimum == -3.0
    assert merged.maximum == 7.0
    # Merging is symmetric in the extremes.
    other = b.merge(a)
    assert other.minimum == -3.0 and other.maximum == 7.0


def test_running_stat_merge_two_singletons_variance():
    """Two one-observation accumulators merge into a valid 2-sample."""
    a = RunningStat()
    a.add(1.0)
    assert math.isnan(a.variance)  # single observation: undefined
    b = RunningStat()
    b.add(3.0)
    merged = a.merge(b)
    assert merged.count == 2
    assert merged.mean == pytest.approx(2.0)
    assert merged.variance == pytest.approx(2.0)  # ((1-2)^2+(3-2)^2)/1
    assert merged.std == pytest.approx(math.sqrt(2.0))


def test_interval_zero_variance_has_zero_half_width():
    stat = RunningStat()
    stat.extend([3.0] * 10)
    ci = stat.interval()
    assert ci.half_width == 0.0
    assert ci.mean == 3.0


def test_interval_contains_true_mean_usually():
    rng = np.random.default_rng(7)
    hits = 0
    for _ in range(100):
        stat = RunningStat()
        stat.extend(rng.normal(10.0, 2.0, size=30))
        ci = stat.interval(confidence=0.95)
        if ci.low <= 10.0 <= ci.high:
            hits += 1
    assert hits >= 85  # 95% nominal coverage, generous slack


def test_interval_estimate_str():
    stat = RunningStat()
    stat.extend([1.0, 2.0, 3.0])
    text = str(stat.interval())
    assert "+/-" in text and "95%" in text


def test_relative_half_width():
    stat = RunningStat()
    stat.extend([10.0, 10.0, 10.0])
    assert stat.interval().relative_half_width == 0.0
    zero = RunningStat()
    zero.extend([0.0, 0.0])
    assert zero.interval().relative_half_width == math.inf


# ---------------------------------------------------------------------------
# TimeWeightedStat
# ---------------------------------------------------------------------------

def test_time_weighted_constant_level():
    tw = TimeWeightedStat(initial_level=3.0)
    assert tw.mean(10.0) == pytest.approx(3.0)


def test_time_weighted_step_function():
    tw = TimeWeightedStat()
    tw.record(2.0, 4.0)   # level 0 on [0,2), level 4 after
    assert tw.mean(4.0) == pytest.approx((0 * 2 + 4 * 2) / 4)


def test_time_weighted_multiple_steps():
    tw = TimeWeightedStat()
    tw.record(1.0, 1.0)
    tw.record(3.0, 5.0)
    tw.record(4.0, 0.0)
    # integral = 0*1 + 1*2 + 5*1 + 0*6 = 7 over [0,10]
    assert tw.mean(10.0) == pytest.approx(0.7)


def test_time_weighted_backwards_time_raises():
    tw = TimeWeightedStat()
    tw.record(5.0, 1.0)
    with pytest.raises(ValueError):
        tw.record(4.0, 2.0)


def test_time_weighted_reset():
    tw = TimeWeightedStat()
    tw.record(5.0, 10.0)
    tw.reset(5.0)
    assert tw.mean(10.0) == pytest.approx(10.0)


def test_time_weighted_peak():
    tw = TimeWeightedStat()
    tw.record(1.0, 7.0)
    tw.record(2.0, 3.0)
    assert tw.peak == 7.0


def test_time_weighted_reset_drops_old_peak_to_current_level():
    """After reset the peak restarts from the *current* level, so a
    pre-reset spike can never leak into post-warm-up statistics."""
    tw = TimeWeightedStat()
    tw.record(1.0, 9.0)   # warm-up spike
    tw.record(2.0, 2.0)
    tw.reset(2.0)
    assert tw.peak == 2.0
    tw.record(3.0, 5.0)
    assert tw.peak == 5.0  # new peaks still tracked after reset


def test_time_weighted_reset_keeps_level_and_restarts_integral():
    tw = TimeWeightedStat()
    tw.record(4.0, 6.0)
    tw.reset(4.0)
    assert tw.level == 6.0
    assert tw.mean(8.0) == pytest.approx(6.0)  # only post-reset history


@given(st.lists(st.tuples(st.floats(min_value=0.01, max_value=10,
                                    allow_nan=False),
                          st.floats(min_value=0, max_value=100,
                                    allow_nan=False)),
                min_size=1, max_size=50))
def test_time_weighted_mean_bounded_by_levels(steps):
    tw = TimeWeightedStat()
    now = 0.0
    levels = [0.0]
    for dt, level in steps:
        now += dt
        tw.record(now, level)
        levels.append(level)
    mean = tw.mean(now + 1.0)
    assert min(levels) - 1e-9 <= mean <= max(levels) + 1e-9


# ---------------------------------------------------------------------------
# ReplicationSummary
# ---------------------------------------------------------------------------

def test_replication_summary():
    rep = ReplicationSummary()
    for value in (10.0, 12.0, 11.0, 9.0):
        rep.add_replication(value)
    ci = rep.interval()
    assert ci.mean == pytest.approx(10.5)
    assert ci.n == 4
    assert len(rep.replications) == 4


def test_replication_single_run_zero_half_width():
    rep = ReplicationSummary()
    rep.add_replication(5.0)
    assert rep.interval().half_width == 0.0


def test_replication_interval_memoised_per_confidence():
    rep = ReplicationSummary()
    for value in (1.0, 2.0, 3.0):
        rep.add_replication(value)
    first = rep.interval(0.95)
    assert rep.interval(0.95) is first          # cached object returned
    other = rep.interval(0.99)
    assert other is not first
    assert other.half_width > first.half_width  # wider at 99%
    rep.add_replication(4.0)                    # invalidates the cache
    refreshed = rep.interval(0.95)
    assert refreshed is not first
    assert refreshed.n == 4


# ---------------------------------------------------------------------------
# Student-t quantile
# ---------------------------------------------------------------------------

PARITY_CONFIDENCES = (0.5, 0.8, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999)


def reference_quantile(confidence, df):
    return float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df))


def test_t_quantile_matches_reference_up_to_1000_df():
    for df in range(1, 1001):
        for confidence in PARITY_CONFIDENCES:
            expected = reference_quantile(confidence, df)
            assert t_quantile(confidence, df) == pytest.approx(
                expected, rel=1e-11), (confidence, df)


@pytest.mark.parametrize("df", [5000, 1e5, 1e6])
def test_t_quantile_matches_reference_at_large_df(df):
    for confidence in PARITY_CONFIDENCES:
        assert t_quantile(confidence, df) == pytest.approx(
            reference_quantile(confidence, df), rel=1e-9), confidence


@pytest.mark.parametrize("confidence", PARITY_CONFIDENCES)
def test_t_quantile_closed_forms(confidence):
    assert t_quantile(confidence, 1) == math.tan(math.pi * confidence / 2.0)
    assert t_quantile(confidence, 2) == confidence * math.sqrt(
        2.0 / ((1.0 - confidence) * (1.0 + confidence)))


def test_t_quantile_accepts_fractional_df():
    for df in (1.5, 2.5, 7.25):
        assert t_quantile(0.95, df) == pytest.approx(
            reference_quantile(0.95, df), rel=1e-11)


@pytest.mark.parametrize("confidence", [0.0, 1.0, -0.1, 1.5, math.nan])
def test_t_quantile_rejects_bad_confidence(confidence):
    with pytest.raises(ValueError, match="confidence"):
        t_quantile(confidence, 5)


@pytest.mark.parametrize("df", [0, 0.5, -3, math.nan, math.inf])
def test_t_quantile_rejects_bad_df(df):
    with pytest.raises(ValueError, match="degrees of freedom"):
        t_quantile(0.95, df)


@pytest.mark.parametrize("confidence", [0.0, 1.0, 1.2, 1.5, -0.5])
def test_interval_entry_points_reject_bad_confidence(confidence):
    """A bad confidence raises instead of giving a NaN or zero-width CI."""
    values = [1.0, 2.0, 4.0, 3.0]
    stat = RunningStat()
    stat.extend(values)
    summary = ReplicationSummary()
    for value in values:
        summary.add_replication(value)
    calls = [
        lambda: stat.interval(confidence),
        lambda: RunningStat().interval(confidence),
        lambda: summary.interval(confidence),
        lambda: paired_difference(values, values[::-1], confidence),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"confidence must be in \(0, 1\)"):
            call()


# ---------------------------------------------------------------------------
# RandomStreams
# ---------------------------------------------------------------------------

def test_same_seed_same_draws():
    a = RandomStreams(seed=42).stream("arrivals")
    b = RandomStreams(seed=42).stream("arrivals")
    assert list(a.random(5)) == list(b.random(5))


def test_different_names_independent():
    streams = RandomStreams(seed=1)
    a = streams.stream("a").random(5)
    b = streams.stream("b").random(5)
    assert list(a) != list(b)


def test_stream_cached_by_name():
    streams = RandomStreams(seed=0)
    assert streams.stream("x") is streams.stream("x")


def test_creation_order_does_not_matter():
    one = RandomStreams(seed=9)
    one.stream("first")
    draws_one = one.stream("second").random(3)
    two = RandomStreams(seed=9)
    draws_two = two.stream("second").random(3)
    assert list(draws_one) == list(draws_two)


def test_exponential_sampler_mean():
    sampler = RandomStreams(seed=3).exponential("iat", rate=4.0)
    draws = [sampler() for _ in range(20000)]
    assert np.mean(draws) == pytest.approx(0.25, rel=0.05)


def test_exponential_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        RandomStreams(seed=0).exponential("x", rate=0.0)


def test_uniform_int_bounds():
    sampler = RandomStreams(seed=5).uniform_int("locks", 10, 20)
    draws = [sampler() for _ in range(1000)]
    assert min(draws) >= 10 and max(draws) < 20


def test_uniform_int_rejects_empty_range():
    with pytest.raises(ValueError):
        RandomStreams(seed=0).uniform_int("x", 5, 5)


def test_uniform_int_vector_sample():
    sampler = RandomStreams(seed=5).uniform_int("locks", 0, 100)
    vec = sampler.sample(50)
    assert vec.shape == (50,)
    assert vec.min() >= 0 and vec.max() < 100


def test_spawn_independent_child():
    parent = RandomStreams(seed=11)
    child = parent.spawn("rep-1")
    a = parent.stream("arrivals").random(4)
    b = child.stream("arrivals").random(4)
    assert list(a) != list(b)


def test_spawn_reproducible():
    a = RandomStreams(seed=11).spawn("rep-1").stream("s").random(4)
    b = RandomStreams(seed=11).spawn("rep-1").stream("s").random(4)
    assert list(a) == list(b)
