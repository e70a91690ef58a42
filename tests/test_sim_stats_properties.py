"""Property-based tests for the output-analysis statistics.

Hypothesis drives :mod:`repro.sim.stats` through adversarial
observation streams: empty and singleton streams, merge
commutativity/equivalence of :class:`RunningStat`, the bounding and
ordering invariants of the exact percentile summary, and the Student-t
quantile against the reference implementation, its ordering in
confidence and df, and its normal limit.
"""

import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from repro.sim.stats import (
    RunningStat,
    TimeWeightedStat,
    percentile_summary,
    t_quantile,
)

finite = st.floats(min_value=-1e9, max_value=1e9,
                   allow_nan=False, allow_infinity=False, width=64)
streams = st.lists(finite, max_size=200)


def stat_of(values):
    stat = RunningStat()
    stat.extend(values)
    return stat


def assert_stats_equal(a, b):
    assert a.count == b.count
    for prop in ("mean", "variance", "minimum", "maximum"):
        left, right = getattr(a, prop), getattr(b, prop)
        if math.isnan(left) or math.isnan(right):
            assert math.isnan(left) and math.isnan(right)
        else:
            assert left == pytest.approx(right, rel=1e-9, abs=1e-6)


# -- RunningStat --------------------------------------------------------------

def test_empty_stat_is_nan():
    stat = RunningStat()
    assert stat.count == 0
    assert math.isnan(stat.mean)
    assert math.isnan(stat.variance)
    assert math.isnan(stat.minimum)
    assert math.isnan(stat.maximum)
    assert stat.interval().half_width == 0.0


@given(finite)
def test_singleton_stat(value):
    stat = stat_of([value])
    assert stat.count == 1
    assert stat.mean == value
    assert stat.minimum == value == stat.maximum
    assert math.isnan(stat.variance)
    # One observation carries no variance information.
    assert stat.interval().half_width == 0.0


@given(st.lists(finite, min_size=1, max_size=200))
def test_stat_matches_naive_formulas(values):
    stat = stat_of(values)
    assert stat.count == len(values)
    assert stat.mean == pytest.approx(sum(values) / len(values),
                                      rel=1e-9, abs=1e-6)
    assert stat.minimum == min(values)
    assert stat.maximum == max(values)
    if len(values) >= 2 and not math.isnan(stat.variance):
        assert stat.variance >= -1e-9


@given(streams, streams)
@settings(max_examples=60)
def test_merge_is_commutative(left_values, right_values):
    left, right = stat_of(left_values), stat_of(right_values)
    assert_stats_equal(left.merge(right), right.merge(left))


@given(streams, streams)
@settings(max_examples=60)
def test_merge_equals_sequential(left_values, right_values):
    merged = stat_of(left_values).merge(stat_of(right_values))
    sequential = stat_of(left_values + right_values)
    assert_stats_equal(merged, sequential)


@given(streams)
def test_merge_with_empty_is_identity(values):
    stat = stat_of(values)
    assert_stats_equal(stat.merge(RunningStat()), stat)
    assert_stats_equal(RunningStat().merge(stat), stat)


# -- TimeWeightedStat ---------------------------------------------------------

@given(st.lists(st.tuples(st.floats(min_value=0.001, max_value=10.0,
                                    allow_nan=False),
                          st.floats(min_value=0.0, max_value=1e6,
                                    allow_nan=False)),
                min_size=1, max_size=50))
def test_time_weighted_mean_matches_manual_integral(steps):
    stat = TimeWeightedStat()
    now, integral, level = 0.0, 0.0, 0.0
    for duration, new_level in steps:
        integral += level * duration
        now += duration
        stat.record(now, new_level)
        level = new_level
    end = now + 1.0
    integral += level * 1.0
    assert stat.mean(end) == pytest.approx(integral / end,
                                           rel=1e-9, abs=1e-6)
    assert stat.peak == max([0.0] + [lvl for _, lvl in steps])


def test_time_weighted_rejects_backwards_time():
    stat = TimeWeightedStat()
    stat.record(2.0, 1.0)
    with pytest.raises(ValueError):
        stat.record(1.0, 2.0)


# -- percentiles ---------------------------------------------------------------

PERCENTILE_KEYS = ("p50", "p90", "p95", "p99")


def test_percentile_summary_empty_is_nan():
    summary = percentile_summary([])
    assert set(summary) == {*PERCENTILE_KEYS, "min", "max"}
    assert all(math.isnan(value) for value in summary.values())


@given(st.lists(finite, min_size=1, max_size=300))
def test_quantile_estimates_bounded_by_extremes(values):
    summary = percentile_summary(values)
    assert summary["min"] == min(values)
    assert summary["max"] == max(values)
    for key in PERCENTILE_KEYS:
        assert summary["min"] <= summary[key] <= summary["max"]


@given(st.lists(finite, min_size=1, max_size=300))
def test_percentiles_equal_numpy(values):
    summary = percentile_summary(values)
    expected = np.percentile(values, [50, 90, 95, 99])
    assert [summary[key] for key in PERCENTILE_KEYS] == expected.tolist()


@given(st.lists(finite, min_size=1, max_size=300))
def test_percentiles_monotone_in_p(values):
    summary = percentile_summary(values)
    assert summary["p50"] <= summary["p90"] <= summary["p95"] \
        <= summary["p99"]


@given(finite, st.integers(min_value=1, max_value=100))
def test_constant_stream_estimates_the_constant(value, n):
    summary = percentile_summary([value] * n)
    assert set(summary.values()) == {value}


# -- Student-t quantile --------------------------------------------------------

confidences = st.floats(min_value=1e-3, max_value=0.9999)
dfs = st.integers(min_value=1, max_value=10**6)


@given(confidences, st.floats(min_value=1.0, max_value=1e6))
@settings(max_examples=300)
def test_t_quantile_matches_reference(confidence, df):
    expected = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df))
    assert t_quantile(confidence, df) == pytest.approx(expected, rel=1e-9)


@given(confidences, st.floats(min_value=1e-6, max_value=0.5), dfs)
def test_t_quantile_increases_with_confidence(confidence, gap, df):
    higher = confidence + gap
    assume(higher < 0.9999)
    assert t_quantile(confidence, df) < t_quantile(higher, df)


@given(confidences, dfs, st.integers(min_value=1, max_value=10**5))
def test_t_quantile_decreases_with_df(confidence, df, gap):
    assert t_quantile(confidence, df) > t_quantile(confidence, df + gap)


@given(confidences, st.integers(min_value=100, max_value=10**7))
def test_t_quantile_approaches_normal(confidence, df):
    # Heavier tails than the normal, by the leading Cornish-Fisher term.
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    excess = t_quantile(confidence, df) - z
    assert 0.0 < excess <= 2.0 * z * (z * z + 1.0) / (4.0 * df)
