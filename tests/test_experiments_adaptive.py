"""Tests for adaptive replication control (precision-targeted runs).

The contracts under test:

* **adaptive == fixed determinism** -- an adaptive run whose precision
  target is unreachable (``rel_precision=0.0``) runs every point to the
  cap and must reproduce the fixed ``replications=cap`` grid
  field-for-field, serially and over a process pool, and must produce
  identical cache entries;
* **cache fast-forward** -- replications already simulated by an
  earlier fixed-grid run are reused (counted as cache hits), never
  re-simulated;
* **early stopping** -- a loose target stops at ``min_replications``,
  an unreachable one runs to ``max_replications``, and every converged
  point's relative half-width is within the target.
"""

from dataclasses import replace

import pytest

from repro.experiments import (
    PrecisionSettings,
    ResultCache,
    RunSettings,
    run_adaptive_curve_set,
    run_curve,
    run_curve_set,
    run_point,
)
from repro.experiments.figures import figure_4_1
from repro.experiments.sensitivity import (
    SENSITIVITY_SETTINGS,
    sweep_parameter,
)

#: Short horizon: these tests assert scheduling behaviour and equality,
#: not statistical quality.
FAST = dict(warmup_time=3.0, measure_time=8.0)

#: Cap-equals-fixed pairing used by the determinism tests.
FIXED3 = RunSettings(replications=3, **FAST)
CAPPED3 = PrecisionSettings(rel_precision=0.0, min_replications=2,
                            max_replications=3, **FAST)


# ---------------------------------------------------------------------------
# PrecisionSettings validation
# ---------------------------------------------------------------------------

def test_precision_settings_defaults_valid():
    settings = PrecisionSettings()
    assert settings.rel_precision == 0.05
    assert settings.confidence == 0.95
    assert settings.min_replications == 2
    # Raised from 16 in PR 9: at the old cap of 4 in the adaptive
    # benchmark, 4/49 knee points ran out of budget unconverged; the
    # default cap now leaves precision headroom past the knee.
    assert settings.max_replications == 24


def test_precision_settings_rejects_negative_precision():
    with pytest.raises(ValueError, match="rel_precision"):
        PrecisionSettings(rel_precision=-0.1)


def test_precision_settings_rejects_bad_confidence():
    with pytest.raises(ValueError, match="confidence"):
        PrecisionSettings(confidence=1.0)
    with pytest.raises(ValueError, match="confidence"):
        PrecisionSettings(confidence=0.0)


def test_precision_settings_rejects_min_below_two():
    with pytest.raises(ValueError, match="min_replications"):
        PrecisionSettings(min_replications=1)


def test_precision_settings_rejects_cap_below_min():
    with pytest.raises(ValueError, match="max_replications"):
        PrecisionSettings(min_replications=4, max_replications=3)


def test_precision_settings_rejects_bad_round_size():
    with pytest.raises(ValueError, match="round_size"):
        PrecisionSettings(round_size=0)


def test_fixed_equivalent_mirrors_cap():
    settings = PrecisionSettings(max_replications=5, scale=0.5,
                                 base_seed=99, **FAST)
    fixed = settings.fixed_equivalent()
    assert isinstance(fixed, RunSettings)
    assert not isinstance(fixed, PrecisionSettings)
    assert fixed.replications == 5
    assert fixed.base_seed == 99
    assert fixed.scale == 0.5


def test_scaled_preserves_precision_settings():
    scaled = PrecisionSettings(rel_precision=0.1).scaled(0.5)
    assert isinstance(scaled, PrecisionSettings)
    assert scaled.rel_precision == 0.1
    assert scaled.scale == 0.5


# ---------------------------------------------------------------------------
# Determinism: adaptive (cap == N, unreachable target) == fixed (N)
# ---------------------------------------------------------------------------

def test_adaptive_capped_equals_fixed_serial():
    fixed = run_curve("queue-length", [5.0, 12.0], settings=FIXED3,
                      workers=1)
    adaptive = run_curve("queue-length", [5.0, 12.0], settings=CAPPED3,
                         workers=1)
    for point_f, point_a in zip(fixed.points, adaptive.points):
        assert point_f == point_a  # field-for-field, replications included
    assert fixed == adaptive


def test_adaptive_capped_equals_fixed_with_workers():
    fixed = run_curve("queue-length", [5.0, 12.0], settings=FIXED3,
                      workers=2)
    adaptive = run_curve("queue-length", [5.0, 12.0], settings=CAPPED3,
                         workers=2)
    assert fixed == adaptive


def test_adaptive_curve_set_capped_equals_fixed():
    entries = [("none", "baseline", [6.0]), ("queue-length", "B", [6.0])]
    fixed = run_curve_set(entries, settings=FIXED3)
    adaptive = run_curve_set(entries, settings=CAPPED3)
    assert fixed == adaptive


def test_adaptive_run_is_bit_reproducible():
    settings = PrecisionSettings(rel_precision=0.3, min_replications=2,
                                 max_replications=5, **FAST)
    first = run_curve("queue-length", [5.0, 12.0], settings=settings)
    second = run_curve("queue-length", [5.0, 12.0], settings=settings)
    assert first == second


def test_adaptive_replication_seeds_follow_base_seed():
    point = run_point("min-average-population", 10.0, settings=CAPPED3)
    seeds = [r.seed for r in point.replications]
    assert seeds == [CAPPED3.base_seed + r for r in range(3)]


@pytest.mark.slow
def test_adaptive_figure_capped_equals_fixed():
    tiny_fixed = RunSettings(warmup_time=2.0, measure_time=5.0,
                             replications=2)
    tiny_adaptive = PrecisionSettings(warmup_time=2.0, measure_time=5.0,
                                      rel_precision=0.0,
                                      min_replications=2,
                                      max_replications=2)
    fixed = figure_4_1(tiny_fixed)
    adaptive = figure_4_1(tiny_adaptive)
    assert fixed.curves == adaptive.curves


# ---------------------------------------------------------------------------
# Cache interaction: fast-forward and identical entries
# ---------------------------------------------------------------------------

def test_adaptive_reuses_fixed_grid_cache_entries(tmp_path):
    cache = ResultCache(tmp_path)
    fixed = run_curve("queue-length", [5.0, 12.0], settings=FIXED3,
                      cache=cache)
    assert cache.misses == 6 and cache.hits == 0
    adaptive = run_curve("queue-length", [5.0, 12.0], settings=CAPPED3,
                         cache=cache)
    # Every adaptive replication was fast-forwarded from the fixed run.
    assert cache.hits == 6
    assert cache.misses == 6  # unchanged: nothing re-simulated
    assert len(cache) == 6    # and no new entries written
    assert fixed == adaptive


def test_adaptive_writes_same_cache_keys_as_fixed(tmp_path):
    fixed_cache = ResultCache(tmp_path / "fixed")
    adaptive_cache = ResultCache(tmp_path / "adaptive")
    run_curve("queue-length", [5.0, 12.0], settings=FIXED3,
              cache=fixed_cache)
    run_curve("queue-length", [5.0, 12.0], settings=CAPPED3,
              cache=adaptive_cache)
    fixed_keys = sorted(p.name for p in fixed_cache.root.glob("*.pkl"))
    adaptive_keys = sorted(p.name
                           for p in adaptive_cache.root.glob("*.pkl"))
    assert fixed_keys == adaptive_keys
    for name in fixed_keys:  # byte-identical payloads, entry by entry
        assert ((fixed_cache.root / name).read_bytes() ==
                (adaptive_cache.root / name).read_bytes())


def test_adaptive_report_counts_cache_fast_forward(tmp_path):
    cache = ResultCache(tmp_path)
    entries = [("queue-length", "B", [5.0, 12.0])]
    first = run_adaptive_curve_set(entries, settings=CAPPED3, cache=cache)
    assert first.report.replications_cached == 0
    assert first.report.replications_executed == 6
    second = run_adaptive_curve_set(entries, settings=CAPPED3, cache=cache)
    assert second.report.replications_cached == 6
    assert second.report.replications_executed == 0
    assert second.curves == first.curves


# ---------------------------------------------------------------------------
# Stopping rule
# ---------------------------------------------------------------------------

def test_loose_target_stops_at_min_replications():
    settings = PrecisionSettings(rel_precision=10.0, min_replications=2,
                                 max_replications=8, **FAST)
    point = run_point("none", 8.0, settings=settings)
    assert point.n_replications == 2
    assert point.rt_relative_half_width <= 10.0


def test_unreachable_target_runs_to_cap():
    point = run_point("none", 8.0, settings=CAPPED3)
    assert point.n_replications == 3


def test_converged_points_meet_target_others_hit_cap():
    settings = PrecisionSettings(rel_precision=0.25, min_replications=2,
                                 max_replications=6, **FAST)
    outcome = run_adaptive_curve_set(
        [("queue-length", "B", [5.0, 12.0]),
         ("none", "baseline", [8.0])], settings=settings)
    assert outcome.report.n_points == 3
    assert outcome.report.replications_total == sum(
        p.n_replications for p in outcome.report.points)
    for point in outcome.report.points:
        if point.converged:
            assert point.relative_half_width <= settings.rel_precision
        else:
            assert point.n_replications == settings.max_replications
        assert settings.min_replications <= point.n_replications \
            <= settings.max_replications


def test_adaptive_saves_replications_versus_fixed_grid():
    settings = PrecisionSettings(rel_precision=1.0, min_replications=2,
                                 max_replications=6, **FAST)
    outcome = run_adaptive_curve_set(
        [("queue-length", "B", [5.0, 12.0])], settings=settings)
    assert outcome.report.fixed_grid_replications == 12
    assert outcome.report.replications_total < 12
    assert outcome.report.replications_saved > 0
    assert "adaptive:" in outcome.report.summary()


# ---------------------------------------------------------------------------
# Achieved-precision fields on CurvePoint
# ---------------------------------------------------------------------------

def test_curve_point_precision_fields_populated():
    point = run_point("none", 8.0, settings=CAPPED3)
    assert point.rt_interval is not None
    assert point.rt_interval.n == 3
    assert point.rt_half_width >= 0.0
    assert point.rt_relative_half_width >= 0.0
    # The memoised interval is returned as-is at matching confidence.
    assert point.response_time_interval(0.95) is point.rt_interval
    # Other confidence levels are computed on demand.
    wider = point.response_time_interval(0.99)
    assert wider.confidence == 0.99
    assert wider.half_width >= point.rt_half_width


def test_fixed_grid_points_also_carry_precision_fields():
    point = run_point("none", 8.0,
                      settings=RunSettings(replications=2, **FAST))
    assert point.n_replications == 2
    assert point.rt_interval is not None
    assert point.response_time_interval() is point.rt_interval


# ---------------------------------------------------------------------------
# Sensitivity sweep in adaptive mode
# ---------------------------------------------------------------------------

def test_sensitivity_sweep_adaptive_mode():
    settings = PrecisionSettings(rel_precision=0.5, min_replications=2,
                                 max_replications=4)
    sweep = sweep_parameter("comm_delay", [0.2], total_rate=8.0,
                            settings=replace(settings, base_seed=11_011,
                                             warmup_time=2.0,
                                             measure_time=6.0))
    point = sweep.points[0]
    for name in ("none", "static-optimal", "min-average-population"):
        assert 2 <= point.replication_counts[name] <= 4
        assert point.rt_half_widths[name] >= 0.0
        assert point.response_times[name] > 0.0


def test_sensitivity_sweep_default_unchanged():
    sweep = sweep_parameter("comm_delay", [0.2], total_rate=8.0,
                            settings=replace(SENSITIVITY_SETTINGS,
                                             warmup_time=2.0,
                                             measure_time=6.0))
    point = sweep.points[0]
    assert point.replication_counts == {}
    assert point.rt_half_widths == {}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_cli_adaptive_figure(capsys):
    from repro.experiments.cli import main

    assert main(["--figure", "4.1", "--scale", "0.05",
                 "--precision", "0.5", "--max-replications", "3"]) == 0
    out = capsys.readouterr().out
    assert "[adaptive:" in out
    assert "replications per point:" in out


def test_cli_rejects_non_positive_precision(capsys):
    from repro.experiments.cli import main

    assert main(["--figure", "4.1", "--precision", "0"]) == 2
    assert main(["--figure", "4.1", "--precision", "-0.1"]) == 2


def test_cli_rejects_tiny_cap(capsys):
    from repro.experiments.cli import main

    assert main(["--figure", "4.1", "--precision", "0.1",
                 "--max-replications", "1"]) == 2


def test_cli_rejects_initial_batch_above_cap(capsys):
    from repro.experiments.cli import main

    assert main(["--figure", "4.1", "--precision", "0.1",
                 "--replications", "5", "--max-replications", "3"]) == 2
