"""Tests for parallel execution, result caching and their determinism.

The contract under test: fanning simulations over a process pool and/or
satisfying them from the content-addressed cache produces results
**bit-identical** to a serial, uncached run (common random numbers
preserved: replication ``r`` always uses ``base_seed + r``).
"""

import pickle
from dataclasses import replace

import pytest

from repro.experiments import (
    JobSpec,
    ParallelRunner,
    ResultCache,
    RunSettings,
    ThresholdStrategy,
    run_curve,
    run_curve_set,
    run_point,
)
from repro.experiments.cache import CACHE_VERSION
from repro.experiments.figures import figure_4_4
from repro.experiments.parallel import (
    default_workers,
    execute_job,
    strategy_cache_key,
)
from repro.experiments.sensitivity import (
    SENSITIVITY_SETTINGS,
    sweep_parameter,
)
from repro.hybrid.config import paper_config

#: Short horizon: these tests assert equality, not statistical quality.
FAST = RunSettings(warmup_time=3.0, measure_time=8.0)
FAST2 = RunSettings(warmup_time=3.0, measure_time=8.0, replications=2)


# ---------------------------------------------------------------------------
# Determinism: parallel == serial, field for field
# ---------------------------------------------------------------------------

def test_run_curve_parallel_matches_serial_exactly():
    serial = run_curve("queue-length", [5.0, 12.0], settings=FAST2,
                       workers=1)
    parallel = run_curve("queue-length", [5.0, 12.0], settings=FAST2,
                         workers=4)
    assert serial.label == parallel.label
    for point_s, point_p in zip(serial.points, parallel.points):
        # Frozen dataclasses compare field-for-field, including the
        # full replication tuples (SimulationResult is a dataclass too).
        assert point_s == point_p
    assert serial == parallel


def test_run_point_parallel_replications_match_serial():
    serial = run_point("min-average-population", 10.0, settings=FAST2,
                       workers=1)
    parallel = run_point("min-average-population", 10.0, settings=FAST2,
                         workers=2)
    assert serial == parallel
    assert len(parallel.replications) == 2
    # Common random numbers: the two replications used distinct seeds.
    seeds = {r.seed for r in parallel.replications}
    assert seeds == {FAST2.base_seed, FAST2.base_seed + 1}


def test_run_curve_set_batches_multiple_strategies():
    serial = run_curve_set(
        [("none", "baseline", [6.0]), ("queue-length", "B", [6.0])],
        settings=FAST, workers=1)
    parallel = run_curve_set(
        [("none", "baseline", [6.0]), ("queue-length", "B", [6.0])],
        settings=FAST, workers=3)
    assert serial == parallel
    assert [curve.label for curve in parallel] == ["baseline", "B"]


@pytest.mark.slow
def test_figure_4_4_parallel_matches_serial():
    tiny = RunSettings(warmup_time=2.0, measure_time=5.0)
    thresholds = (0.0, -0.2)
    serial = figure_4_4(tiny, thresholds=thresholds, workers=1)
    parallel = figure_4_4(tiny, thresholds=thresholds, workers=2)
    assert serial.curves == parallel.curves


def test_sensitivity_sweep_parallel_matches_serial():
    tiny = replace(SENSITIVITY_SETTINGS, warmup_time=2.0, measure_time=6.0)
    serial = sweep_parameter("comm_delay", [0.2, 0.5], total_rate=8.0,
                             settings=tiny, workers=1)
    parallel = sweep_parameter("comm_delay", [0.2, 0.5], total_rate=8.0,
                               settings=tiny, workers=4)
    assert serial == parallel


# ---------------------------------------------------------------------------
# ParallelRunner mechanics
# ---------------------------------------------------------------------------

def test_default_workers_positive():
    assert default_workers() >= 1


def test_runner_rejects_negative_workers():
    with pytest.raises(ValueError):
        ParallelRunner(workers=-1)


def test_runner_auto_detect_on_zero_or_none():
    assert ParallelRunner(workers=0).workers == default_workers()
    assert ParallelRunner(workers=None).workers == default_workers()


def test_unpicklable_strategy_falls_back_to_serial_execution():
    captured = []

    def closure_strategy(config):  # a closure: not picklable
        from repro.core.router import AlwaysLocalRouter

        captured.append(config.seed)
        return lambda c, i: AlwaysLocalRouter()

    config = paper_config(total_rate=6.0, warmup_time=2.0,
                          measure_time=5.0, seed=1234)
    specs = [JobSpec(strategy=closure_strategy, config=config),
             JobSpec(strategy=closure_strategy,
                     config=config.with_options(seed=1235))]
    results = ParallelRunner(workers=4).run_jobs(specs)
    assert len(results) == 2
    assert [r.seed for r in results] == [1234, 1235]
    assert captured == [1234, 1235]  # executed in-process, in order


def test_execute_job_resolves_registry_names():
    config = paper_config(total_rate=6.0, warmup_time=2.0,
                          measure_time=5.0, seed=77)
    result = execute_job(JobSpec(strategy="none", config=config))
    assert result.strategy == "no-load-sharing"
    assert result.seed == 77


def test_job_spec_is_picklable_with_threshold_strategy():
    config = paper_config(total_rate=6.0, seed=9)
    spec = JobSpec(strategy=ThresholdStrategy(-0.2), config=config)
    clone = pickle.loads(pickle.dumps(spec))
    assert clone.strategy.threshold == -0.2
    assert clone.config == config


def test_unknown_strategy_name_raises_key_error():
    with pytest.raises(KeyError):
        run_point("no-such-strategy", 8.0, settings=FAST, workers=4)


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------

def test_cache_hit_returns_equal_result(tmp_path):
    cache = ResultCache(tmp_path)
    fresh = run_point("none", 8.0, settings=FAST, cache=cache)
    assert cache.hits == 0 and cache.misses == 1
    cached = run_point("none", 8.0, settings=FAST, cache=cache)
    assert cache.hits == 1
    assert cached == fresh


def test_cache_shared_across_parallel_and_serial(tmp_path):
    cache = ResultCache(tmp_path)
    serial = run_curve("queue-length", [5.0, 12.0], settings=FAST2,
                       workers=1, cache=cache)
    assert cache.misses == 4 and cache.hits == 0
    parallel = run_curve("queue-length", [5.0, 12.0], settings=FAST2,
                         workers=4, cache=cache)
    assert cache.hits == 4  # every job satisfied from disk
    assert serial == parallel


def test_cache_distinguishes_configs_and_strategies(tmp_path):
    cache = ResultCache(tmp_path)
    run_point("none", 8.0, settings=FAST, cache=cache)
    run_point("none", 9.0, settings=FAST, cache=cache)        # other rate
    run_point("queue-length", 8.0, settings=FAST, cache=cache)  # other strat
    assert cache.hits == 0 and cache.misses == 3
    assert len(cache) == 3


def test_cache_key_depends_on_seed_and_version():
    config = paper_config(total_rate=8.0, seed=1)
    other_seed = paper_config(total_rate=8.0, seed=2)
    key1 = ResultCache.key_for(config, "name:none")
    assert key1 == ResultCache.key_for(config, "name:none")
    assert key1 != ResultCache.key_for(other_seed, "name:none")
    assert key1 != ResultCache.key_for(config, "name:queue-length")
    assert isinstance(CACHE_VERSION, int)


def test_anonymous_strategies_are_never_cached(tmp_path):
    cache = ResultCache(tmp_path)

    def closure_strategy(config):
        from repro.core.router import AlwaysLocalRouter

        return lambda c, i: AlwaysLocalRouter()

    assert strategy_cache_key(closure_strategy) is None
    run_point(closure_strategy, 8.0, settings=FAST, cache=cache)
    assert cache.hits == 0 and cache.misses == 0
    assert len(cache) == 0


def test_threshold_strategy_has_stable_cache_key(tmp_path):
    key = strategy_cache_key(ThresholdStrategy(-0.2))
    assert key == strategy_cache_key(ThresholdStrategy(-0.2))
    assert key != strategy_cache_key(ThresholdStrategy(-0.3))
    cache = ResultCache(tmp_path)
    first = run_point(ThresholdStrategy(-0.2), 8.0, settings=FAST,
                      cache=cache)
    second = run_point(ThresholdStrategy(-0.2), 8.0, settings=FAST,
                       cache=cache)
    assert cache.hits == 1
    assert first == second


def test_corrupt_cache_entry_treated_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    fresh = run_point("none", 8.0, settings=FAST, cache=cache)
    entry = next(cache.root.glob("*.pkl"))
    entry.write_bytes(b"not a pickle")
    again = run_point("none", 8.0, settings=FAST, cache=cache)
    assert cache.misses == 2 and cache.hits == 0
    assert again == fresh


def test_cache_clear_removes_entries(tmp_path):
    cache = ResultCache(tmp_path)
    run_point("none", 8.0, settings=FAST, cache=cache)
    assert len(cache) == 1
    assert cache.clear() == 1
    assert len(cache) == 0


def test_cache_stats_line(tmp_path):
    cache = ResultCache(tmp_path)
    run_point("none", 8.0, settings=FAST, cache=cache)
    line = cache.stats()
    assert "0 hit(s)" in line and "1 miss(es)" in line


# ---------------------------------------------------------------------------
# Guards (satellite: replications <= 0 must fail clearly)
# ---------------------------------------------------------------------------

def test_run_settings_rejects_zero_replications():
    with pytest.raises(ValueError, match="replications"):
        RunSettings(replications=0)


def test_run_settings_rejects_negative_replications():
    with pytest.raises(ValueError, match="replications"):
        RunSettings(replications=-3)


def test_run_settings_rejects_non_positive_scale():
    with pytest.raises(ValueError, match="scale"):
        RunSettings(scale=0.0)


def test_average_of_empty_list_raises_value_error():
    from repro.experiments.runner import _average

    with pytest.raises(ValueError, match="replications"):
        _average([])
