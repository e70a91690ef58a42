"""Unit tests for the metrics registry (counters/gauges/histograms)."""

import math

import pytest

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter()
        assert counter.value == 0
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_registry_counter_single_child(self):
        registry = MetricsRegistry()
        family = registry.counter("requests", "total requests")
        family.single.inc(3)
        assert registry.snapshot() == {"requests": 3}

    def test_labeled_children_are_cached(self):
        registry = MetricsRegistry()
        family = registry.counter("hits", "hits", labels=("site",))
        assert family.labels("0") is family.labels("0")
        family.labels("0").inc()
        family.labels("1").inc(2)
        assert family.total() == 3
        assert registry.snapshot() == {"hits{site=0}": 1,
                                       "hits{site=1}": 2}


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge()
        gauge.set(10.0)
        gauge.add(-3.0)
        assert gauge.value == 7.0

    def test_registry_gauge(self):
        registry = MetricsRegistry()
        registry.gauge("depth", "queue depth").single.set(42)
        assert registry.snapshot()["depth"] == 42


class TestHistogram:
    def test_summary_statistics(self):
        hist = Histogram()
        for value in (1.0, 2.0, 3.0, 4.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.total == 10.0
        assert hist.minimum == 1.0
        assert hist.maximum == 4.0
        assert hist.mean == 2.5

    def test_negative_observation_rejected(self):
        with pytest.raises(ValueError):
            Histogram().observe(-0.1)

    def test_zero_goes_to_dedicated_bucket(self):
        hist = Histogram()
        hist.observe(0.0)
        assert hist.buckets[None] == 1

    def test_log_buckets_group_by_power_of_two(self):
        hist = Histogram()
        # 1.0 and 1.5 share an exponent bucket; 2.5 is one up.
        hist.observe(1.0)
        hist.observe(1.5)
        hist.observe(2.5)
        exponents = {exponent for exponent in hist.buckets}
        assert len(exponents) == 2

    def test_quantile_accuracy_within_bucket_factor(self):
        hist = Histogram()
        for i in range(1, 1001):
            hist.observe(i / 100.0)  # 0.01 .. 10.0
        estimate = hist.quantile(0.5)
        # Log-bucketed: correct to within the factor-2 bucket width.
        assert 2.5 <= estimate <= 10.0
        assert hist.quantile(0.0) <= hist.quantile(1.0)

    def test_empty_quantile_is_zero(self):
        assert Histogram().quantile(0.5) == 0.0

    def test_summary_keys(self):
        hist = Histogram()
        hist.observe(1.0)
        summary = hist.summary()
        for key in ("count", "mean", "min", "max", "p50", "p99"):
            assert key in summary


class TestRegistry:
    def test_redeclaration_same_shape_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("c", "help", labels=("a",))
        again = registry.counter("c", "help", labels=("a",))
        assert first is again

    def test_redeclaration_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("c", "help", labels=("a",))
        with pytest.raises(ValueError):
            registry.counter("c", "help", labels=("b",))
        with pytest.raises(ValueError):
            registry.gauge("c", "help", labels=("a",))

    def test_contains_and_get(self):
        registry = MetricsRegistry()
        registry.counter("c", "help")
        assert "c" in registry
        assert "missing" not in registry
        assert registry.get("c") is not None
        assert registry.get("missing") is None

    def test_snapshot_is_sorted_and_flat(self):
        registry = MetricsRegistry()
        registry.counter("z", "z").single.inc()
        registry.counter("a", "a").single.inc()
        hist = registry.histogram("h", "h").single
        hist.observe(2.0)
        snapshot = registry.snapshot()
        assert list(snapshot) == sorted(snapshot)
        assert snapshot["h_count"] == 1
        assert snapshot["h_sum"] == 2.0
        assert snapshot["h_min"] == 2.0
        assert snapshot["h_max"] == 2.0

    def test_snapshot_rounds_histogram_sums(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", "h").single
        for _ in range(10):
            hist.observe(0.1)
        assert registry.snapshot()["h_sum"] == 1.0

    def test_totals_collapses_labels(self):
        registry = MetricsRegistry()
        family = registry.counter("c", "c", labels=("k",))
        family.labels("x").inc(2)
        family.labels("y").inc(3)
        assert registry.totals()["c"] == 5

    def test_const_labels_appear_in_keys(self):
        registry = MetricsRegistry(run="7")
        registry.counter("c", "c").single.inc()
        assert "run=7" in next(iter(registry.snapshot()))


def test_determinism_same_operations_same_snapshot():
    def build():
        registry = MetricsRegistry()
        family = registry.counter("c", "c", labels=("k",))
        for i in range(20):
            family.labels(str(i % 3)).inc(i)
        hist = registry.histogram("h", "h").single
        for i in range(1, 50):
            hist.observe(math.sqrt(i))
        return registry.snapshot()

    assert build() == build()
