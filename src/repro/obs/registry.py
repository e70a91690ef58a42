"""Low-overhead metrics registry: counters, gauges, log-bucketed histograms.

The registry is the single namespace every subsystem publishes
measurements into -- the sim kernel (events, heap), resources (CPU
grants), links (messages sent/delivered), the hybrid protocol
(completions, aborts, authentication rounds) and the routers (decisions)
-- replacing scattered hand-rolled counter fields with named, labelled
instruments that export uniformly.

Design constraints, in order:

1. **Determinism.**  Instruments hold plain Python numbers and never
   consult the clock, an RNG or the event calendar, so a registry-backed
   run follows exactly the sample path of a bare one.
2. **Hot-path cost.**  ``Counter.inc`` is one attribute add.  Labelled
   children are resolved once (a dict lookup) and then held, so callers
   on per-transaction paths bind children at init time, not per event.
3. **Uniform export.**  :meth:`MetricsRegistry.snapshot` flattens every
   instrument into a sorted ``{"name{label=value}": number}`` mapping --
   the form carried on ``SimulationResult.metrics``, dumped by
   ``hybriddb-experiment --metrics-out`` and summarised in reports.

Histograms are log-bucketed (base-2 via ``math.frexp``): constant-time
insertion, ~30 buckets across nanoseconds-to-kiloseconds of dynamic
range, and quantile estimates good to a factor of two -- sufficient for
latency shapes without per-sample storage.
"""

from __future__ import annotations

import math
from typing import Iterator

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


def _format_key(name: str, label_names: tuple[str, ...],
                label_values: tuple) -> str:
    if not label_names:
        return name
    inner = ",".join(f"{label}={value}" for label, value
                     in zip(label_names, label_values))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount


class Gauge:
    """A value that can go up and down (or be sampled at publish time)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, amount: float) -> None:
        self.value += amount


class Histogram:
    """Log-bucketed (base-2) distribution of non-negative observations.

    Bucket ``e`` holds observations with ``2**(e-1) < x <= 2**e``
    (``frexp`` exponent); zeros land in a dedicated underflow bucket.
    Tracks exact count/sum/min/max alongside the buckets.
    """

    __slots__ = ("count", "total", "minimum", "maximum", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        #: exponent -> observation count (exponent None = zero/underflow).
        self.buckets: dict[int | None, int] = {}

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"histogram observations must be >= 0, "
                             f"got {value}")
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        exponent = math.frexp(value)[1] if value > 0.0 else None
        self.buckets[exponent] = self.buckets.get(exponent, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def bucket_edges(self) -> list[tuple[float, int]]:
        """Sorted ``(upper_edge, count)`` pairs (edge 0.0 = exact zeros)."""
        edges = []
        for exponent, count in self.buckets.items():
            edge = 0.0 if exponent is None else 2.0 ** exponent
            edges.append((edge, count))
        return sorted(edges)

    def quantile(self, q: float) -> float:
        """Upper bucket edge below which a fraction ``q`` of samples lie.

        Accurate to one bucket (a factor of two); 0.0 on an empty
        histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        target = q * self.count
        seen = 0
        edge = 0.0
        for edge, count in self.bucket_edges():
            seen += count
            if seen >= target:
                return min(edge, self.maximum)
        return self.maximum

    def summary(self) -> dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class Family:
    """One named instrument family, optionally labelled.

    An unlabelled family has exactly one child (label key ``()``);
    labelled families create children on first use.  ``labels`` declares
    the label *names*; children are keyed by label *values* in that
    order.
    """

    __slots__ = ("name", "kind", "help", "label_names", "children")

    def __init__(self, name: str, kind: str, help: str = "",
                 labels: tuple[str, ...] = ()):
        if kind not in _KINDS:
            raise ValueError(f"unknown instrument kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(labels)
        self.children: dict[tuple, Counter | Gauge | Histogram] = {}
        if not self.label_names:
            self.children[()] = _KINDS[kind]()

    def labels(self, *values) -> Counter | Gauge | Histogram:
        """The child for one label-value combination (created lazily).

        Callers on hot paths should bind the returned child once and
        increment it directly.
        """
        if len(values) != len(self.label_names):
            raise ValueError(
                f"{self.name}: expected {len(self.label_names)} label "
                f"value(s) {self.label_names}, got {len(values)}")
        key = tuple(values)
        child = self.children.get(key)
        if child is None:
            child = _KINDS[self.kind]()
            self.children[key] = child
        return child

    @property
    def single(self) -> Counter | Gauge | Histogram:
        """The sole child of an unlabelled family."""
        if self.label_names:
            raise ValueError(f"{self.name} is labelled "
                             f"{self.label_names}; use .labels(...)")
        return self.children[()]

    def total(self) -> float:
        """Sum over children (count sum for histograms)."""
        if self.kind == "histogram":
            return sum(child.count for child in self.children.values())
        return sum(child.value for child in self.children.values())


class MetricsRegistry:
    """Named instruments with labels, flattened on demand.

    ``const_labels`` (e.g. ``strategy=...``) are stamped onto every
    exported key, so snapshots from different runs stay distinguishable
    once merged into one document.
    """

    def __init__(self, **const_labels) -> None:
        self.const_labels = dict(const_labels)
        self._families: dict[str, Family] = {}

    # -- declaration ---------------------------------------------------------

    def _family(self, name: str, kind: str, help: str,
                labels: tuple[str, ...]) -> Family:
        family = self._families.get(name)
        if family is None:
            family = Family(name, kind, help, labels)
            self._families[name] = family
            return family
        if family.kind != kind or family.label_names != tuple(labels):
            raise ValueError(
                f"instrument {name!r} re-declared as {kind}{labels} "
                f"(was {family.kind}{family.label_names})")
        return family

    def counter(self, name: str, help: str = "",
                labels: tuple[str, ...] = ()) -> Family:
        return self._family(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "",
              labels: tuple[str, ...] = ()) -> Family:
        return self._family(name, "gauge", help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: tuple[str, ...] = ()) -> Family:
        return self._family(name, "histogram", help, labels)

    # -- inspection ----------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def __iter__(self) -> Iterator[Family]:
        return iter(self._families.values())

    def get(self, name: str) -> Family | None:
        return self._families.get(name)

    def snapshot(self) -> dict[str, float]:
        """Flatten every instrument into sorted ``key -> number`` form.

        Counter/gauge children export one entry; histogram children
        export ``_count``/``_sum``/``_min``/``_max`` entries (buckets
        stay queryable on the live objects -- the flat form feeds
        result identity checks, where a stable scalar set matters more
        than full shape).
        """
        flat: dict[str, float] = {}
        const = tuple(self.const_labels.items())
        for family in self._families.values():
            label_names = (tuple(name for name, _ in const) +
                           family.label_names)
            for key, child in family.children.items():
                values = tuple(value for _, value in const) + key
                if isinstance(child, Histogram):
                    base = _format_key(family.name, label_names, values)
                    flat[f"{base}_count"] = child.count
                    flat[f"{base}_sum"] = round(child.total, 9)
                    if child.count:
                        flat[f"{base}_min"] = round(child.minimum, 9)
                        flat[f"{base}_max"] = round(child.maximum, 9)
                else:
                    flat[_format_key(family.name, label_names,
                                     values)] = child.value
        return dict(sorted(flat.items()))

    def totals(self) -> dict[str, float]:
        """Per-family totals (labels collapsed), sorted by name."""
        return {name: family.total()
                for name, family in sorted(self._families.items())}
