"""Unified observability: metrics registry, profiler, audit, bench gate.

This package is the system's *measurement* layer, distinct from the
simulation's own statistics: the :mod:`~repro.obs.registry` collects
named counters/gauges/histograms that every subsystem publishes into,
the :mod:`~repro.obs.profiler` explains where the DES kernel spends its
wall-clock time, the :mod:`~repro.obs.audit` records why every routing
decision went the way it did, and :mod:`~repro.obs.bench` turns
events/sec and figure wall-clock into a regression gate shared with the
``BENCH_*.json`` history.

Everything here is strictly observational: attaching any combination of
these observers never schedules a simulation event, touches a random
stream, or changes a message path, so observed runs are bit-identical
to bare runs (enforced by the ``observers-vs-bare`` differential check).
"""

from .audit import AuditSummary, RoutingAudit, RoutingDecision
from .logconf import add_logging_flags, setup_cli_logging
from .profiler import EngineProfiler, hot_path_profile
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "AuditSummary",
    "RoutingAudit",
    "RoutingDecision",
    "add_logging_flags",
    "setup_cli_logging",
    "EngineProfiler",
    "hot_path_profile",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]
