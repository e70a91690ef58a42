"""Export of experiment results: figure CSV, JSONL traces, telemetry.

Three export surfaces, all pure standard library:

* ``figure_to_csv`` flattens a
  :class:`~repro.experiments.figures.FigureData` into one row per
  (curve, rate) with every recorded metric, so reproduced figures can be
  re-plotted with any external tool.
* ``write_trace_jsonl`` / ``trace_jsonl_lines`` serialise a
  :class:`~repro.sim.trace.Tracer`'s structured event log as JSON Lines
  (one object per record: ``{"time": ..., "kind": ..., <details>}``),
  the format every log pipeline ingests directly.
* ``write_telemetry`` / ``telemetry_to_csv`` / ``telemetry_to_json``
  dump a run's windowed time-series telemetry (see
  :mod:`repro.hybrid.telemetry`) as CSV rows or a JSON document that
  also carries the run's response-time decomposition, warm-up adequacy
  verdict and engine profile.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from ..hybrid.telemetry import TELEMETRY_FIELDS
from .figures import FigureData
from .runner import Curve

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hybrid.metrics import SimulationResult
    from ..sim.trace import NullTracer, Tracer

__all__ = [
    "curve_rows",
    "figure_to_csv",
    "write_figure_csv",
    "trace_jsonl_lines",
    "write_trace_jsonl",
    "decomposition_rows",
    "telemetry_rows",
    "telemetry_to_csv",
    "telemetry_to_json",
    "write_telemetry",
]

FIELDS = [
    "figure", "curve", "comm_delay", "total_rate", "mean_response_time",
    "throughput", "shipped_fraction", "abort_rate", "local_utilization",
    "central_utilization", "n_replications", "rt_half_width",
    "rt_relative_half_width", "availability", "mttr",
]


def _recovery_columns(point) -> tuple[object, object]:
    """Cross-replication availability and MTTR of one curve point.

    Fault-free sweeps report availability 1.0 and an empty MTTR cell;
    points without attached replications (hand-built in tests) report
    the same neutral values.
    """
    replications = getattr(point, "replications", ()) or ()
    if not replications:
        return 1.0, ""
    availability = (sum(r.availability for r in replications) /
                    len(replications))
    mttrs = [r.mttr for r in replications if r.mttr is not None]
    mttr = sum(mttrs) / len(mttrs) if mttrs else ""
    return availability, mttr


def curve_rows(curve: Curve, figure_id: str = "") -> list[dict[str, object]]:
    """Flatten one curve into CSV-ready dictionaries.

    The three precision columns (``n_replications``, ``rt_half_width``,
    ``rt_relative_half_width``) record how many replications back each
    point and the achieved cross-replication confidence half-width --
    constant across a fixed grid, per-point under adaptive replication
    control.
    """
    rows = []
    for point in curve.points:
        availability, mttr = _recovery_columns(point)
        rows.append({
            "figure": figure_id,
            "curve": curve.label,
            "comm_delay": curve.comm_delay,
            "total_rate": point.total_rate,
            "mean_response_time": point.mean_response_time,
            "throughput": point.throughput,
            "shipped_fraction": point.shipped_fraction,
            "abort_rate": point.abort_rate,
            "local_utilization": point.local_utilization,
            "central_utilization": point.central_utilization,
            "n_replications": point.n_replications,
            "rt_half_width": point.rt_half_width,
            "rt_relative_half_width": point.rt_relative_half_width,
            "availability": availability,
            "mttr": mttr,
        })
    return rows


def figure_to_csv(figure: FigureData) -> str:
    """Render a reproduced figure as CSV text."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=FIELDS)
    writer.writeheader()
    for curve in figure.curves:
        for row in curve_rows(curve, figure_id=figure.figure_id):
            writer.writerow(row)
    return buffer.getvalue()


def write_figure_csv(figure: FigureData, path: str | Path) -> Path:
    """Write the CSV next to wherever the caller wants it; returns path."""
    target = Path(path)
    target.write_text(figure_to_csv(figure), encoding="utf-8")
    return target


# -- JSONL trace export ------------------------------------------------------

def trace_jsonl_lines(tracer: "Tracer | NullTracer") -> Iterator[str]:
    """One compact JSON object per buffered trace record."""
    for record in tracer.records:
        yield json.dumps(record.as_dict(), separators=(",", ":"),
                         default=str)


def write_trace_jsonl(tracer: "Tracer | NullTracer",
                      path: str | Path) -> Path:
    """Write a tracer's event log as JSON Lines.

    Only the in-memory buffer is written; when the tracer's
    ``max_records`` cap dropped records, a final summary object with
    ``"kind": "trace-truncated"`` records how many are missing (a
    truncated export must never masquerade as complete).
    """
    target = Path(path)
    with target.open("w", encoding="utf-8") as handle:
        for line in trace_jsonl_lines(tracer):
            handle.write(line + "\n")
        dropped = getattr(tracer, "dropped", 0)
        if dropped:
            handle.write(json.dumps(
                {"kind": "trace-truncated", "dropped": dropped},
                separators=(",", ":")) + "\n")
    return target


# -- telemetry + decomposition export ----------------------------------------

def decomposition_rows(result: "SimulationResult") \
        -> list[dict[str, object]]:
    """Per-phase rows of the response-time decomposition."""
    mean_rt = result.mean_response_time
    rows = []
    for phase, seconds in result.response_time_decomposition.items():
        rows.append({
            "phase": phase,
            "mean_seconds": seconds,
            "fraction": seconds / mean_rt if mean_rt else 0.0,
        })
    return rows


def telemetry_rows(result: "SimulationResult") -> list[dict[str, object]]:
    """One flat dict per telemetry window, in sampling order."""
    return [window.to_row() for window in result.telemetry]


def telemetry_to_csv(result: "SimulationResult") -> str:
    """Windowed telemetry as CSV text (columns: TELEMETRY_FIELDS)."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=TELEMETRY_FIELDS)
    writer.writeheader()
    for row in telemetry_rows(result):
        writer.writerow(row)
    return buffer.getvalue()


def telemetry_to_json(result: "SimulationResult") -> str:
    """Windowed telemetry plus run metadata as a JSON document.

    The document carries everything needed to interpret the series
    without the Python objects: run identity, the window interval,
    eviction count, warm-up adequacy verdict, the response-time
    decomposition and the engine profile.
    """
    document = {
        "strategy": result.strategy,
        "total_rate": result.total_rate,
        "comm_delay": result.comm_delay,
        "seed": result.seed,
        "mean_response_time": result.mean_response_time,
        "throughput": result.throughput,
        "interval": result.telemetry_interval,
        "windows_dropped": result.telemetry_windows_dropped,
        "warmup_adequate": result.warmup_adequate,
        "warmup_trend": result.warmup_trend,
        "decomposition": result.response_time_decomposition,
        "availability": {
            "ratio": result.availability,
            "txns_timed_out": result.txns_timed_out,
            "txns_failed_over": result.txns_failed_over,
            "txns_failed": result.txns_failed,
            "txns_cancelled_central": result.txns_cancelled_central,
            "fallback_routings": result.fallback_routings,
            "arrivals_rejected": result.arrivals_rejected,
            "messages_dropped": result.messages_dropped,
            "messages_retransmitted": result.messages_retransmitted,
            "duplicate_messages": result.duplicate_messages,
            "fault_events": result.fault_events,
            "episodes": [
                {
                    "kind": report.kind,
                    "site": report.site,
                    "start": report.start,
                    "end": report.end,
                    "baseline_throughput": report.baseline_throughput,
                    "degraded_throughput": report.degraded_throughput,
                    "time_to_recover": report.time_to_recover,
                    "recovery_time": report.recovery_time,
                }
                for report in result.fault_episodes
            ],
        },
        "recovery": {
            "mttr": result.mttr,
            "mtbf": result.mtbf,
            "failover_takeovers": result.failover_takeovers,
            "site_rejoins": result.site_rejoins,
            "arrivals_shed": result.arrivals_shed,
            "txns_lost_in_crash": result.txns_lost_in_crash,
            "txns_deadline_cancelled": result.txns_deadline_cancelled,
            "txns_reshipped": result.txns_reshipped,
            "breaker_transitions": result.breaker_transitions,
            "recoveries": [
                {
                    "kind": record.kind,
                    "site": record.site,
                    "started": record.started,
                    "completed": record.completed,
                    "duration": record.duration,
                }
                for record in result.recoveries
            ],
        },
        "engine": {
            "events": result.engine_events,
            "events_per_sec": result.engine_events_per_sec,
            "heap_peak": result.engine_heap_peak,
            "wall_clock_seconds": result.wall_clock_seconds,
        },
        "windows": telemetry_rows(result),
    }
    return json.dumps(document, indent=2, default=str)


def write_telemetry(result: "SimulationResult",
                    path: str | Path) -> Path:
    """Write telemetry to ``path``: CSV for ``*.csv``, JSON otherwise."""
    target = Path(path)
    if target.suffix.lower() == ".csv":
        target.write_text(telemetry_to_csv(result), encoding="utf-8")
    else:
        target.write_text(telemetry_to_json(result), encoding="utf-8")
    return target
