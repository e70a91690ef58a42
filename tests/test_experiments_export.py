"""Tests for CSV export and model validation utilities."""

import csv
import io
from dataclasses import replace

import pytest

from repro.experiments import (
    RunSettings,
    curve_rows,
    figure_4_1,
    figure_to_csv,
    validate_model,
    write_figure_csv,
)
from repro.experiments.export import FIELDS
from repro.experiments.runner import Curve, CurvePoint
from repro.experiments.validation import VALIDATION_SETTINGS


def tiny_curve():
    points = tuple(
        CurvePoint(total_rate=rate, mean_response_time=rate / 10,
                   throughput=rate, shipped_fraction=0.5, abort_rate=0.01,
                   local_utilization=0.4, central_utilization=0.3)
        for rate in (5.0, 10.0))
    return Curve(label="demo", comm_delay=0.2, points=points)


def test_curve_rows_fields():
    rows = curve_rows(tiny_curve(), figure_id="4.x")
    assert len(rows) == 2
    assert set(rows[0]) == set(FIELDS)
    assert rows[0]["figure"] == "4.x"
    assert rows[0]["curve"] == "demo"
    assert rows[1]["total_rate"] == 10.0


def test_figure_to_csv_roundtrip():
    figure = figure_4_1(RunSettings(warmup_time=3.0, measure_time=8.0))
    text = figure_to_csv(figure)
    parsed = list(csv.DictReader(io.StringIO(text)))
    labels = {row["curve"] for row in parsed}
    assert {"no-load-sharing", "static", "best-dynamic"} <= labels
    # Every row carries a parsable response time.
    for row in parsed:
        assert float(row["mean_response_time"]) > 0


def test_write_figure_csv(tmp_path):
    figure = figure_4_1(RunSettings(warmup_time=3.0, measure_time=8.0))
    target = write_figure_csv(figure, tmp_path / "fig.csv")
    assert target.exists()
    content = target.read_text()
    assert content.startswith("figure,curve,")


def test_validate_model_small_grid():
    report = validate_model(rates=(5.0, 10.0), p_ships=(0.0, 0.5),
                            settings=replace(VALIDATION_SETTINGS,
                                             warmup_time=5.0,
                                             measure_time=20.0))
    assert len(report.points) == 4
    assert report.mean_abs_error < 0.5
    table = report.to_table()
    assert "p_ship" in table
    assert "err" in table


def test_validation_point_error():
    from repro.experiments import ValidationPoint

    point = ValidationPoint(
        total_rate=10.0, p_ship=0.0, model_response=1.2,
        simulated_response=1.0, model_rho_local=0.4,
        simulated_rho_local=0.4, model_rho_central=0.1,
        simulated_rho_central=0.1)
    assert point.response_error == pytest.approx(0.2)
