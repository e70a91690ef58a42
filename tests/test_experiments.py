"""Tests for the experiment harness (runner, reports, CLI)."""

import pytest

from repro.experiments import (
    ALL_FIGURES,
    Curve,
    CurvePoint,
    RunSettings,
    figure_4_1,
    figure_report,
    format_table,
    run_curve,
    run_point,
    sparkline,
)
from repro.experiments.cli import build_parser, main
from repro.experiments.parallel import resolve_workers

#: Tiny horizon so harness tests stay fast; statistical quality is
#: exercised by the benchmarks, not here.
FAST = RunSettings(warmup_time=5.0, measure_time=15.0)


# ---------------------------------------------------------------------------
# RunSettings
# ---------------------------------------------------------------------------

def test_config_for_applies_scale():
    settings = RunSettings(warmup_time=30.0, measure_time=90.0, scale=0.5)
    config = settings.config_for(10.0, 0.2)
    assert config.warmup_time == pytest.approx(15.0)
    assert config.measure_time == pytest.approx(45.0)
    assert config.workload.total_arrival_rate == pytest.approx(10.0)
    assert config.comm_delay == 0.2


def test_scaled_composes():
    settings = RunSettings(scale=1.0).scaled(0.5).scaled(0.5)
    assert settings.scale == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# run_point / run_curve
# ---------------------------------------------------------------------------

def test_run_point_by_name():
    point = run_point("none", 8.0, settings=FAST)
    assert point.total_rate == 8.0
    assert point.mean_response_time > 0
    assert point.shipped_fraction == 0.0
    assert len(point.replications) == 1


def test_run_point_replications_averaged():
    settings = RunSettings(warmup_time=5.0, measure_time=15.0,
                           replications=3)
    point = run_point("none", 8.0, settings=settings)
    assert len(point.replications) == 3
    manual = sum(r.mean_response_time for r in point.replications) / 3
    assert point.mean_response_time == pytest.approx(manual)


def test_run_point_unknown_strategy():
    with pytest.raises(KeyError):
        run_point("no-such-strategy", 8.0, settings=FAST)


def test_run_curve_structure():
    curve = run_curve("none", [5.0, 10.0], label="baseline", settings=FAST)
    assert curve.label == "baseline"
    assert curve.rates == (5.0, 10.0)
    assert len(curve.response_times) == 2
    assert len(curve.throughputs) == 2


def test_run_curve_default_label():
    curve = run_curve("queue-length", [5.0], settings=FAST)
    assert curve.label == "queue-length"


def test_point_confidence_interval_from_replications():
    settings = RunSettings(warmup_time=5.0, measure_time=15.0,
                           replications=3)
    point = run_point("none", 8.0, settings=settings)
    interval = point.response_time_interval()
    assert interval.n == 3
    assert interval.mean == pytest.approx(point.mean_response_time)
    assert interval.half_width >= 0.0
    assert interval.low <= point.mean_response_time <= interval.high


def test_point_interval_single_replication_zero_width():
    point = run_point("none", 8.0, settings=FAST)
    interval = point.response_time_interval()
    assert interval.half_width == 0.0


def test_max_supported_rate():
    points = tuple(
        CurvePoint(total_rate=rate, mean_response_time=rt,
                   throughput=rate, shipped_fraction=0.0, abort_rate=0.0,
                   local_utilization=0.5, central_utilization=0.5)
        for rate, rt in [(5, 1.0), (10, 2.0), (15, 3.5), (20, 9.0)])
    curve = Curve(label="x", comm_delay=0.2, points=points)
    assert curve.max_supported_rate(response_limit=4.0) == 15
    assert curve.max_supported_rate(response_limit=1.5) == 5
    assert curve.max_supported_rate(response_limit=0.5) == 0.0


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def test_sparkline_shape():
    line = sparkline([0.0, 0.5, 1.0])
    assert len(line) == 3
    assert line[0] == " " and line[-1] == "@"


def test_sparkline_constant_and_empty():
    assert sparkline([2.0, 2.0]) == "  "
    assert sparkline([]) == ""


def test_format_table_alignment():
    text = format_table(["a", "bee"], [["1", "2"], ["333", "4"]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert all(len(line) == len(lines[0]) for line in lines[1:])


@pytest.mark.slow
def test_figure_report_shows_half_widths_with_replications():
    settings = RunSettings(warmup_time=3.0, measure_time=8.0,
                           replications=2)
    figure = figure_4_1(settings)
    report = figure_report(figure)
    assert "+-" in report  # CI half-widths rendered


@pytest.mark.slow
def test_figure_report_contains_curves_and_expectations():
    figure = figure_4_1(RunSettings(warmup_time=3.0, measure_time=8.0))
    report = figure_report(figure)
    assert "Figure 4.1" in report
    assert "no-load-sharing" in report
    assert "static" in report
    assert "expected (from the paper):" in report


def test_figure_data_curve_lookup():
    figure = figure_4_1(RunSettings(warmup_time=3.0, measure_time=8.0))
    assert figure.curve("static").label == "static"
    with pytest.raises(KeyError):
        figure.curve("nope")


def test_all_figures_registry_complete():
    assert sorted(ALL_FIGURES) == ["4.1", "4.2", "4.3", "4.4", "4.5",
                                   "4.6", "4.7"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "4.1" in out and "4.7" in out


def test_cli_requires_figure(capsys):
    assert main([]) == 2


def test_cli_validates_scale(capsys):
    assert main(["--figure", "4.1", "--scale", "0"]) == 2


def test_cli_validates_replications(capsys):
    assert main(["--figure", "4.1", "--replications", "0"]) == 2


def test_cli_runs_figure(capsys):
    assert main(["--figure", "4.1", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "Figure 4.1" in out
    assert "supports" in out
    assert "cache:" in out  # hit/miss summary shown by default


def test_cli_runs_figure_with_workers_and_cache(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    argv = ["--figure", "4.1", "--scale", "0.05", "--workers", "2",
            "--cache-dir", cache_dir]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert f"{resolve_workers(2)} worker(s)" in first
    assert "miss(es)" in first
    # Second run is satisfied entirely from the cache.
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "0 miss(es)" in second


def test_cli_no_cache_flag_suppresses_cache_summary(capsys):
    assert main(["--figure", "4.1", "--scale", "0.05", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "cache:" not in out


def test_cli_rejects_negative_workers(capsys):
    assert main(["--figure", "4.1", "--workers", "-1"]) == 2


def test_cli_trailer_reports_resolved_worker_count(monkeypatch, capsys):
    # --workers 0 auto-detects; the trailer names the count that ran.
    import repro.experiments.parallel as parallel_mod
    monkeypatch.setattr(parallel_mod, "default_workers", lambda: 1)
    assert main(["--figure", "4.1", "--scale", "0.05", "--workers", "0",
                 "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "1 worker(s)" in out
    assert "0 worker(s)" not in out


def test_cli_csv_export(tmp_path, capsys):
    target = tmp_path / "fig.csv"
    assert main(["--figure", "4.1", "--scale", "0.05",
                 "--csv", str(target)]) == 0
    assert target.exists()
    assert "data written" in capsys.readouterr().out


def test_cli_csv_rejected_with_all(capsys):
    assert main(["--figure", "all", "--csv", "x.csv"]) == 2


def test_cli_validate(capsys):
    assert main(["--validate", "--scale", "0.08"]) == 0
    out = capsys.readouterr().out
    assert "mean |error|" in out


def test_cli_sensitivity(capsys):
    assert main(["--sensitivity", "p_local", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "p_ship*" in out
    assert "p_local" in out


def test_cli_sensitivity_rejects_unknown_parameter():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--sensitivity", "voltage"])


def test_parser_accepts_all():
    args = build_parser().parse_args(["--figure", "all"])
    assert args.figure == "all"


def test_parser_rejects_unknown_figure():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--figure", "9.9"])
