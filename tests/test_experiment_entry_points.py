"""Every experiment entry point builds its jobs the same way.

Each test spies on :meth:`ParallelRunner.run_jobs` while one entry point
runs under ``protocol="2pc"``, ``crn=True`` and two replications, and
checks that every submitted :class:`JobSpec` carries the protocol and
the seed :meth:`RunSettings.replication_seed` gives its (rate,
replication).  Jobs arrive point-major, replication-minor, so job ``i``
is replication ``i % replications`` of its point.
"""

from dataclasses import replace

import pytest

from repro.experiments import figures, scorecard
from repro.experiments.availability import run_availability
from repro.experiments.cache import ResultCache
from repro.experiments.cli import main
from repro.experiments.parallel import ParallelRunner
from repro.experiments.runner import RunSettings
from repro.experiments.sensitivity import sweep_parameter
from repro.experiments.validation import validate_model

SETTINGS = RunSettings(warmup_time=1.0, measure_time=3.0, replications=2,
                       crn=True, protocol="2pc")


@pytest.fixture
def jobs(monkeypatch):
    """Every JobSpec submitted to any ParallelRunner, in order."""
    seen = []
    run_jobs = ParallelRunner.run_jobs

    def spy(self, specs):
        specs = list(specs)
        seen.extend(specs)
        return run_jobs(self, specs)

    monkeypatch.setattr(ParallelRunner, "run_jobs", spy)
    return seen


def assert_built(specs, settings, count):
    """``specs`` is ``count`` jobs, each built from ``settings``."""
    assert len(specs) == count
    for index, spec in enumerate(specs):
        rate = round(spec.config.workload.total_arrival_rate, 9)
        replication = index % settings.replications
        assert spec.config.protocol == settings.protocol
        assert spec.config.seed == settings.replication_seed(
            rate, replication)
        assert spec.config.warmup_time == settings.warmup_time
        assert spec.config.measure_time == settings.measure_time


def test_figure_jobs_carry_settings(jobs):
    figure = figures.figure_4_1(SETTINGS)
    points = sum(len(curve.points) for curve in figure.curves)
    assert_built(jobs, SETTINGS, 2 * points)


def test_sensitivity_jobs_carry_settings(jobs):
    sweep = sweep_parameter("p_local", [0.6, 0.9], total_rate=8.0,
                            settings=SETTINGS)
    assert_built(jobs, SETTINGS, 2 * 2 * 3)
    assert {spec.config.workload.p_local for spec in jobs} == {0.6, 0.9}
    for point in sweep.points:
        assert set(point.replication_counts.values()) == {2}
        assert len(point.rt_half_widths) == 3


def test_validation_jobs_carry_settings(jobs):
    report = validate_model(rates=(5.0, 10.0), p_ships=(0.0, 0.3),
                            settings=SETTINGS)
    assert_built(jobs, SETTINGS, 2 * 4)
    assert len(report.points) == 4


def test_availability_jobs_carry_settings(jobs):
    single = replace(SETTINGS, replications=1)
    comparison = run_availability(total_rate=10.0, settings=single)
    assert_built(jobs, single, 2 * 3)
    assert len(comparison.points) == 3


def test_cli_availability_honours_comm_delay(jobs, capsys):
    assert main(["--availability", "--comm-delay", "0.5", "--scale", "0.02",
                 "--no-cache"]) == 0
    assert len(jobs) == 2 * 3
    assert {spec.config.comm_delay for spec in jobs} == {0.5}
    assert "delay=0.5 s" in capsys.readouterr().out


def test_availability_rejects_replications():
    with pytest.raises(ValueError, match="single runs"):
        run_availability(settings=SETTINGS)


def test_scorecard_jobs_carry_settings(jobs, monkeypatch, tmp_path):
    calls = []

    def one_figure(settings, workers, cache):
        calls.append((workers, cache))
        return figures.figure_4_1(settings, workers=workers, cache=cache)

    monkeypatch.setattr(scorecard, "ALL_FIGURES", {"4.1": one_figure})
    cache = ResultCache(tmp_path)
    card = scorecard.run_scorecard(SETTINGS, workers=2, cache=cache)
    assert calls == [(2, cache)]
    assert_built(jobs, SETTINGS, len(jobs))
    assert jobs and len(jobs) % 2 == 0
    assert card.results


def test_cli_sensitivity_honours_protocol_replications_crn(jobs, capsys):
    assert main(["--sensitivity", "p_local", "--protocol", "2pc",
                 "--replications", "2", "--crn", "--scale", "0.02",
                 "--no-cache"]) == 0
    settings = RunSettings(warmup_time=5.4, measure_time=11.2,
                           replications=2, crn=True, protocol="2pc")
    assert_built(jobs, settings, 3 * 3 * 2)
    assert "p_ship*" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [["--replications", "2"],
                                   ["--precision", "0.1"]])
def test_cli_availability_rejects_multiple_replications(flags, capsys):
    assert main(["--availability", "--scale", "0.1", *flags]) == 2
    assert "--availability compares single runs" in capsys.readouterr().err
