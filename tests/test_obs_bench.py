"""Unit tests for the perf-regression gate (``hybriddb-bench``)."""

import json

import pytest

from repro.obs.bench import (
    BENCHMARKS,
    compare_records,
    main,
    run_benchmarks,
)


def _record(benchmark="engine_throughput", **fields):
    base = {"benchmark": benchmark, "scale": 0.1,
            "recorded_at": "2026-08-08T00:00:00Z"}
    base.update(fields)
    return base


class TestCompareRecords:
    def test_within_band_is_ok(self):
        comparisons = compare_records(
            [_record(events_per_sec=100_000)],
            [_record(events_per_sec=95_000)])
        assert [c.status for c in comparisons] == ["ok"]
        assert not comparisons[0].failed

    def test_throughput_drop_is_a_regression(self):
        comparisons = compare_records(
            [_record(events_per_sec=100_000)],
            [_record(events_per_sec=50_000)])
        assert comparisons[0].status == "regression"
        assert comparisons[0].failed
        assert comparisons[0].ratio == 0.5
        assert "REGRESSION" in comparisons[0].describe()

    def test_throughput_gain_is_an_improvement(self):
        comparisons = compare_records(
            [_record(events_per_sec=100_000)],
            [_record(events_per_sec=200_000)])
        assert comparisons[0].status == "improved"
        assert not comparisons[0].failed

    def test_seconds_direction_is_lower_is_better(self):
        slower = compare_records(
            [_record("figure_4_1", seconds=2.0)],
            [_record("figure_4_1", seconds=3.0)])
        faster = compare_records(
            [_record("figure_4_1", seconds=2.0)],
            [_record("figure_4_1", seconds=1.0)])
        assert slower[0].status == "regression"
        assert faster[0].status == "improved"

    def test_tolerance_is_configurable(self):
        comparisons = compare_records(
            [_record(events_per_sec=100_000)],
            [_record(events_per_sec=95_000)],
            tolerance=0.01)
        assert comparisons[0].status == "regression"

    def test_missing_benchmark_fails_the_gate(self):
        comparisons = compare_records(
            [_record(events_per_sec=100_000)], [])
        assert comparisons[0].status == "missing"
        assert comparisons[0].failed
        assert "MISSING" in comparisons[0].describe()

    def test_new_benchmark_passes(self):
        comparisons = compare_records(
            [], [_record(events_per_sec=100_000)])
        assert comparisons[0].status == "new"
        assert not comparisons[0].failed

    def test_ungated_benchmarks_are_ignored(self):
        # The historical parallel-speedup snapshots share the file
        # format but are not gated benchmarks.
        comparisons = compare_records(
            [_record("figure_4_2", serial_seconds=10.0)],
            [_record("figure_4_2", serial_seconds=99.0)])
        assert comparisons == []


class TestRunBenchmarks:
    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            run_benchmarks(["nope"])

    def test_engine_throughput_record_schema(self):
        records = run_benchmarks(["engine_throughput"], scale=0.02,
                                 repeat=1)
        (record,) = records
        assert record["benchmark"] == "engine_throughput"
        assert record["events_per_sec"] > 0
        assert record["events"] > 0
        assert record["recorded_at"].endswith("Z")
        assert BENCHMARKS["engine_throughput"].metric in record

    def test_handicap_scales_timings(self):
        # Deterministic sample path: the same seed yields the same event
        # count, so the handicap's effect is purely on the timing field.
        records = run_benchmarks(["engine_throughput"], scale=0.02,
                                 repeat=1, handicap=100.0)
        (record,) = records
        fair = run_benchmarks(["engine_throughput"], scale=0.02,
                              repeat=1)[0]
        assert record["events"] == fair["events"]
        assert record["events_per_sec"] < fair["events_per_sec"]


def _dispatch_mix(profiler):
    """Dispatch shares (percent) by event group, and mean depth."""
    counts = {}
    for row in profiler.summary()["event_types"]:
        group = row["type"].split(":")[0]
        counts[group] = counts.get(group, 0) + row["count"]
    total = sum(counts.values())
    shares = {group: 100.0 * count / total
              for group, count in counts.items()}
    return shares, profiler.heap.mean_depth


def test_kernel_mix_tracks_the_canonical_run(monkeypatch):
    """The gate's workload dispatches what a real run dispatches.

    Each event group's share is within 3 points of a fault-free
    queue-length run's (18 tps, 5 s warm-up + 20 s window, whose shares
    are within a point of the 60 s canonical run's), and the mean
    calendar depth is within 2x of it.
    """
    from repro.experiments.runner import RunSettings, run_single
    from repro.obs.bench import kernel_workload
    from repro.obs.profiler import EngineProfiler
    from repro.sim.engine import Environment

    profilers = []

    def instrument(system):
        profilers.append(EngineProfiler(system.env))

    run_single("queue-length", 18.0, instrument=instrument,
               settings=RunSettings(warmup_time=5.0, measure_time=20.0))
    run_shares, run_depth = _dispatch_mix(profilers.pop())

    plain_run = Environment.run

    def profiled_run(env, until=None):
        profilers.append(EngineProfiler(env))
        return plain_run(env, until=until)

    monkeypatch.setattr(Environment, "run", profiled_run)
    kernel_workload(horizon=40.0)
    kernel_shares, kernel_depth = _dispatch_mix(profilers.pop())

    for group in set(kernel_shares) | set(run_shares):
        assert kernel_shares.get(group, 0.0) == pytest.approx(
            run_shares.get(group, 0.0), abs=3.0), group
    assert set(kernel_shares) == set(run_shares) == {
        "timeout", "timer", "event", "request", "process"}
    assert run_depth / 2 <= kernel_depth <= run_depth * 2


@pytest.fixture
def deterministic_engine_bench(monkeypatch):
    """Replace the wall-clock benchmark with a fixed-output stub.

    The CLI tests exercise run/gate/compare plumbing, not the timer:
    real dispatch rates drift far more than the tolerance band on a
    loaded runner, which would make a pass-vs-own-snapshot test flaky.
    """
    import repro.obs.bench as bench

    def fake_runner(scale, repeat, handicap):
        return {
            "benchmark": "engine_throughput",
            "scale": scale,
            "repeat": repeat,
            "strategy": "queue-length",
            "rate": 18.0,
            "events": 17000,
            "events_per_sec": round(150_000.0 / handicap, 1),
            "seconds": round(0.1 * handicap, 3),
            "recorded_at": "2026-08-08T00:00:00Z",
        }

    monkeypatch.setitem(bench._RUNNERS, "engine_throughput", fake_runner)


class TestCli:
    def test_compare_ok(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        current = tmp_path / "cur.json"
        baseline.write_text(json.dumps([_record(events_per_sec=100.0)]))
        current.write_text(json.dumps([_record(events_per_sec=101.0)]))
        assert main(["compare", str(baseline), str(current)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_compare_regression_exits_nonzero(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        current = tmp_path / "cur.json"
        baseline.write_text(json.dumps([_record(events_per_sec=100.0)]))
        current.write_text(json.dumps([_record(events_per_sec=10.0)]))
        assert main(["compare", str(baseline), str(current)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_run_writes_records(self, tmp_path, capsys,
                                deterministic_engine_bench):
        target = tmp_path / "bench.json"
        code = main(["run", "--out", str(target), "--scale", "0.02",
                     "--repeat", "1", "--bench", "engine_throughput"])
        assert code == 0
        records = json.loads(target.read_text())
        assert records[0]["benchmark"] == "engine_throughput"

    def test_gate_passes_against_own_snapshot(
            self, tmp_path, deterministic_engine_bench):
        baseline = tmp_path / "base.json"
        assert main(["run", "--out", str(baseline), "--scale", "0.02",
                     "--bench", "engine_throughput"]) == 0
        assert main(["gate", "--baseline", str(baseline),
                     "--scale", "0.02",
                     "--bench", "engine_throughput"]) == 0

    def test_gate_fails_on_seeded_slowdown(self, tmp_path, capsys,
                                           deterministic_engine_bench):
        baseline = tmp_path / "base.json"
        out = tmp_path / "cur.json"
        assert main(["run", "--out", str(baseline), "--scale", "0.02",
                     "--bench", "engine_throughput"]) == 0
        code = main(["gate", "--baseline", str(baseline),
                     "--scale", "0.02", "--bench", "engine_throughput",
                     "--handicap", "10.0", "--out", str(out)])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out
        # --out still snapshots the (distorted) current records.
        assert json.loads(out.read_text())

    def test_selective_gate_ignores_unselected_baseline_entries(
            self, tmp_path, capsys, deterministic_engine_bench):
        """``gate --bench NAME`` must not fail because the baseline
        also holds records for benchmarks that were not selected."""
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps([
            _record(events_per_sec=150_000.0),
            {"benchmark": "figure_4_1", "seconds": 10.0},
            {"benchmark": "system_throughput",
             "events_per_sec": 120_000.0},
        ]))
        code = main(["gate", "--baseline", str(baseline),
                     "--scale", "0.02", "--bench", "engine_throughput"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "MISSING" not in out

    @pytest.mark.parametrize("argv", [
        ["run", "--out", "x.json", "--scale", "0"],
        ["run", "--out", "x.json", "--repeat", "0"],
        ["run", "--out", "x.json", "--handicap", "0"],
    ])
    def test_flag_validation(self, argv, capsys):
        assert main(argv) == 2
        assert "error" in capsys.readouterr().err
