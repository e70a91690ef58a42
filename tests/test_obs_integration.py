"""Integration and edge-case tests for the observability stack.

Covers the degenerate runs the collectors must survive (zero measured
transactions, warm-up dominating the horizon), the registry dashboard
and unified run-report renderers, the execution-summary trailer, and
the ``hybriddb-experiment`` observability flags end to end.
"""

import json
import math

import pytest

from repro.experiments import cli
from repro.experiments.report import (
    execution_summary,
    metrics_dashboard,
    run_report,
)
from repro.experiments.runner import RunSettings, run_single
from repro.obs.audit import RoutingAudit

#: So slow an arrival process that a short horizon sees no transactions.
IDLE_RATE = 0.01


# -- degenerate runs ----------------------------------------------------------

class TestZeroTransactionRun:
    @pytest.fixture(scope="class")
    def idle(self):
        return run_single(
            "queue-length", IDLE_RATE,
            settings=RunSettings(warmup_time=1.0, measure_time=2.0,
                                 base_seed=7))

    def test_counters_are_zero_not_missing(self, idle):
        assert idle.completed == 0
        assert idle.metrics["txn_completed"] == 0
        assert idle.metrics["response_time_seconds{txn_class=A}_count"] \
            == 0

    def test_headline_rates_degenerate_gracefully(self, idle):
        assert math.isnan(idle.mean_response_time)
        assert idle.throughput == 0.0

    def test_run_report_renders(self, idle):
        text = run_report(idle)
        assert "Metrics registry" in text
        assert "Engine:" in text

    def test_observers_attach_cleanly(self):
        audit = RoutingAudit()
        result = run_single(
            "queue-length", IDLE_RATE,
            settings=RunSettings(warmup_time=1.0, measure_time=2.0,
                                 base_seed=7),
            audit=audit)
        assert result.completed == 0
        assert audit.recorded == 0
        assert audit.summary().decisions == 0


class TestWarmupDominatedRun:
    @pytest.fixture(scope="class")
    def warmup_heavy(self):
        # Warm-up is 60x the measurement window: nearly all activity is
        # excluded from the measured counters but still simulated.
        return run_single(
            "queue-length", 18.0,
            settings=RunSettings(warmup_time=30.0, measure_time=0.5,
                                 base_seed=7))

    def test_measured_window_is_small_but_consistent(self, warmup_heavy):
        assert warmup_heavy.completed > 0
        assert warmup_heavy.metrics["txn_completed"] == \
            warmup_heavy.completed
        # The engine processed far more than the measured handful.
        assert warmup_heavy.engine_events > \
            100 * warmup_heavy.completed

    def test_report_renders_without_windows_enough_to_judge(
            self, warmup_heavy):
        text = run_report(warmup_heavy)
        assert "warm-up adequacy" in text

    def test_identical_to_observed_run(self, warmup_heavy):
        observed = run_single(
            "queue-length", 18.0,
            settings=RunSettings(warmup_time=30.0, measure_time=0.5,
                                 base_seed=7),
            audit=RoutingAudit())
        assert observed.identity_dict() == warmup_heavy.identity_dict()


# -- dashboard rendering ------------------------------------------------------

class TestMetricsDashboard:
    def test_empty_snapshot(self):
        assert metrics_dashboard({}) == "metrics: (empty registry)"

    def test_groups_labels_under_one_instrument(self):
        text = metrics_dashboard({
            "txn_arrivals{txn_class=A}": 10,
            "txn_arrivals{txn_class=B}": 4,
            "txn_completed": 12,
        })
        assert "2 instrument(s)" in text
        assert "txn_class=A=10" in text
        # The labelled family shows its summed total.
        (arrivals_row,) = [line for line in text.splitlines()
                           if line.startswith("txn_arrivals")]
        assert " 14 " in arrivals_row

    def test_breakdown_elides_beyond_cap(self):
        snapshot = {f"cpu_grants{{server=site-{i}}}": float(i)
                    for i in range(12)}
        text = metrics_dashboard(snapshot)
        assert "(+4 more)" in text

    def test_histogram_series_render_summary(self):
        text = metrics_dashboard({
            "rt_count": 2, "rt_sum": 3.0, "rt_min": 1.0, "rt_max": 2.0,
        })
        assert "1 histogram series" in text
        assert "n=2" in text
        assert "mean=1.5000" in text

    def test_markdown_mode_emits_gfm_table(self):
        text = metrics_dashboard({"txn_completed": 12}, markdown=True)
        lines = text.splitlines()
        assert lines[0] == "| metric | total | breakdown |"
        assert lines[1] == "| --- | --- | --- |"
        assert "| `txn_completed` | 12 |" in lines[2]

    def test_real_snapshot_round_trip(self):
        result = run_single(
            "queue-length", 18.0,
            settings=RunSettings(warmup_time=5.0, measure_time=10.0,
                                 base_seed=3))
        text = metrics_dashboard(result.metrics)
        assert "txn_completed" in text
        assert "response_time_seconds" in text
        # Every instrument stem appears exactly once.
        assert text.count("routing_decisions") == 1


class TestExecutionSummary:
    def test_minimal(self):
        assert execution_summary(12.34) == \
            "[12.3s of wall-clock simulation]"

    def test_with_workers(self):
        assert execution_summary(1.0, workers=4) == \
            "[1.0s of wall-clock simulation, 4 worker(s)]"

    def test_with_pool_and_cache(self):
        class Pool:
            jobs_cached = 3
            jobs_executed = 7

        class Cache:
            @staticmethod
            def stats():
                return "cache: 3 hit(s), 7 miss(es)"

        text = execution_summary(2.0, workers=2, cache=Cache(),
                                 pool=Pool())
        lines = text.splitlines()
        assert lines[1] == "[pool: 3 job(s) from cache, 7 executed]"
        assert lines[2] == "[cache: 3 hit(s), 7 miss(es)]"


# -- CLI observability flags --------------------------------------------------

class TestCliObservabilityFlags:
    RUN = ["--run", "queue-length", "--rate", "15", "--scale", "0.15"]

    def test_metrics_out_writes_snapshot_document(self, tmp_path, capsys):
        target = tmp_path / "metrics.json"
        assert cli.main(self.RUN + ["--metrics-out", str(target)]) == 0
        document = json.loads(target.read_text())
        assert document["strategy"] == "queue-length"
        assert document["metrics"]["txn_completed"] > 0
        assert "Metrics registry" in capsys.readouterr().out

    def test_audit_out_writes_jsonl_and_summary(self, tmp_path, capsys):
        target = tmp_path / "audit.jsonl"
        assert cli.main(self.RUN + ["--audit-out", str(target)]) == 0
        records = [json.loads(line)
                   for line in target.read_text().splitlines()]
        assert records
        assert {"time", "txn_id", "placement", "reason"} <= set(records[0])
        assert "routing audit" in capsys.readouterr().out

    def test_profile_prints_engine_profile(self, capsys):
        assert cli.main(self.RUN + ["--profile"]) == 0
        out = capsys.readouterr().out
        assert "engine profile" in out
        assert "calendar" in out

    def test_hot_paths_prints_ranked_functions(self, capsys):
        assert cli.main(self.RUN + ["--hot-paths"]) == 0
        assert "function" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", [
        ["--metrics-out", "m.json"],
        ["--profile"],
        ["--hot-paths"],
        ["--audit"],
        ["--audit-out", "a.jsonl"],
    ])
    def test_run_scoped_flags_require_run(self, flag, capsys):
        assert cli.main(["--figure", "4.1"] + flag) == 2
        assert "require --run" in capsys.readouterr().err

    def test_profile_and_hot_paths_conflict(self, capsys):
        assert cli.main(self.RUN + ["--profile", "--hot-paths"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err
